// Package transcode provides executable counterparts to the service
// descriptions of internal/service: stages that actually consume and
// produce synthetic media frames. Together with internal/pipeline it
// substitutes for the real media transcoders the paper assumes — the
// framework only depends on format signatures and quality transfer, both
// of which these synthetic stages implement faithfully.
package transcode

import (
	"fmt"
	"math"

	"qoschain/internal/media"
)

// Frame is one synthetic media unit flowing through an adaptation chain.
type Frame struct {
	// Seq is the source sequence number (0-based).
	Seq int
	// PTS is the presentation timestamp in seconds of virtual time.
	PTS float64
	// Format is the frame's current format signature.
	Format media.Format
	// Params are the QoS parameters the frame is encoded at.
	Params media.Params
	// Payload is the synthetic encoded payload; its size tracks the
	// bitrate implied by Params.
	Payload []byte
	// Keyframe marks intra-coded frames (every GOP-th frame).
	Keyframe bool
}

// Bytes returns the payload size.
func (f Frame) Bytes() int { return len(f.Payload) }

// payloadSize derives the per-frame payload in bytes from a bitrate
// model: kbps / fps → kbit per frame → bytes.
func payloadSize(model media.BitrateModel, p media.Params) int {
	if model == nil {
		model = media.DefaultBitrate
	}
	fps := p.Get(media.ParamFrameRate)
	if fps <= 0 {
		fps = 1
	}
	kbit := model.RequiredKbps(p) / fps
	n := int(math.Ceil(kbit * 1000 / 8))
	if n < 1 {
		n = 1
	}
	return n
}

// Source generates a deterministic synthetic stream.
type Source struct {
	// Format and Params describe the generated variant.
	Format media.Format
	Params media.Params
	// Bitrate sizes payloads; nil uses media.DefaultBitrate.
	Bitrate media.BitrateModel
	// GOP is the keyframe interval (default 10).
	GOP int
}

// Frames produces n frames with PTS spaced at 1/fps seconds. It
// materializes the whole stream at once — O(n·payload) memory — and is
// kept as a thin wrapper over Cursor for tests and small direct runs;
// the pipeline streams through a Cursor instead.
func (s Source) Frames(n int) []Frame {
	out := s.Cursor(n, nil).Next(make([]Frame, 0, n))
	// Preserve the historical contract: every materialized frame owns a
	// private Params map (cursor-emitted frames share the source's).
	for i := range out {
		out[i].Params = out[i].Params.Clone()
	}
	return out
}

// Cursor generates a Source's stream lazily, batch by batch, so an
// n-frame run holds O(batch) rather than O(n) payload memory. Frames
// are identical to Source.Frames output — same deterministic payload
// pattern, PTS spacing and keyframe cadence — except that every frame
// shares the source's Params map read-only instead of owning a clone.
type Cursor struct {
	format  media.Format
	params  media.Params
	fps     float64
	gop     int
	size    int
	n, next int
	cache   *PayloadCache
}

// Cursor returns a lazy generator for the first n frames, drawing
// payload buffers through cache (nil allocates plainly).
func (s Source) Cursor(n int, cache *PayloadCache) *Cursor {
	gop := s.GOP
	if gop <= 0 {
		gop = 10
	}
	fps := s.Params.Get(media.ParamFrameRate)
	if fps <= 0 {
		fps = 1
	}
	return &Cursor{
		format: s.Format,
		params: s.Params,
		fps:    fps,
		gop:    gop,
		size:   payloadSize(s.Bitrate, s.Params),
		n:      n,
		cache:  cache,
	}
}

// patternPeriod is the modulus of the deterministic payload pattern
// byte((i+j) % patternPeriod). Prime, so the pattern never aligns with
// frame or GOP boundaries.
const patternPeriod = 251

// patternTable holds two full periods of the payload pattern, so any
// phase-shifted period can be block-copied out of it.
var patternTable = func() []byte {
	t := make([]byte, 2*patternPeriod)
	for j := range t {
		t[j] = byte(j % patternPeriod)
	}
	return t
}()

// fillPattern writes payload[j] = byte((off+j) % patternPeriod) using
// block copies instead of a byte-wise modulo loop — the fill is the
// data plane's single largest per-frame cost, so it runs at memcpy
// speed: one phase-shifted period from the table, then doubling.
func fillPattern(payload []byte, off int) {
	off %= patternPeriod
	n := copy(payload, patternTable[off:])
	if n >= len(payload) {
		return
	}
	// Doubling requires the copied prefix to be whole periods.
	n -= n % patternPeriod
	for n < len(payload) {
		n += copy(payload[n:], payload[:n])
	}
}

// Next appends up to cap(dst)-len(dst) frames to dst and returns it.
// An unchanged length signals the stream is exhausted.
func (c *Cursor) Next(dst []Frame) []Frame {
	for len(dst) < cap(dst) && c.next < c.n {
		i := c.next
		var f *Frame
		dst, f = appendSlot(dst)
		f.Seq = i
		f.PTS = float64(i) / c.fps
		f.Format = c.format
		f.Params = c.params
		f.Payload = c.cache.Get(c.size)
		f.Keyframe = i%c.gop == 0
		// A recognizable deterministic pattern (frame index signature)
		// lets tests verify payloads are rewritten, not aliased.
		fillPattern(f.Payload, i)
		c.next++
	}
	return dst
}

// appendSlot extends out by one frame and returns the new slot, reusing
// spare capacity when out has any. The slot may hold a stale frame from
// an earlier batch: callers write every field, in place, rather than
// copying a whole Frame in.
func appendSlot(out []Frame) ([]Frame, *Frame) {
	if n := len(out); n < cap(out) {
		out = out[:n+1]
	} else {
		out = append(out, Frame{})
	}
	return out, &out[len(out)-1]
}

// Remaining reports how many frames the cursor has yet to emit.
func (c *Cursor) Remaining() int { return c.n - c.next }

// Validate checks the source configuration.
func (s Source) Validate() error {
	if err := s.Format.Validate(); err != nil {
		return err
	}
	if s.Params.Get(media.ParamFrameRate) < 0 {
		return fmt.Errorf("transcode: negative frame rate")
	}
	return nil
}
