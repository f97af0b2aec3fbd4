package transcode

import (
	"fmt"
	"unsafe"

	"qoschain/internal/media"
	"qoschain/internal/service"
)

// transcoder is the per-frame core a Stage and the sender-side Shaper
// share: frame-rate decimation, the negotiated-output cache, payload
// re-encoding and the frame counters.
type transcoder struct {
	target media.Params
	outFPS float64 // target frame rate, read once at construction
	model  media.BitrateModel
	cache  *PayloadCache

	// frame-rate decimation state: classic accumulator thinning. The
	// accumulator is primed on the first frame so the stream starts
	// immediately and stays evenly spaced.
	credit float64
	primed bool

	// Negotiated-output cache: every frame of one stream carries the
	// same parameters, so the per-frame Min (a map allocation), the
	// bitrate-model evaluation and the input frame-rate lookup are done
	// once and reused until the input assignment actually changes.
	// Emitted frames share cachedOut read-only — the pipeline's
	// ownership rules (DESIGN §12) forbid mutating a frame's Params in
	// flight.
	cached      bool
	cachedIn    media.Params
	cachedInFPS float64
	cachedOut   media.Params
	cachedSize  int

	consumed int
	emitted  int
	dropped  int
}

func newTranscoder(target media.Params, model media.BitrateModel) transcoder {
	target = target.Clone()
	return transcoder{target: target, outFPS: target.Get(media.ParamFrameRate), model: model}
}

// sameParams reports whether a and b are the same map (both nil
// counts): one pointer comparison, where Equal walks both maps.
func sameParams(a, b media.Params) bool {
	return *(*unsafe.Pointer)(unsafe.Pointer(&a)) == *(*unsafe.Pointer)(unsafe.Pointer(&b))
}

// outputFor brings the output cache up to date for frames carrying in.
// A frame whose Params is the very map the cache last saw hits with one
// pointer comparison; since Params are never mutated in flight, that
// map still holds the values the cache was filled from. A different map
// pays the value comparison and, only when the values differ, the
// recomputation. Either way the cache holds exactly what in.Min(target)
// and payloadSize would give for this frame.
func (t *transcoder) outputFor(in media.Params) {
	if t.cached && sameParams(in, t.cachedIn) {
		return
	}
	if !t.cached || !in.Equal(t.cachedIn, 0) {
		t.cachedInFPS = in.Get(media.ParamFrameRate)
		t.cachedOut = in.Min(t.target)
		t.cachedSize = payloadSize(t.model, t.cachedOut)
		t.cached = true
	}
	// Equal values in a new map: remember the map, so the rest of its
	// stream hits on identity. cachedOut stays the same map, which keeps
	// the next element's cache hitting on identity too.
	t.cachedIn = in
}

// rewrite re-encodes src into a payload of the given size. With a cache
// attached and an unchanged size the rewrite would copy src verbatim,
// so the buffer is handed through zero-copy instead; otherwise a fresh
// buffer is filled and src is recycled.
func (t *transcoder) rewrite(src []byte, size int) []byte {
	if t.cache != nil && size == len(src) {
		return src
	}
	dst := t.cache.Get(size)
	n := copy(dst, src)
	fillPattern(dst[n:], n)
	t.cache.Put(src)
	return dst
}

// emit thins f to the target frame rate and appends its re-encoded form,
// in format, to out; a decimated frame's payload is recycled. The
// caller has counted f consumed.
func (t *transcoder) emit(f *Frame, format media.Format, out []Frame) []Frame {
	t.outputFor(f.Params)
	if inFPS := t.cachedInFPS; t.outFPS > 0 && inFPS > t.outFPS {
		// Accumulator decimation: forward outFPS out of every inFPS
		// frames, evenly spread, starting with the first frame.
		ratio := t.outFPS / inFPS
		if !t.primed {
			t.credit = 1 - ratio
			t.primed = true
		}
		t.credit += ratio
		if t.credit < 1 {
			t.dropped++
			t.cache.Put(f.Payload)
			return out
		}
		t.credit--
	}
	payload := t.rewrite(f.Payload, t.cachedSize)
	t.emitted++
	out, o := appendSlot(out)
	o.Seq = f.Seq
	o.PTS = f.PTS
	o.Format = format
	o.Params = t.cachedOut
	o.Payload = payload
	o.Keyframe = f.Keyframe
	return out
}

// UseCache attaches a payload cache: output buffers come through it,
// consumed input buffers return through it, and a re-encode that would
// reproduce the input byte-for-byte (same payload size) passes the
// buffer through zero-copy. Only attach one when the caller owns every
// frame handed to Process — the pipeline does; direct users normally
// should not.
func (t *transcoder) UseCache(c *PayloadCache) { t.cache = c }

// Counters reports consumed/emitted/dropped frame counts.
func (t *transcoder) Counters() (consumed, emitted, dropped int) {
	return t.consumed, t.emitted, t.dropped
}

// Stage is an executable trans-coding stage: the runtime realization of
// one service.Service vertex on a selected chain. It rewrites frame
// formats, applies the service's quality transfer (capping parameters at
// the negotiated targets) and thins the frame stream when the target
// frame rate is below the input rate.
type Stage struct {
	transcoder
	svc *service.Service
	out media.Format
}

// NewStage builds a stage for svc emitting outFormat at the negotiated
// target parameters (from the selection result). outFormat must be one of
// the service's advertised outputs, and targets must not exceed the
// service's caps.
func NewStage(svc *service.Service, outFormat media.Format, target media.Params, model media.BitrateModel) (*Stage, error) {
	if svc == nil {
		return nil, fmt.Errorf("transcode: nil service")
	}
	if !svc.Produces(outFormat) {
		return nil, fmt.Errorf("transcode: service %s does not produce %s", svc.ID, outFormat)
	}
	applied := target.Min(svc.Caps)
	if !applied.Equal(target, 1e-9) {
		return nil, fmt.Errorf("transcode: target %s exceeds caps of service %s", target, svc.ID)
	}
	return &Stage{transcoder: newTranscoder(target, model), svc: svc, out: outFormat}, nil
}

// Process consumes one frame and returns the trans-coded output frames
// (zero when the frame is decimated away by frame-rate reduction, or
// dropped because the service does not accept its format).
func (s *Stage) Process(f Frame) []Frame {
	if !s.svc.Accepts(f.Format) {
		s.reject(&f)
		return nil
	}
	out := s.ProcessAppend(&f, nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// ProcessAppend trans-codes *f, appending any output to out and
// returning it. It is the allocation-free form the batched pipeline
// drives: f points into the input batch, out is a reused batch buffer
// whose new slot is written in place, and with a cache attached the
// payload traffic recycles instead of allocating. Unlike Process it does
// not check the frame's format: the pipeline checks once, when it builds
// the chain, that every stage accepts its upstream's format, so each
// frame reaching a stage carries one.
func (s *Stage) ProcessAppend(f *Frame, out []Frame) []Frame {
	s.consumed++
	return s.emit(f, s.out, out)
}

// reject drops a frame whose format the service does not accept: a
// frame handed to Process by a mis-wired caller is dropped rather than
// corrupted.
func (s *Stage) reject(f *Frame) {
	s.consumed++
	s.dropped++
	s.cache.Put(f.Payload)
}

// Service returns the stage's service description.
func (s *Stage) Service() *service.Service { return s.svc }

// OutputFormat returns the format the stage emits.
func (s *Stage) OutputFormat() media.Format { return s.out }

// KeyframeStage is a specialization for video→keyframe extraction: only
// intra frames survive.
type KeyframeStage struct {
	Stage
}

// NewKeyframeStage wraps svc (typically service.KeyframeExtractor).
func NewKeyframeStage(svc *service.Service, outFormat media.Format, target media.Params, model media.BitrateModel) (*KeyframeStage, error) {
	st, err := NewStage(svc, outFormat, target, model)
	if err != nil {
		return nil, err
	}
	return &KeyframeStage{Stage: *st}, nil
}

// Process forwards only keyframes, then applies the base trans-coding.
func (k *KeyframeStage) Process(f Frame) []Frame {
	if !k.svc.Accepts(f.Format) {
		k.reject(&f)
		return nil
	}
	out := k.ProcessAppend(&f, nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// ProcessAppend forwards only keyframes, then applies the base
// trans-coding; like Stage.ProcessAppend it leaves the format check to
// the chain's build.
func (k *KeyframeStage) ProcessAppend(f *Frame, out []Frame) []Frame {
	if !f.Keyframe {
		k.consumed++
		k.dropped++
		k.cache.Put(f.Payload)
		return out
	}
	return k.Stage.ProcessAppend(f, out)
}
