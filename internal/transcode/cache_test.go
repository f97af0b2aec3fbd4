package transcode

import (
	"fmt"
	"testing"

	"qoschain/internal/media"
	"qoschain/internal/service"
)

func TestSameParams(t *testing.T) {
	a := media.Params{media.ParamFrameRate: 30}
	alias := a
	if !sameParams(a, alias) {
		t.Error("a map is not the same as itself")
	}
	if sameParams(a, a.Clone()) {
		t.Error("an equal but distinct map counts as the same")
	}
	if !sameParams(nil, nil) {
		t.Error("nil is not the same as nil")
	}
	if sameParams(nil, media.Params{}) || sameParams(media.Params{}, media.Params{}) {
		t.Error("distinct empty maps count as the same")
	}
}

// element is the part of Stage, KeyframeStage and Shaper the output
// cache test drives.
type element interface {
	Process(Frame) []Frame
	UseCache(*PayloadCache)
}

// oracle recomputes an element's output for every frame from the
// frame's own Params — in.Min(target) and payloadSize, no cache — with
// the same accumulator decimation the elements implement.
type oracle struct {
	target   media.Params
	format   media.Format // zero keeps the input format (the shaper)
	accepts  func(media.Format) bool
	keyframe bool
	credit   float64
	primed   bool
}

func (o *oracle) process(f Frame) (Frame, bool) {
	if o.keyframe && !f.Keyframe || o.accepts != nil && !o.accepts(f.Format) {
		return Frame{}, false
	}
	inFPS, outFPS := f.Params[media.ParamFrameRate], o.target[media.ParamFrameRate]
	if outFPS > 0 && inFPS > outFPS {
		ratio := outFPS / inFPS
		if !o.primed {
			o.credit = 1 - ratio
			o.primed = true
		}
		o.credit += ratio
		if o.credit < 1 {
			return Frame{}, false
		}
		o.credit--
	}
	out := f.Params.Min(o.target)
	format := f.Format
	if !o.format.Zero() {
		format = o.format
	}
	return Frame{Seq: f.Seq, Format: format, Params: out, Payload: make([]byte, payloadSize(nil, out))}, true
}

// TestOutputCacheFollowsParamsValues: the negotiated-output cache is
// keyed on map identity first, but what an element emits must follow
// the values its frames carry, whether the stream shares one map,
// gives every frame an equal but distinct map, or switches values
// mid-stream — with and without a payload cache attached.
func TestOutputCacheFollowsParamsValues(t *testing.T) {
	hi := media.Params{media.ParamFrameRate: 30, media.ParamResolution: 100, media.ParamColorDepth: 24}
	lo := media.Params{media.ParamFrameRate: 20, media.ParamResolution: 60, media.ParamColorDepth: 8}
	streams := map[string]func(i int) media.Params{
		"shared":   func(int) media.Params { return hi },
		"distinct": func(int) media.Params { return hi.Clone() },
		// hi, then lo, then hi again in a fresh map, then alternating.
		"changing": func(i int) media.Params {
			switch {
			case i < 20:
				return hi
			case i < 40:
				return lo
			case i < 60:
				return hi.Clone()
			case i%2 == 0:
				return lo
			default:
				return hi
			}
		},
	}

	svc := &service.Service{
		ID:      "s1",
		Inputs:  []media.Format{media.VideoMPEG1},
		Outputs: []media.Format{media.VideoH263},
		Caps:    media.Params{media.ParamFrameRate: 12, media.ParamResolution: 80},
	}
	stageTarget := media.Params{media.ParamFrameRate: 12, media.ParamResolution: 80}
	kf := service.KeyframeExtractor("k1", media.VideoMPEG1)
	kfTarget := media.Params{media.ParamFrameRate: 1}
	shaperTarget := media.Params{media.ParamFrameRate: 25, media.ParamResolution: 70}

	kinds := map[string]func() (element, *oracle){
		"stage": func() (element, *oracle) {
			st, err := NewStage(svc, media.VideoH263, stageTarget, nil)
			if err != nil {
				t.Fatal(err)
			}
			return st, &oracle{target: stageTarget, format: media.VideoH263, accepts: svc.Accepts}
		},
		"keyframe": func() (element, *oracle) {
			st, err := NewKeyframeStage(kf, media.VideoKeyframes, kfTarget, nil)
			if err != nil {
				t.Fatal(err)
			}
			return st, &oracle{target: kfTarget, format: media.VideoKeyframes, accepts: kf.Accepts, keyframe: true}
		},
		"shaper": func() (element, *oracle) {
			return NewShaper(shaperTarget, nil), &oracle{target: shaperTarget}
		},
	}

	for kind, mk := range kinds {
		for name, params := range streams {
			for _, cached := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/cache=%v", kind, name, cached), func(t *testing.T) {
					el, want := mk()
					var pool *PayloadPool
					if cached {
						pool = NewPayloadPool()
						cache := NewPayloadCache(pool)
						cache.Bind(&PayloadShelves{}, 8)
						defer cache.Flush()
						el.UseCache(cache)
					}
					emitted := 0
					for i := 0; i < 100; i++ {
						p := params(i)
						in := Frame{
							Seq:      i,
							PTS:      float64(i) / 30,
							Format:   media.VideoMPEG1,
							Params:   p,
							Payload:  pool.Get(payloadSize(nil, p)),
							Keyframe: i%5 == 0,
						}
						got := el.Process(in)
						w, ok := want.process(in)
						if !ok {
							if len(got) != 0 {
								t.Fatalf("frame %d: emitted %d frames, oracle drops it", i, len(got))
							}
							continue
						}
						if len(got) != 1 {
							t.Fatalf("frame %d: emitted %d frames, oracle emits one", i, len(got))
						}
						g := got[0]
						if g.Seq != w.Seq || g.Format != w.Format {
							t.Fatalf("frame %d: seq/format %d %s, want %d %s", i, g.Seq, g.Format, w.Seq, w.Format)
						}
						if !g.Params.Equal(w.Params, 0) {
							t.Fatalf("frame %d: params %s, want %s", i, g.Params, w.Params)
						}
						if len(g.Payload) != len(w.Payload) {
							t.Fatalf("frame %d: payload %d B, want %d B", i, len(g.Payload), len(w.Payload))
						}
						emitted++
					}
					if emitted == 0 {
						t.Fatal("the stream emitted nothing; the comparison is vacuous")
					}
				})
			}
		}
	}
}

// TestPayloadCacheShelvesAndFlush: a bound cache recycles through its
// shelves without touching the pool, keeps at most 2·batch buffers per
// class, and leaves the pool's accounting exact after Flush.
func TestPayloadCacheShelvesAndFlush(t *testing.T) {
	pool := NewPayloadPool()
	cache := NewPayloadCache(pool)
	var sh PayloadShelves
	cache.Bind(&sh, 2) // up to 4 buffers per class

	bufs := make([][]byte, 6)
	for i := range bufs {
		bufs[i] = cache.Get(100)
	}
	if pool.Outstanding() != 6 || pool.Misses() != 6 {
		t.Fatalf("cold gets: outstanding %d misses %d, want 6 and 6", pool.Outstanding(), pool.Misses())
	}
	for _, b := range bufs {
		cache.Put(b)
	}
	if sh.Len() != 4 {
		t.Fatalf("shelved %d buffers, want the limit 4", sh.Len())
	}
	if pool.Outstanding() != 4 {
		t.Fatalf("outstanding %d after two overflowed to the pool, want 4", pool.Outstanding())
	}
	// A warm turn: the shelf serves Get without the pool.
	for i := 0; i < 4; i++ {
		cache.Put(cache.Get(120))
	}
	if pool.Misses() != 6 || pool.Outstanding() != 4 {
		t.Fatalf("warm gets reached the pool: misses %d outstanding %d", pool.Misses(), pool.Outstanding())
	}
	cache.Flush()
	if sh.Len() != 0 || pool.Outstanding() != 0 {
		t.Fatalf("after Flush: shelved %d outstanding %d, want 0 and 0", sh.Len(), pool.Outstanding())
	}
	// Unbound, the cache forwards straight to the pool.
	b := cache.Get(100)
	if pool.Outstanding() != 1 || sh.Len() != 0 {
		t.Fatalf("unbound Get: outstanding %d shelved %d", pool.Outstanding(), sh.Len())
	}
	cache.Put(b)
	if pool.Outstanding() != 0 || sh.Len() != 0 {
		t.Fatalf("unbound Put: outstanding %d shelved %d", pool.Outstanding(), sh.Len())
	}
	if NewPayloadCache(nil) != nil {
		t.Error("a cache over a nil pool is not nil")
	}
}
