package transcode

import (
	"bytes"
	"testing"

	"qoschain/internal/media"
	"qoschain/internal/service"
)

// TestCursorMatchesFrames: the lazy batch iterator must emit exactly the
// stream Frames materializes — same sequence numbers, timestamps,
// keyframe cadence, parameters and payload bytes — regardless of the
// batch size it is drained with.
func TestCursorMatchesFrames(t *testing.T) {
	src := Source{
		Format: media.VideoMPEG1,
		Params: media.Params{media.ParamFrameRate: 30},
		GOP:    7,
	}
	want := src.Frames(100)
	for _, batch := range []int{1, 3, 32, 100, 1000} {
		cur := src.Cursor(100, nil)
		var got []Frame
		for {
			b := cur.Next(make([]Frame, 0, batch))
			if len(b) == 0 {
				break
			}
			got = append(got, b...)
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d frames, want %d", batch, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.Seq != w.Seq || g.PTS != w.PTS || g.Keyframe != w.Keyframe || g.Format != w.Format {
				t.Fatalf("batch %d frame %d: header %+v != %+v", batch, i, g, w)
			}
			if !bytes.Equal(g.Payload, w.Payload) {
				t.Fatalf("batch %d frame %d: payload differs", batch, i)
			}
			if !g.Params.Equal(w.Params, 0) {
				t.Fatalf("batch %d frame %d: params %v != %v", batch, i, g.Params, w.Params)
			}
		}
		if cur.Remaining() != 0 {
			t.Errorf("batch %d: Remaining = %d after drain", batch, cur.Remaining())
		}
	}
}

// TestCursorPoolRecycling: a cursor drawing from a pool must reuse
// returned buffers instead of allocating per batch.
func TestCursorPoolRecycling(t *testing.T) {
	src := Source{Format: media.VideoMPEG1, Params: media.Params{media.ParamFrameRate: 30}}
	pool := NewPayloadPool()
	cur := src.Cursor(300, NewPayloadCache(pool))
	buf := make([]Frame, 0, 10)
	for {
		b := cur.Next(buf[:0])
		if len(b) == 0 {
			break
		}
		for _, f := range b {
			pool.Put(f.Payload)
		}
		buf = b
	}
	// First batch misses (cold pool); every later Get must hit.
	if m := pool.Misses(); m > 10 {
		t.Errorf("pool misses = %d over 300 frames; recycling is not happening", m)
	}
}

func TestPayloadPoolClasses(t *testing.T) {
	p := NewPayloadPool()
	b := p.Get(100) // class 7 → cap 128
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("Get(100): len %d cap %d", len(b), cap(b))
	}
	p.Put(b)
	b2 := p.Get(120) // same class: must reuse
	if cap(b2) != 128 {
		t.Errorf("Get(120) after Put: cap %d, want recycled 128", cap(b2))
	}
	if p.Misses() != 1 {
		t.Errorf("misses = %d, want 1 (only the cold Get)", p.Misses())
	}
	// A smaller request must not get the big buffer back as undersized.
	p.Put(b2)
	small := p.Get(8) // class floor is 64 B
	if len(small) != 8 || cap(small) < 64 {
		t.Errorf("Get(8): len %d cap %d", len(small), cap(small))
	}
	// Foreign buffers with odd capacities floor into a class they can
	// actually serve.
	p.Put(make([]byte, 0, 200)) // floors to class 7 (128): cap 200 >= 128 ok
	got := p.Get(128)
	if cap(got) != 200 {
		t.Errorf("foreign buffer not recycled: cap %d", cap(got))
	}
}

func TestPayloadPoolNilSafe(t *testing.T) {
	var p *PayloadPool
	b := p.Get(64)
	if len(b) != 64 {
		t.Fatalf("nil pool Get(64) len = %d", len(b))
	}
	p.Put(b) // must not panic
	if p.Misses() != 0 {
		t.Error("nil pool reports misses")
	}
	if got := (*PayloadPool)(nil).Get(0); got != nil {
		t.Error("Get(0) should be nil")
	}
}

// TestProcessAppendMatchesProcess: the batch entry point must be
// behaviorally identical to the legacy per-frame Process, for both a
// stage and a shaper.
func TestProcessAppendMatchesProcess(t *testing.T) {
	mk := func() (*Stage, *Stage) {
		svc := service.FrameRateReducer("r1", media.VideoMPEG1, 10)
		target := media.Params{media.ParamFrameRate: 10}
		out := svc.Outputs[0]
		a, err := NewStage(svc, out, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewStage(svc, out, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	one, batch := mk()
	src := Source{Format: media.VideoMPEG1, Params: media.Params{media.ParamFrameRate: 30}}
	frames := src.Frames(60)

	var wantOut, gotOut []Frame
	for _, f := range frames {
		wantOut = append(wantOut, one.Process(f)...)
	}
	for _, f := range frames {
		gotOut = batch.ProcessAppend(&f, gotOut)
	}
	if len(wantOut) != len(gotOut) {
		t.Fatalf("ProcessAppend emitted %d frames, Process %d", len(gotOut), len(wantOut))
	}
	for i := range wantOut {
		if wantOut[i].Seq != gotOut[i].Seq || !bytes.Equal(wantOut[i].Payload, gotOut[i].Payload) {
			t.Fatalf("frame %d differs", i)
		}
	}
	c1, e1, d1 := one.Counters()
	c2, e2, d2 := batch.Counters()
	if c1 != c2 || e1 != e2 || d1 != d2 {
		t.Errorf("counters diverge: %d/%d/%d vs %d/%d/%d", c1, e1, d1, c2, e2, d2)
	}
}

// TestPooledStageOutputIdentical: attaching a pool (recycled buffers,
// zero-copy rewrites) must not change a single emitted byte relative to
// the unpooled path.
func TestPooledStageOutputIdentical(t *testing.T) {
	svc := service.FormatConverter("c1", media.VideoMPEG1, media.VideoH263)
	target := media.Params{media.ParamFrameRate: 30}
	mk := func(pool *PayloadPool) []Frame {
		st, err := NewStage(svc, media.VideoH263, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewPayloadCache(pool)
		st.UseCache(cache)
		src := Source{Format: media.VideoMPEG1, Params: media.Params{media.ParamFrameRate: 30}}
		cur := src.Cursor(50, cache)
		var out []Frame
		buf := make([]Frame, 0, 8)
		for {
			b := cur.Next(buf[:0])
			if len(b) == 0 {
				break
			}
			for i := range b {
				out = st.ProcessAppend(&b[i], out)
			}
			buf = b[:0]
		}
		return out
	}
	plain := mk(nil)
	pooled := mk(NewPayloadPool())
	if len(plain) != len(pooled) {
		t.Fatalf("pooled emitted %d frames, plain %d", len(pooled), len(plain))
	}
	for i := range plain {
		if !bytes.Equal(plain[i].Payload, pooled[i].Payload) {
			t.Fatalf("frame %d: pooled payload differs from plain", i)
		}
	}
}

// TestShaperProcessAppendMatchesProcess mirrors the stage check for the
// sender-side shaper.
func TestShaperProcessAppendMatchesProcess(t *testing.T) {
	target := media.Params{media.ParamFrameRate: 15}
	a := NewShaper(target, nil)
	b := NewShaper(target, nil)
	src := Source{Format: media.VideoMPEG1, Params: media.Params{media.ParamFrameRate: 30}}
	frames := src.Frames(40)
	var wantOut, gotOut []Frame
	for _, f := range frames {
		wantOut = append(wantOut, a.Process(f)...)
	}
	for _, f := range frames {
		gotOut = b.ProcessAppend(&f, gotOut)
	}
	if len(wantOut) != len(gotOut) {
		t.Fatalf("shaper ProcessAppend emitted %d, Process %d", len(gotOut), len(wantOut))
	}
	for i := range wantOut {
		if !bytes.Equal(wantOut[i].Payload, gotOut[i].Payload) {
			t.Fatalf("frame %d differs", i)
		}
	}
}
