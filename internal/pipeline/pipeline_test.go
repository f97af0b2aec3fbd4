package pipeline

import (
	"math"
	"strings"
	"testing"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/paperexample"
	"qoschain/internal/satisfaction"
	"qoschain/internal/service"
)

func fpsConfig() core.Config {
	return core.Config{Profile: satisfaction.NewProfile(map[media.Param]satisfaction.Function{
		media.ParamFrameRate: satisfaction.Linear{M: 0, I: 30},
	})}
}

// selectChain builds sender->t1->receiver and selects the chain.
func selectChain(t *testing.T, bwIn, bwOut float64) (*graph.Graph, *core.Result) {
	t.Helper()
	g := graph.NewGraph("s", "r")
	t1 := service.FormatConverter("t1", media.Opaque(1), media.Opaque(2))
	if err := g.AddService(t1); err != nil {
		t.Fatal(err)
	}
	edges := []*graph.Edge{
		{From: graph.SenderID, To: "t1", Format: media.Opaque(1), BandwidthKbps: bwIn,
			SourceParams: media.Params{media.ParamFrameRate: 30}},
		{From: "t1", To: graph.ReceiverID, Format: media.Opaque(2), BandwidthKbps: bwOut},
	}
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := core.Select(g, fpsConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func TestPipelineFullRate(t *testing.T) {
	g, res := selectChain(t, 3000, 3000)
	p, err := FromResult(g, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(300)
	if stats.FramesIn != 300 {
		t.Errorf("FramesIn = %d", stats.FramesIn)
	}
	if stats.FramesOut != 300 {
		t.Errorf("FramesOut = %d, want all 300 at full rate", stats.FramesOut)
	}
	if math.Abs(stats.DeliveredFPS-30) > 1 {
		t.Errorf("DeliveredFPS = %v, want ~30", stats.DeliveredFPS)
	}
}

func TestPipelineBottleneckMatchesSelection(t *testing.T) {
	g, res := selectChain(t, 3000, 1500) // negotiated 15 fps
	p, err := FromResult(g, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(600)
	wantOut := 300 // half of 600 at 15/30 decimation
	if stats.FramesOut < wantOut-3 || stats.FramesOut > wantOut+3 {
		t.Errorf("FramesOut = %d, want ~%d", stats.FramesOut, wantOut)
	}
	// Delivered rate must track the negotiated parameters, not the
	// source rate.
	if math.Abs(stats.DeliveredFPS-res.Params.Get(media.ParamFrameRate)) > 1.5 {
		t.Errorf("DeliveredFPS = %v, negotiated %v", stats.DeliveredFPS, res.Params.Get(media.ParamFrameRate))
	}
	// The shaper, not the links, should absorb the reduction.
	for _, st := range stats.Stages {
		if strings.HasPrefix(st.ID, "link:") && st.Dropped > stats.FramesIn/20 {
			t.Errorf("link %s dropped %d frames; shaping should prevent link loss", st.ID, st.Dropped)
		}
	}
}

func TestPipelineStageAccounting(t *testing.T) {
	g, res := selectChain(t, 3000, 1500)
	p, err := FromResult(g, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(100)
	if len(stats.Stages) != 4 { // shaper, link, t1, link
		t.Fatalf("stages = %d (%v)", len(stats.Stages), stats.Stages)
	}
	ids := make([]string, len(stats.Stages))
	for i, st := range stats.Stages {
		ids[i] = st.ID
	}
	want := []string{"shaper:sender", "link:sender->t1", "t1", "link:t1->receiver"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("stage order = %v, want %v", ids, want)
		}
	}
	shaper := stats.Stages[0]
	if shaper.Consumed != 100 {
		t.Errorf("shaper consumed %d", shaper.Consumed)
	}
	if shaper.Emitted+shaper.Dropped != shaper.Consumed {
		t.Errorf("shaper accounting leak: %+v", shaper)
	}
}

func TestPipelineOverloadedLinkDrops(t *testing.T) {
	// Bypass selection: deliberately oversubscribe a link by asking the
	// shaper for more than the link carries.
	g, res := selectChain(t, 3000, 3000)
	// Manually narrow the exit link after selection negotiated 30 fps.
	for _, e := range g.Out("t1") {
		e.BandwidthKbps = 1000 // carries only ~10 fps
	}
	p, err := FromResult(g, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(300)
	if stats.FramesOut >= 300 {
		t.Errorf("oversubscribed link should drop frames: out=%d", stats.FramesOut)
	}
	var linkDrops int
	for _, st := range stats.Stages {
		if strings.HasPrefix(st.ID, "link:t1") {
			linkDrops = st.Dropped
		}
	}
	if linkDrops == 0 {
		t.Error("the narrow link should report drops")
	}
}

func TestPipelineFromResultErrors(t *testing.T) {
	g, res := selectChain(t, 3000, 3000)
	if _, err := FromResult(g, nil, Options{}); err == nil {
		t.Error("nil result must be rejected")
	}
	if _, err := FromResult(g, &core.Result{}, Options{}); err == nil {
		t.Error("not-found result must be rejected")
	}
	bad := *res
	bad.Formats = nil
	if _, err := FromResult(g, &bad, Options{}); err == nil {
		t.Error("malformed result must be rejected")
	}
	other := graph.NewGraph("s", "r")
	if _, err := FromResult(other, res, Options{}); err == nil {
		t.Error("result from a different graph must be rejected")
	}
}

// TestPipelineRejectsMisWiredChain: a chain whose service does not
// accept the format its upstream sends fails the build, since the
// stages' batched path no longer checks formats frame by frame.
func TestPipelineRejectsMisWiredChain(t *testing.T) {
	g := graph.NewGraph("s", "r")
	t1 := service.FormatConverter("t1", media.Opaque(1), media.Opaque(2))
	if err := g.AddService(t1); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*graph.Edge{
		{From: graph.SenderID, To: "t1", Format: media.Opaque(3), BandwidthKbps: 3000,
			SourceParams: media.Params{media.ParamFrameRate: 30}},
		{From: "t1", To: graph.ReceiverID, Format: media.Opaque(2), BandwidthKbps: 3000},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	res := &core.Result{
		Found:   true,
		Path:    []graph.NodeID{graph.SenderID, "t1", graph.ReceiverID},
		Formats: []media.Format{media.Opaque(3), media.Opaque(2)},
		Params:  media.Params{media.ParamFrameRate: 30},
	}
	_, err := FromResult(g, res, Options{})
	if err == nil || !strings.Contains(err.Error(), "mis-wired") {
		t.Fatalf("FromResult on a mis-wired chain: err = %v, want a mis-wired chain error", err)
	}
}

func TestPipelineOnTable1Chain(t *testing.T) {
	g, err := paperexample.Table1Graph(true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Select(g, paperexample.Table1Config())
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromResult(g, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(900) // 30 seconds of 30 fps source
	// Negotiated 19.85 fps → about 596 of 900 frames.
	negotiated := res.Params.Get(media.ParamFrameRate)
	if math.Abs(stats.DeliveredFPS-negotiated) > 1.5 {
		t.Errorf("DeliveredFPS = %.2f, negotiated %.2f", stats.DeliveredFPS, negotiated)
	}
	if stats.FramesOut == 0 || stats.BytesOut == 0 {
		t.Error("the Table 1 chain must deliver frames")
	}
	if p.StageCount() < 3 {
		t.Errorf("Table 1 chain should have shaper+2 links+service, got %d", p.StageCount())
	}
}

func TestPipelineDeterministic(t *testing.T) {
	g, res := selectChain(t, 3000, 1500)
	p1, err := FromResult(g, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := FromResult(g, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := p1.Run(200), p2.Run(200)
	if s1.FramesOut != s2.FramesOut || s1.BytesOut != s2.BytesOut {
		t.Errorf("pipeline runs must be deterministic: %+v vs %+v", s1, s2)
	}
}

func TestPipelineChainDelay(t *testing.T) {
	g, res := selectChain(t, 3000, 3000)
	// Annotate delays on the edges the chain uses.
	for _, e := range g.Out(graph.SenderID) {
		e.DelayMs = 20
	}
	for _, e := range g.Out("t1") {
		e.DelayMs = 35
	}
	p, err := FromResult(g, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(10)
	if stats.ChainDelayMs != 55 {
		t.Errorf("ChainDelayMs = %v, want 55", stats.ChainDelayMs)
	}
}

func TestPipelineLossyLink(t *testing.T) {
	g, res := selectChain(t, 3000, 3000)
	for _, e := range g.Out("t1") {
		e.LossRate = 0.2
	}
	p, err := FromResult(g, res, Options{LossSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(1000)
	lossFrac := 1 - float64(stats.FramesOut)/float64(stats.FramesIn)
	if lossFrac < 0.15 || lossFrac > 0.25 {
		t.Errorf("loss fraction = %.3f, want ~0.2", lossFrac)
	}
	// Determinism under the same seed.
	p2, err := FromResult(g, res, Options{LossSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Run(1000); got.FramesOut != stats.FramesOut {
		t.Errorf("same seed must reproduce losses: %d vs %d", got.FramesOut, stats.FramesOut)
	}
	// A different seed gives a different (but still ~20%) pattern.
	p3, err := FromResult(g, res, Options{LossSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := p3.Run(1000); got.FramesOut == stats.FramesOut {
		t.Log("different seed coincidentally matched; acceptable but unusual")
	}
}

func TestPipelineLosslessByDefault(t *testing.T) {
	g, res := selectChain(t, 3000, 3000)
	p, err := FromResult(g, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats := p.Run(200); stats.FramesOut != 200 {
		t.Errorf("zero loss rate must not drop frames: %d", stats.FramesOut)
	}
}
