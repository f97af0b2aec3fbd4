package overlay

import (
	"math"
	"math/rand"
	"testing"

	"qoschain/internal/profile"
)

func TestAddLinkAndLookup(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 10, 0.01)
	bw, delay, loss, ok := n.Link("a", "b")
	if !ok || bw != 1000 || delay != 10 || loss != 0.01 {
		t.Fatalf("Link = %v %v %v %v", bw, delay, loss, ok)
	}
	if _, _, _, ok := n.Link("b", "a"); ok {
		t.Error("AddLink must be directed")
	}
	if !n.HasNode("a") || !n.HasNode("b") {
		t.Error("link endpoints should become nodes")
	}
}

func TestAddDuplexLink(t *testing.T) {
	n := New()
	n.AddDuplexLink("a", "b", 500, 5, 0)
	for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}} {
		if bw, _, _, ok := n.Link(pair[0], pair[1]); !ok || bw != 500 {
			t.Errorf("duplex link %v missing", pair)
		}
	}
}

func TestAvailableBandwidth(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	n.AddLink("b", "c", 400, 0, 0)
	if got := n.AvailableBandwidth("a", "a"); !math.IsInf(got, 1) {
		t.Errorf("co-located bandwidth should be +Inf, got %v", got)
	}
	if got := n.AvailableBandwidth("a", "b"); got != 1000 {
		t.Errorf("direct link = %v, want 1000", got)
	}
	if got := n.AvailableBandwidth("a", "c"); got != 400 {
		t.Errorf("routed bottleneck = %v, want 400", got)
	}
	if got := n.AvailableBandwidth("c", "a"); got != 0 {
		t.Errorf("unreachable = %v, want 0", got)
	}
	if got := n.AvailableBandwidth("a", "nowhere"); got != 0 {
		t.Errorf("unknown host = %v, want 0", got)
	}
}

func TestWidestBandwidthPrefersFatPath(t *testing.T) {
	n := New()
	// Thin direct-ish path a->b->d (min 100), fat path a->c->d (min 800).
	n.AddLink("a", "b", 100, 0, 0)
	n.AddLink("b", "d", 2000, 0, 0)
	n.AddLink("a", "c", 900, 0, 0)
	n.AddLink("c", "d", 800, 0, 0)
	if got := n.WidestBandwidth("a", "d"); got != 800 {
		t.Errorf("widest = %v, want 800", got)
	}
}

func TestSetBandwidth(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	if err := n.SetBandwidth("a", "b", 250); err != nil {
		t.Fatal(err)
	}
	if got := n.AvailableBandwidth("a", "b"); got != 250 {
		t.Errorf("bandwidth after set = %v", got)
	}
	if err := n.SetBandwidth("x", "y", 1); err == nil {
		t.Error("setting unknown link should fail")
	}
}

func TestScaleBandwidth(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	if err := n.ScaleBandwidth("a", "b", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := n.AvailableBandwidth("a", "b"); got != 500 {
		t.Errorf("scaled bandwidth = %v", got)
	}
	if err := n.ScaleBandwidth("x", "y", 2); err == nil {
		t.Error("scaling unknown link should fail")
	}
}

// TestRemoveLinkNotifies checks that a removal is announced through the
// generation graph caches watch, and that a second removal is a no-op.
func TestRemoveLinkNotifies(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	before := n.Generation()
	n.RemoveLink("a", "b")
	if n.Generation() == before {
		t.Error("removal must bump the generation")
	}
	if got := n.AvailableBandwidth("a", "b"); got != 0 {
		t.Errorf("bandwidth after removal = %v", got)
	}
	// Removing again changes nothing.
	after := n.Generation()
	n.RemoveLink("a", "b")
	if n.Generation() != after {
		t.Error("second removal should not bump the generation")
	}
}

func TestHopCount(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1, 0, 0)
	n.AddLink("b", "c", 1, 0, 0)
	n.AddLink("a", "c", 1, 0, 0)
	if got := n.HopCount("a", "c"); got != 1 {
		t.Errorf("HopCount(a,c) = %d, want 1", got)
	}
	if got := n.HopCount("a", "a"); got != 0 {
		t.Errorf("HopCount(a,a) = %d, want 0", got)
	}
	if got := n.HopCount("c", "a"); got != -1 {
		t.Errorf("HopCount(c,a) = %d, want -1", got)
	}
}

func TestMinDelayPath(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1, 10, 0)
	n.AddLink("b", "c", 1, 10, 0)
	n.AddLink("a", "c", 1, 50, 0)
	path, delay, ok := n.MinDelayPath("a", "c")
	if !ok {
		t.Fatal("path should exist")
	}
	if delay != 20 {
		t.Errorf("delay = %v, want 20 (via b)", delay)
	}
	if len(path) != 3 || path[0] != "a" || path[1] != "b" || path[2] != "c" {
		t.Errorf("path = %v", path)
	}
	if _, _, ok := n.MinDelayPath("c", "a"); ok {
		t.Error("reverse path should not exist")
	}
	self, d, ok := n.MinDelayPath("a", "a")
	if !ok || d != 0 || len(self) != 1 {
		t.Errorf("self path = %v %v %v", self, d, ok)
	}
}

func TestFromProfileAndSnapshotRoundTrip(t *testing.T) {
	p := profile.Network{Links: []profile.Link{
		{From: "a", To: "b", BandwidthKbps: 1000, DelayMs: 10, LossRate: 0.01},
		{From: "b", To: "c", BandwidthKbps: 500},
	}}
	n, err := FromProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	if len(snap.Links) != 2 {
		t.Fatalf("snapshot links = %d", len(snap.Links))
	}
	if snap.Links[0].From != "a" || snap.Links[0].BandwidthKbps != 1000 {
		t.Errorf("snapshot[0] = %+v", snap.Links[0])
	}
	if _, err := FromProfile(profile.Network{Links: []profile.Link{{From: "a", To: "a", BandwidthKbps: 1}}}); err == nil {
		t.Error("invalid profile should be rejected")
	}
}

func TestTopologyGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	spec := DefaultLinkSpec
	line := Line(3, spec, rng)
	if got := line.HopCount("sender", "receiver"); got != 4 {
		t.Errorf("line hop count = %d, want 4", got)
	}
	star := Star(5, spec, rng)
	if got := star.HopCount("sender", ProxyName(3)); got != 2 {
		t.Errorf("star hop count = %d, want 2", got)
	}
	random := Random(10, 3, spec, rng)
	if got := random.HopCount("sender", "receiver"); got < 1 {
		t.Errorf("random topology must connect sender to receiver, hops=%d", got)
	}
	mesh := FullMesh(4, spec, rng)
	if got := mesh.HopCount("sender", "receiver"); got != 1 {
		t.Errorf("mesh hop count = %d, want 1", got)
	}
	// Determinism: same seed, same topology.
	a := Random(6, 2.5, spec, rand.New(rand.NewSource(7)))
	b := Random(6, 2.5, spec, rand.New(rand.NewSource(7)))
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa.Links) != len(sb.Links) {
		t.Fatal("same seed must give same link count")
	}
	for i := range sa.Links {
		if sa.Links[i] != sb.Links[i] {
			t.Fatalf("same seed must give identical links: %+v vs %+v", sa.Links[i], sb.Links[i])
		}
	}
}

func TestTraceAppliesInOrder(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	tr := NewTrace(n, []TraceEvent{
		{AtStep: 2, From: "a", To: "b", BandwidthKbps: 500},
		{AtStep: 1, From: "a", To: "b", BandwidthKbps: 800},
		{AtStep: 3, From: "a", To: "b", BandwidthKbps: -1},
	})
	if applied := tr.Step(); len(applied) != 1 || applied[0].BandwidthKbps != 800 {
		t.Fatalf("step 1 applied %v", applied)
	}
	if got := n.AvailableBandwidth("a", "b"); got != 800 {
		t.Errorf("after step 1 bandwidth = %v", got)
	}
	tr.Step()
	if got := n.AvailableBandwidth("a", "b"); got != 500 {
		t.Errorf("after step 2 bandwidth = %v", got)
	}
	if tr.Done() {
		t.Error("trace should not be done before last event")
	}
	tr.Step()
	if got := n.AvailableBandwidth("a", "b"); got != 0 {
		t.Errorf("after removal bandwidth = %v", got)
	}
	if !tr.Done() || tr.CurrentStep() != 3 {
		t.Errorf("trace should be done at step 3, step=%d", tr.CurrentStep())
	}
}

func TestTraceIgnoresUnknownLinks(t *testing.T) {
	n := New()
	tr := NewTrace(n, []TraceEvent{{AtStep: 1, From: "x", To: "y", BandwidthKbps: 10}})
	if applied := tr.Step(); len(applied) != 1 {
		t.Error("event should still be reported as applied")
	}
}

func TestRandomWalkBounds(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	w, err := NewRandomWalk(n, rand.New(rand.NewSource(1)), 0.5, 200, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		w.Step()
		bw := n.AvailableBandwidth("a", "b")
		if bw < 200 || bw > 2000 {
			t.Fatalf("walk escaped bounds: %v", bw)
		}
	}
	if _, err := NewRandomWalk(n, rand.New(rand.NewSource(1)), 1.5, 0, 1); err == nil {
		t.Error("amplitude >= 1 should fail")
	}
	if _, err := NewRandomWalk(n, rand.New(rand.NewSource(1)), 0.5, 10, 5); err == nil {
		t.Error("cap below floor should fail")
	}
}

func TestNodesSorted(t *testing.T) {
	n := New()
	n.AddNode("zeta")
	n.AddLink("alpha", "mid", 1, 0, 0)
	nodes := n.Nodes()
	if len(nodes) != 3 || nodes[0] != "alpha" || nodes[1] != "mid" || nodes[2] != "zeta" {
		t.Errorf("Nodes = %v", nodes)
	}
}

func TestReserveAndRelease(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	if err := n.Reserve("a", "b", 600); err != nil {
		t.Fatal(err)
	}
	if got := n.AvailableBandwidth("a", "b"); got != 400 {
		t.Errorf("available after reserve = %v, want 400", got)
	}
	cap, reserved, ok := n.Capacity("a", "b")
	if !ok || cap != 1000 || reserved != 600 {
		t.Errorf("Capacity = %v/%v/%v", cap, reserved, ok)
	}
	if err := n.Reserve("a", "b", 500); err == nil {
		t.Error("over-reservation must fail")
	}
	n.Release("a", "b", 600)
	if got := n.AvailableBandwidth("a", "b"); got != 1000 {
		t.Errorf("available after release = %v, want 1000", got)
	}
}

func TestReserveErrors(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	if err := n.Reserve("a", "b", -1); err == nil {
		t.Error("non-positive reservation must fail")
	}
	if err := n.Reserve("x", "y", 10); err == nil {
		t.Error("unknown link must fail")
	}
	// Over-release clamps at zero rather than going negative.
	n.Release("a", "b", 500)
	if got := n.AvailableBandwidth("a", "b"); got != 1000 {
		t.Errorf("over-release should clamp, available = %v", got)
	}
	n.Release("x", "y", 1) // unknown link: no panic
}

func TestReserveSurvivesFluctuation(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	if err := n.Reserve("a", "b", 800); err != nil {
		t.Fatal(err)
	}
	// Capacity collapses below the reservation: available clamps to 0.
	if err := n.SetBandwidth("a", "b", 500); err != nil {
		t.Fatal(err)
	}
	if got := n.AvailableBandwidth("a", "b"); got != 0 {
		t.Errorf("available = %v, want 0 (capacity below reservation)", got)
	}
	// Recovery restores the remainder.
	if err := n.SetBandwidth("a", "b", 1000); err != nil {
		t.Fatal(err)
	}
	if got := n.AvailableBandwidth("a", "b"); got != 200 {
		t.Errorf("available = %v, want 200", got)
	}
}

func TestWidestPathRespectsReservations(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	n.AddLink("b", "c", 1000, 0, 0)
	if err := n.Reserve("b", "c", 700); err != nil {
		t.Fatal(err)
	}
	if got := n.WidestBandwidth("a", "c"); got != 300 {
		t.Errorf("widest = %v, want 300 after reservation", got)
	}
}

func TestDiurnalCycle(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	d, err := NewDiurnal(n, rand.New(rand.NewSource(1)), 8, 0.4, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]float64, 0, 8)
	for i := 0; i < 8; i++ {
		d.Step()
		seen = append(seen, n.AvailableBandwidth("a", "b"))
	}
	// The dip bottoms out mid-period at base*(1-depth) = 600.
	min := seen[0]
	for _, v := range seen {
		if v < min {
			min = v
		}
	}
	if math.Abs(min-600) > 1 {
		t.Errorf("busy-hour floor = %v, want ~600", min)
	}
	// End of the period returns to the baseline.
	if math.Abs(seen[7]-1000) > 1 {
		t.Errorf("off-peak = %v, want ~1000", seen[7])
	}
	if d.CurrentStep() != 8 {
		t.Errorf("step = %d", d.CurrentStep())
	}
}

func TestDiurnalNoiseBounded(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	d, err := NewDiurnal(n, rand.New(rand.NewSource(2)), 10, 0.3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		d.Step()
		bw := n.AvailableBandwidth("a", "b")
		if bw < 1000*0.7*0.95-1 || bw > 1000*1.05+1 {
			t.Fatalf("noise escaped bounds: %v", bw)
		}
	}
}

func TestDiurnalValidation(t *testing.T) {
	n := New()
	rng := rand.New(rand.NewSource(1))
	if _, err := NewDiurnal(n, rng, 1, 0.4, 0); err == nil {
		t.Error("period < 2 should fail")
	}
	if _, err := NewDiurnal(n, rng, 8, 1.5, 0); err == nil {
		t.Error("depth >= 1 should fail")
	}
	if _, err := NewDiurnal(n, rng, 8, 0.4, 1.5); err == nil {
		t.Error("noise >= 1 should fail")
	}
}

func TestPreferentialAttachment(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := PreferentialAttachment(20, 2, DefaultLinkSpec, rng)
	if !net.HasNode("sender") || !net.HasNode("receiver") {
		t.Fatal("endpoints must exist")
	}
	if got := net.HopCount("sender", "receiver"); got < 1 {
		t.Errorf("sender must reach receiver, hops = %d", got)
	}
	// Scale-free shape: the maximum degree should clearly exceed the
	// attachment parameter m.
	degree := map[string]int{}
	for _, l := range net.Snapshot().Links {
		degree[l.From]++
	}
	max := 0
	for _, d := range degree {
		if d > max {
			max = d
		}
	}
	if max < 5 {
		t.Errorf("expected a hub with degree >= 5, max = %d", max)
	}
	// Determinism.
	a := PreferentialAttachment(10, 2, DefaultLinkSpec, rand.New(rand.NewSource(3)))
	b := PreferentialAttachment(10, 2, DefaultLinkSpec, rand.New(rand.NewSource(3)))
	if a.LinkCount() != b.LinkCount() {
		t.Error("same seed must give the same topology")
	}
}
