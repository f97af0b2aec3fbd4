package overlay

import (
	"math"
	"testing"
)

func failoverNet() *Network {
	n := New()
	n.AddLink("s", "a", 1000, 5, 0)
	n.AddLink("a", "r", 1000, 5, 0)
	n.AddLink("s", "b", 500, 5, 0)
	n.AddLink("b", "r", 500, 5, 0)
	return n
}

func TestFailHostHidesLinks(t *testing.T) {
	n := failoverNet()
	if err := n.FailHost("a"); err != nil {
		t.Fatal(err)
	}
	if !n.HostDown("a") {
		t.Error("a should be down")
	}
	if _, _, _, ok := n.Link("s", "a"); ok {
		t.Error("link to a down host must not be usable")
	}
	if bw := n.AvailableBandwidth("s", "a"); bw != 0 {
		t.Errorf("bandwidth to down host = %v", bw)
	}
	// Routing around the crash still works via b.
	if bw := n.AvailableBandwidth("s", "r"); bw != 500 {
		t.Errorf("routed bandwidth = %v, want 500 via b", bw)
	}
	if hops := n.HopCount("s", "a"); hops != -1 {
		t.Errorf("hop count to down host = %d", hops)
	}
	if _, _, ok := n.MinDelayPath("s", "a"); ok {
		t.Error("min-delay path to down host must fail")
	}
}

func TestRecoverHostRestoresState(t *testing.T) {
	n := failoverNet()
	if err := n.Reserve("s", "a", 200); err != nil {
		t.Fatal(err)
	}
	if err := n.FailHost("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.RecoverHost("a"); err != nil {
		t.Fatal(err)
	}
	bw, delay, _, ok := n.Link("s", "a")
	if !ok || bw != 800 || delay != 5 {
		t.Errorf("recovered link = %v/%v/%v, want 800 kbps, 5 ms", bw, delay, ok)
	}
}

func TestFailHostErrors(t *testing.T) {
	n := failoverNet()
	if err := n.FailHost("nope"); err == nil {
		t.Error("unknown host must error")
	}
	if err := n.RecoverHost("a"); err == nil {
		t.Error("recovering a healthy host must error")
	}
	if err := n.FailHost("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.FailHost("a"); err == nil {
		t.Error("double crash must error")
	}
}

func TestFailLinkFlap(t *testing.T) {
	n := failoverNet()
	if err := n.FailLink("s", "a"); err != nil {
		t.Fatal(err)
	}
	if !n.LinkDown("s", "a") {
		t.Error("link should be down")
	}
	if _, _, _, ok := n.Link("s", "a"); ok {
		t.Error("down link must not be usable")
	}
	if err := n.Reserve("s", "a", 100); err == nil {
		t.Error("reserving a down link must fail")
	}
	// The host itself is fine; a->r still works.
	if _, _, _, ok := n.Link("a", "r"); !ok {
		t.Error("sibling link must stay up")
	}
	if err := n.RecoverLink("s", "a"); err != nil {
		t.Fatal(err)
	}
	bw, _, _, ok := n.Link("s", "a")
	if !ok || bw != 1000 {
		t.Errorf("recovered link = %v (%v), want 1000", bw, ok)
	}
}

func TestSetLossAndDelay(t *testing.T) {
	n := failoverNet()
	if err := n.SetLoss("s", "a", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := n.SetDelay("s", "a", 90); err != nil {
		t.Fatal(err)
	}
	_, delay, loss, ok := n.Link("s", "a")
	if !ok || loss != 0.25 || delay != 90 {
		t.Errorf("link after spikes = delay %v loss %v (%v)", delay, loss, ok)
	}
	if err := n.SetLoss("s", "a", 1.5); err == nil {
		t.Error("loss above 1 must error")
	}
	if err := n.SetDelay("s", "a", -1); err == nil {
		t.Error("negative delay must error")
	}
	if err := n.SetLoss("x", "y", 0.1); err == nil {
		t.Error("unknown link must error")
	}
}

func TestSnapshotExcludesDown(t *testing.T) {
	n := failoverNet()
	if err := n.FailHost("b"); err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	for _, l := range snap.Links {
		if l.From == "b" || l.To == "b" {
			t.Errorf("snapshot leaked down-host link %s->%s", l.From, l.To)
		}
	}
	if len(snap.Links) != 2 {
		t.Errorf("snapshot links = %d, want 2", len(snap.Links))
	}
}

func TestGenerationBumpsOnFailure(t *testing.T) {
	n := failoverNet()
	g0 := n.Generation()
	if err := n.FailHost("a"); err != nil {
		t.Fatal(err)
	}
	if n.Generation() == g0 {
		t.Error("FailHost must bump the generation")
	}
	g1 := n.Generation()
	if err := n.RecoverHost("a"); err != nil {
		t.Fatal(err)
	}
	if n.Generation() == g1 {
		t.Error("RecoverHost must bump the generation")
	}
}

func TestWidestAvoidsDownHost(t *testing.T) {
	n := New()
	n.AddLink("s", "a", 9000, 1, 0)
	n.AddLink("a", "r", 9000, 1, 0)
	n.AddLink("s", "b", 300, 1, 0)
	n.AddLink("b", "r", 300, 1, 0)
	if bw := n.WidestBandwidth("s", "r"); bw != 9000 {
		t.Fatalf("widest = %v, want 9000", bw)
	}
	if err := n.FailHost("a"); err != nil {
		t.Fatal(err)
	}
	if bw := n.WidestBandwidth("s", "r"); bw != 300 {
		t.Errorf("widest after crash = %v, want 300 via b", bw)
	}
	if err := n.FailHost("b"); err != nil {
		t.Fatal(err)
	}
	if bw := n.WidestBandwidth("s", "r"); bw != 0 {
		t.Errorf("widest after total crash = %v, want 0", bw)
	}
	if bw := n.AvailableBandwidth("s", "s"); !math.IsInf(bw, 1) {
		t.Errorf("co-located bandwidth = %v, want +Inf", bw)
	}
}
