package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunChaosSeedOneStory pins EXT-J: under seed 1 the session rides
// out every fault healthy, detouring T7→T8 each time T7 is lost (p7
// crashes at t=7 and t=34, t7 deregisters at t=21) and climbing back
// once it returns.
func TestRunChaosSeedOneStory(t *testing.T) {
	rep, err := RunChaos(ChaosSpec{Seed: 1, Steps: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("chaos contract broken: %+v", rep)
	}
	if rep.Initial.Chain != "sender,T7,receiver" {
		t.Errorf("initial chain = %s", rep.Initial.Chain)
	}
	var swaps []string
	for _, s := range rep.Timeline {
		if s.Recomposed {
			swaps = append(swaps, fmt.Sprintf("t=%d %s", s.Step, s.Chain))
		}
	}
	want := []string{
		"t=7 sender,T8,receiver", "t=10 sender,T7,receiver",
		"t=21 sender,T8,receiver", "t=24 sender,T7,receiver",
		"t=34 sender,T8,receiver", "t=39 sender,T7,receiver",
	}
	if strings.Join(swaps, "; ") != strings.Join(want, "; ") {
		t.Errorf("chain swaps:\n got %v\nwant %v", swaps, want)
	}
	if rep.Healthy != 40 || rep.Outages != 0 || rep.Recompositions != 6 {
		t.Errorf("healthy=%d outages=%d recompositions=%d, want 40, 0, 6",
			rep.Healthy, rep.Outages, rep.Recompositions)
	}
	if rep.NaiveChecks == 0 {
		t.Error("the naive equivalence check never ran")
	}
}

// TestRunChaosSeedsOK gates the chaos contract over a seed sweep: every
// fault applies (a collapse of a link that is down included), no
// bandwidth leaks, and every plan matches the naive Select.
func TestRunChaosSeedsOK(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rep, err := RunChaos(ChaosSpec{Seed: seed, Steps: 40})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.OK() {
			t.Errorf("seed %d: err=%q leak=%v mismatches=%d", seed, rep.Err, rep.LeakKbps, rep.Mismatches)
		}
		if len(rep.Timeline) != 40 {
			t.Errorf("seed %d: %d steps recorded", seed, len(rep.Timeline))
		}
	}
}
