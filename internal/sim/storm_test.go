package sim

import (
	"testing"

	"qoschain/internal/metrics"
)

// TestRunStormSmall is the scaled-down EXT-O scenario: the storm
// contract (sub-linear Select cost, zero leak, naive equivalence) must
// hold at any population, not only at the pinned 100k run.
func TestRunStormSmall(t *testing.T) {
	counters := metrics.NewCounters()
	rep, err := RunStorm(StormSpec{
		Seed:     7,
		Sessions: 1200,
		Regions:  2,
		Verify:   true,
		Counters: counters,
	})
	if err != nil {
		t.Fatalf("RunStorm: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("storm contract violated: %+v", rep)
	}
	if rep.Sessions != 1200 {
		t.Fatalf("Sessions = %d, want 1200", rep.Sessions)
	}
	if rep.BackboneLinks == 0 || rep.AffectedClasses == 0 {
		t.Fatalf("backbone event did not land: %+v", rep)
	}
	// Plan-once: never more Selects than affected classes.
	if rep.SelectCalls > rep.AffectedClasses {
		t.Fatalf("SelectCalls = %d > AffectedClasses = %d", rep.SelectCalls, rep.AffectedClasses)
	}
	if rep.NaiveChecks != rep.AffectedSessions {
		t.Fatalf("NaiveChecks = %d, want one per affected session (%d)",
			rep.NaiveChecks, rep.AffectedSessions)
	}
	if rep.CacheRefreshes == 0 {
		t.Fatal("storm never refreshed a cached class graph in place")
	}
	// Classes of one region share a graph key, and an overlay change
	// never rebuilds: one build per region, however the storm moved
	// the links.
	if rep.CacheBuilds != 2 {
		t.Fatalf("CacheBuilds = %d, want one per region (2)", rep.CacheBuilds)
	}
	if got := counters.Get(metrics.CounterStormSelectCalls); got != int64(rep.SelectCalls) {
		t.Fatalf("storm.select_calls = %d, report says %d", got, rep.SelectCalls)
	}
}

// TestRunStormDeterministic pins the seed → outcome mapping the EXT-O
// experiment relies on.
func TestRunStormDeterministic(t *testing.T) {
	run := func() *StormReport {
		rep, err := RunStorm(StormSpec{Seed: 11, Sessions: 400, Regions: 2})
		if err != nil {
			t.Fatalf("RunStorm: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.SelectCalls != b.SelectCalls || a.Replanned != b.Replanned ||
		a.AffectedSessions != b.AffectedSessions || a.DegradedSessions != b.DegradedSessions {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
