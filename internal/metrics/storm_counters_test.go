package metrics

// The storm.* counters are written by the storm controller while
// /metrics and /healthz readers snapshot them, and several sessions may
// attach concurrently; this is the -race proof plus the well-known
// registration check behind satellite wiring.

import (
	"strings"
	"sync"
	"testing"
)

func TestStormCountersRegisteredWellKnown(t *testing.T) {
	r := NewRegistry()
	RegisterWellKnown(r)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, name := range []string{
		CounterStormEvents, CounterStormClasses,
		CounterStormSessionsReplanned, CounterStormSelectCalls,
		CounterStormDegraded,
		GaugeStormClassesAttached, SampleStormMembersPerClass,
	} {
		// Prometheus names swap dots for underscores.
		want := strings.ReplaceAll(name, ".", "_")
		if !strings.Contains(out, want) {
			t.Errorf("well-known registration missing %s (%s)", name, want)
		}
	}
}

func TestStormCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	// Writers: concurrent attaches and fan-outs.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc(CounterStormSelectCalls)
				c.Add(CounterStormSessionsReplanned, 3)
				c.Observe(SampleStormMembersPerClass, float64(i%5))
			}
		}()
	}
	// Readers: /metrics scraping mid-storm.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = c.Get(CounterStormSelectCalls)
				_ = c.SampleSummary(SampleStormMembersPerClass)
			}
		}()
	}
	wg.Wait()
	if got := c.Get(CounterStormSelectCalls); got != 8000 {
		t.Fatalf("storm.select_calls = %d, want 8000", got)
	}
	if got := c.Get(CounterStormSessionsReplanned); got != 24000 {
		t.Fatalf("storm.sessions_replanned = %d, want 24000", got)
	}
	if s := c.SampleSummary(SampleStormMembersPerClass); s.Count != 8000 {
		t.Fatalf("storm.members_per_class samples = %d, want 8000", s.Count)
	}
}
