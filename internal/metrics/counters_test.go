package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Inc(CounterReevalManual)
	c.Add(CounterCapacityRejected, 3)
	if c.Get(CounterReevalManual) != 1 || c.Get(CounterCapacityRejected) != 3 {
		t.Errorf("counts = %v", c.Snapshot())
	}
	if c.Get("unknown") != 0 {
		t.Error("unknown counter must read 0")
	}
	c.Observe(SampleReservedKbps, 2)
	c.Observe(SampleReservedKbps, 4)
	s := c.SampleSummary(SampleReservedKbps)
	if s.Count != 2 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
}

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.Inc("x") // must not panic
	c.Observe("y", 1)
	if c.Get("x") != 0 || c.Sample("y") != nil || c.Snapshot() != nil {
		t.Error("nil counters must be inert")
	}
	var sb strings.Builder
	c.Render(&sb)
	if sb.Len() != 0 {
		t.Error("nil render must emit nothing")
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc("n")
				c.Observe("s", float64(j))
			}
		}()
	}
	wg.Wait()
	if c.Get("n") != 800 {
		t.Errorf("n = %d, want 800", c.Get("n"))
	}
	if len(c.Sample("s")) != 800 {
		t.Errorf("samples = %d, want 800", len(c.Sample("s")))
	}
}

func TestCountersRender(t *testing.T) {
	c := NewCounters()
	c.Inc(CounterStormDegraded)
	c.Observe(SampleReservedKbps, 5)
	var sb strings.Builder
	c.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, CounterStormDegraded) || !strings.Contains(out, "n=1") {
		t.Errorf("render output:\n%s", out)
	}
}
