package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Inc(CounterFailovers)
	c.Add(CounterQuarantined, 3)
	if c.Get(CounterFailovers) != 1 || c.Get(CounterQuarantined) != 3 {
		t.Errorf("counts = %v", c.Snapshot())
	}
	if c.Get("unknown") != 0 {
		t.Error("unknown counter must read 0")
	}
	c.Observe(SampleRecoverySteps, 2)
	c.Observe(SampleRecoverySteps, 4)
	s := c.SampleSummary(SampleRecoverySteps)
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
	c.Inc(CounterDegraded)
	c.Observe(SampleRecoverySteps, 5)
	var sb strings.Builder
	c.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, CounterDegraded) || !strings.Contains(out, "n=1") {
		t.Errorf("render output:\n%s", out)
	}
}
