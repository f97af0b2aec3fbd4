package metrics

import (
	"bufio"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Inc("a.total")
	r.Add("a.total", 4)
	if got := r.CounterValue("a.total"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	r.SetGauge("a.gauge", 2.5)
	r.AddGauge("a.gauge", -0.5)
	if got := r.GaugeValue("a.gauge"); got != 2.0 {
		t.Errorf("gauge = %g, want 2", got)
	}
	if r.CounterValue("unknown") != 0 || r.GaugeValue("unknown") != 0 {
		t.Error("unknown series must read 0")
	}
}

func TestRegistryLabelsAreIndependentSeries(t *testing.T) {
	r := NewRegistry()
	r.Inc("http.requests", L("code", "200"))
	r.Inc("http.requests", L("code", "200"))
	r.Inc("http.requests", L("code", "503"))
	r.Inc("http.requests")
	if got := r.CounterValue("http.requests", L("code", "200")); got != 2 {
		t.Errorf("code=200 = %d, want 2", got)
	}
	if got := r.CounterValue("http.requests", L("code", "503")); got != 1 {
		t.Errorf("code=503 = %d, want 1", got)
	}
	if got := r.CounterValue("http.requests"); got != 1 {
		t.Errorf("unlabeled = %d, want 1", got)
	}
	// Label order must not matter.
	r.Inc("x", L("b", "2"), L("a", "1"))
	r.Inc("x", L("a", "1"), L("b", "2"))
	if got := r.CounterValue("x", L("a", "1"), L("b", "2")); got != 2 {
		t.Errorf("sorted-label series = %d, want 2", got)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Inc("x")
	r.Add("x", 3)
	r.SetGauge("g", 1)
	r.Observe("h", 1)
	if r.CounterValue("x") != 0 || r.Window("h") != nil {
		t.Error("nil registry must be inert")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Hists) != 0 {
		t.Error("nil snapshot must be empty")
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Error("nil registry exposition must be empty")
	}
}

func TestHistogramBoundedWindow(t *testing.T) {
	r := NewRegistry()
	n := SampleWindow + 500
	for i := 0; i < n; i++ {
		r.Observe("lat", float64(i))
	}
	win := r.Window("lat")
	if len(win) != SampleWindow {
		t.Fatalf("window = %d, want %d", len(win), SampleWindow)
	}
	// The window holds the most recent observations, oldest first.
	if win[0] != float64(n-SampleWindow) || win[len(win)-1] != float64(n-1) {
		t.Errorf("window ends = %g..%g, want %d..%d", win[0], win[len(win)-1], n-SampleWindow, n-1)
	}
	s := r.SampleSummary("lat")
	if s.Count != n {
		t.Errorf("count = %d, want %d", s.Count, n)
	}
	wantMean := float64(n-1) / 2
	if math.Abs(s.Mean-wantMean) > 1e-9 {
		t.Errorf("mean = %g, want %g", s.Mean, wantMean)
	}
	if s.Min != 0 || s.Max != float64(n-1) {
		t.Errorf("min/max = %g/%g", s.Min, s.Max)
	}
	// Quantiles are bucket-interpolated once the window wraps: accept a
	// loose band around the true value.
	trueP50 := wantMean
	if s.P50 < trueP50/4 || s.P50 > trueP50*4 {
		t.Errorf("p50 = %g, too far from %g", s.P50, trueP50)
	}
}

func TestHistogramExactWhileSmall(t *testing.T) {
	r := NewRegistry()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		r.Observe("s", v)
	}
	s := r.SampleSummary("s")
	want := Summarize([]float64{1, 2, 3, 4, 5})
	if s != want {
		t.Errorf("summary = %+v, want exact %+v", s, want)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Inc("z.last")
	r.Inc("a.first")
	r.Inc("m.mid", L("k", "2"))
	r.Inc("m.mid", L("k", "1"))
	snap := r.Snapshot()
	var keys []string
	for _, c := range snap.Counters {
		keys = append(keys, seriesKey(c.Name, c.Labels))
	}
	want := []string{"a.first", `m.mid{k="1"}`, `m.mid{k="2"}`, "z.last"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("keys[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
}

// TestRegistryConcurrent hammers one registry from parallel writers
// across all three kinds while readers snapshot and expose it; run
// under -race this proves the store is data-race free, and the final
// totals prove no write is lost.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const (
		writers = 8
		perG    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Inc("c.total")
				r.Inc("c.labeled", L("w", "x"))
				r.SetGauge("g.now", float64(i))
				r.Observe("h.lat", float64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
			_ = r.CounterValue("c.total")
			_ = r.SampleSummary("h.lat")
			var sb strings.Builder
			r.WritePrometheus(&sb)
		}
	}()
	wg.Wait()
	<-done
	if got := r.CounterValue("c.total"); got != writers*perG {
		t.Errorf("c.total = %d, want %d", got, writers*perG)
	}
	if got := r.CounterValue("c.labeled", L("w", "x")); got != writers*perG {
		t.Errorf("c.labeled = %d, want %d", got, writers*perG)
	}
	if got := r.SampleSummary("h.lat").Count; got != writers*perG {
		t.Errorf("h.lat count = %d, want %d", got, writers*perG)
	}
}

// TestPrometheusOutputStable verifies /metrics output is sorted,
// parseable line-by-line, and identical across renders with no writes
// in between.
func TestPrometheusOutputStable(t *testing.T) {
	r := NewRegistry()
	RegisterWellKnown(r)
	r.Inc(CounterReevalManual)
	r.Add(CounterHTTPRequests, 3, L("code", "200"))
	r.Observe(HistComposeLatencyMs, 1.5, L("outcome", "ok"))
	r.SetGauge("sessions.live", 2)

	var a, b strings.Builder
	r.WritePrometheus(&a)
	r.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Fatal("exposition must be deterministic across renders")
	}

	sc := bufio.NewScanner(strings.NewReader(a.String()))
	var prevFamily, kind string
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		lines++
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			if parts[3] != kind {
				// Output is sorted within each kind section
				// (counters, then gauges, then histograms).
				kind, prevFamily = parts[3], ""
			}
			continue
		}
		// Every sample line is `name value` or `name{labels} value`.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("unparseable line: %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced labels: %q", line)
			}
			name = name[:i]
		}
		if strings.ContainsAny(name, ".-") {
			t.Fatalf("unsanitized metric name: %q", line)
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if prevFamily != "" && family < prevFamily && !strings.HasPrefix(prevFamily, family) && !strings.HasPrefix(family, prevFamily) {
			// Families must appear in sorted order (suffixes like
			// _bucket/_sum/_count stay within their family).
			t.Errorf("family %q after %q: output not sorted", family, prevFamily)
		}
		prevFamily = family
	}
	if lines == 0 {
		t.Fatal("no output")
	}
	for _, want := range []string{
		"failover_reevaluate_manual 1",
		`http_requests{code="200"} 3`,
		`compose_latency_ms_bucket{outcome="ok",le="2.5"} 1`,
		`compose_latency_ms_count{outcome="ok"} 1`,
		"sessions_live 2",
		"journal_appends 0",
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("exposition missing %q\n%s", want, a.String())
		}
	}
}

func TestCountersFanout(t *testing.T) {
	private := NewCounters()
	global := NewCounters()
	c := Fanout(private, global)
	c.Inc(CounterReevalManual)
	c.Observe(SampleReservedKbps, 3)
	if private.Get(CounterReevalManual) != 1 || global.Get(CounterReevalManual) != 1 {
		t.Error("writes must reach both sinks")
	}
	// Reads come from the primary only.
	global.Inc(CounterReevalManual)
	if c.Get(CounterReevalManual) != 1 {
		t.Errorf("fanout read = %d, want primary value 1", c.Get(CounterReevalManual))
	}
	if len(c.Sample(SampleReservedKbps)) != 1 {
		t.Error("fanout sample must read primary")
	}
	// Degenerate fanouts collapse to the non-nil side.
	if Fanout(nil, global) != global || Fanout(private, nil) != private {
		t.Error("nil sides must collapse")
	}
	var nilc *Counters
	if Fanout(nilc, nilc) != nil {
		t.Error("all-nil fanout must be nil")
	}
}

func TestCountersOnSharedRegistry(t *testing.T) {
	r := NewRegistry()
	c := CountersOn(r)
	c.Inc(CounterAdmissionAdmitted)
	if r.CounterValue(CounterAdmissionAdmitted) != 1 {
		t.Error("facade write must land in the registry")
	}
	r.Inc(CounterAdmissionAdmitted)
	if c.Get(CounterAdmissionAdmitted) != 2 {
		t.Error("facade read must see registry writes")
	}
	if CountersOn(nil) != nil {
		t.Error("CountersOn(nil) must be a nil sink")
	}
}
