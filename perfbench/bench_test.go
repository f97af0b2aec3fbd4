package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestSchedulesDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(churnSchedule(7, defaultChurn, 56, true), churnSchedule(7, defaultChurn, 56, true)) {
		t.Error("churn schedule differs for one seed")
	}
	if reflect.DeepEqual(churnSchedule(7, defaultChurn, 56, true), churnSchedule(8, defaultChurn, 56, true)) {
		t.Error("churn schedule identical for two seeds")
	}
	if !reflect.DeepEqual(faultSchedule(7, 1024, 50), faultSchedule(7, 1024, 50)) {
		t.Error("fault schedule differs for one seed")
	}
	if reflect.DeepEqual(faultSchedule(7, 1024, 50), faultSchedule(8, 1024, 50)) {
		t.Error("fault schedule identical for two seeds")
	}
	if !reflect.DeepEqual(streamSchedule(7, defaultStream), streamSchedule(7, defaultStream)) {
		t.Error("stream schedule differs for one seed")
	}
	if reflect.DeepEqual(streamSchedule(7, defaultStream), streamSchedule(8, defaultStream)) {
		t.Error("stream schedule identical for two seeds")
	}
}

func TestChurnScheduleShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		journaled, creates, pop := 0, 0, defaultChurn.population
		onCreate := seed%2 == 0
		for _, op := range churnSchedule(seed, defaultChurn, 56, onCreate) {
			if op.kind != opCreate && (op.pick < 0 || op.pick >= pop) {
				t.Fatalf("seed %d: %s picks %d of %d live sessions", seed, op.kind, op.pick, pop)
			}
			switch op.kind {
			case opCreate:
				journaled++
				creates++
				pop++
			case opDelete:
				journaled++
				pop--
			}
			if op.kind != opGet && journaled == 56 && (op.kind == opCreate) != onCreate {
				t.Errorf("seed %d: snapshotting command is a %s", seed, op.kind)
			}
		}
		if journaled != defaultChurn.journaled {
			t.Errorf("seed %d: %d journaled ops, want %d", seed, journaled, defaultChurn.journaled)
		}
		if creates == 0 || creates == journaled {
			t.Errorf("seed %d: %d creates of %d journaled ops: kinds are not mixed", seed, creates, journaled)
		}
	}
}

func TestStreamScheduleSplit(t *testing.T) {
	fig := 0
	for _, op := range streamSchedule(3, defaultStream) {
		if op.kind == kindFigure6 {
			fig++
		}
	}
	if want := defaultStream.ops * 3 / 8; fig != want {
		t.Errorf("%d Figure 6 streams, want %d", fig, want)
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{4}, 0.99, 4},
		{[]float64{5, 1, 4, 2, 3}, 0.5, 3},
		{[]float64{5, 1, 4, 2, 3}, 0, 1},
		{[]float64{5, 1, 4, 2, 3}, 1, 5},
		{[]float64{5, 1, 4, 2, 3}, 0.25, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{10, 20}, 0.99, 19.9},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Error("percentile reordered its input")
	}
}

// benchmarkFile is the part of BENCHMARK.json the names must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", listed, names)
	}

	e2e := endToEnd(&workloads[0], []*trialResult{{lat: []float64{1}, headline: 1, phaseS: 1}})
	layers := perLayer(&workloads[0], []*trialResult{{lat: []float64{1}}}, []*trialResult{{lat: []float64{1}, layers: newReport()}}, e2e)
	check := func(kind string, rep *report, want []struct{ Name, Unit string }) {
		var got []struct{ Name, Unit string }
		for _, n := range rep.names {
			if !metricName.MatchString(n) {
				t.Errorf("%s metric name %q does not match %s", kind, n, metricName)
			}
			got = append(got, struct{ Name, Unit string }{n, rep.vals[n].Unit})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics printed %v, BENCHMARK.json lists %v", kind, got, want)
		}
	}
	check("end-to-end", e2e, bf.EndToEnd)
	check("per-layer", layers, bf.PerLayer)
}

func tinyChurn() churnConfig {
	return churnConfig{population: 16, classes: 2, journaled: 24, linkScale: 2000}
}

func tinyFaults() faultConfig {
	cfg := defaultFaults
	cfg.scales, cfg.classes, cfg.perClass, cfg.steps = []float64{1000}, 2, 4, 6
	return cfg
}

func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		if res, err := runChurn(tinyChurn(), t.TempDir(), 1, true, traced); err != nil {
			t.Errorf("session-churn traced=%v: %v", traced, err)
		} else {
			checkTrial(t, "session-churn", res, traced)
		}
		if res, err := runFaults(tinyFaults(), t.TempDir(), 1, traced); err != nil {
			t.Errorf("fault-storm traced=%v: %v", traced, err)
		} else {
			checkTrial(t, "fault-storm", res, traced)
		}
		if res, err := runStream(streamConfig{sessions: 2, frames: 200, ops: 8, clients: 2}, 1, traced); err != nil {
			t.Errorf("stream traced=%v: %v", traced, err)
		} else {
			checkTrial(t, "stream", res, traced)
		}
	}
}

func checkTrial(t *testing.T, name string, res *trialResult, traced bool) {
	t.Helper()
	if res.headline == 0 || len(res.lat) != res.headline {
		t.Errorf("%s: %d headline ops, %d latencies", name, res.headline, len(res.lat))
	}
	if _, failed := res.ops.totals(); failed != 0 {
		t.Errorf("%s: %d failed ops", name, failed)
	}
	if res.setupS <= 0 || res.phaseS <= 0 || res.recoverS <= 0 || res.heapMB <= 0 {
		t.Errorf("%s: non-positive set-up, phase, recovery or heap reading: %+v", name, res)
	}
	if traced && len(res.layers.names) == 0 {
		t.Errorf("%s: traced trial reported no per-layer readings", name)
	}
	if traced && name == "fault-storm" && res.layers.vals["storm.replanned_per_op"].Value <= 0 {
		t.Errorf("fault-storm: collapses re-planned no session")
	}
}

// A fault on a link no class uses is a no-op storm; the re-plan check
// must fail the trial. The target here is always the set-up chain's
// first hop: the first collapse moves every class off it, so the
// second collapse of the same link re-plans nothing.
func TestNoOpFaultFailsReplanCheck(t *testing.T) {
	cfg := tinyFaults()
	cfg.target = func(r *region, _ []string) (string, string, error) {
		return r.firstHop(strings.Split(r.expected[0].path, ","))
	}
	_, err := runFaults(cfg, t.TempDir(), 1, false)
	if err == nil || !strings.Contains(err.Error(), "re-planned no class") {
		t.Fatalf("no-op fault passed the re-plan check: err = %v", err)
	}
}

func TestP50OverTrialGroups(t *testing.T) {
	constant := func(v float64, n int) *trialResult {
		r := &trialResult{}
		for i := 0; i < n; i++ {
			r.lat = append(r.lat, v)
		}
		return r
	}
	// Trials big enough to be groups of their own: the lower quartile
	// of their medians.
	big := []*trialResult{constant(3, 200), constant(1, 200), constant(2, 200)}
	if got := p50(big); got != 1.5 {
		t.Errorf("p50 over big trials = %v, want 1.5", got)
	}
	// Small trials pool into groups of at least tailSamples; the short
	// remainder joins the last group: {0..3} and {4..9}.
	var small []*trialResult
	for i := 0; i < 10; i++ {
		small = append(small, constant(float64(i), 50))
	}
	if got := p50(small); math.Abs(got-2.75) > 1e-9 {
		t.Errorf("p50 over small trials = %v, want 2.75", got)
	}
}
