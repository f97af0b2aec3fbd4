// Command perfbench is qoschain's end-to-end benchmark. It drives one
// workload against the handler stack adaptd assembles with
// -storm-attach -state-dir (or, for stream, the data plane directly),
// checks every output, and prints each metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload session-churn --seed 1 --seconds 20 --trace 0
//
// A run is a number of identical trials, one per trialMs of the
// --seconds budget (at least minTrials). Each trial sets up from
// scratch, runs a fixed number of operations drawn from the seed, and
// is checked; the run reports each end-to-end timing from its best
// quarter of trials (see bestTime) and the live heap as the median over
// trials. With --trace 1 the run alternates untraced and traced trials
// and reports the per-layer metrics instead (medians over the traced
// trials), with the tracing overhead and how far the per-layer self
// times are from the untraced end-to-end mean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// trialResult is one trial's measurements.
type trialResult struct {
	setupS, phaseS, recoverS, heapMB float64
	lat                              []float64 // headline operation latencies, ms
	snapLat                          []float64 // latencies of headline operations that wrote a journal snapshot
	headline                         int       // headline operations in the measured phase
	ops                              *ops
	layers                           *report // per-layer readings (traced trials only)
}

func newTrialResult() *trialResult { return &trialResult{ops: newOps(), layers: newReport()} }

// noteHeadline records one headline operation's latency, and whether
// the journal snapshotted inside it.
func (t *trialResult) noteHeadline(ms float64, snapshotted bool) {
	t.lat = append(t.lat, ms)
	if snapshotted {
		t.snapLat = append(t.snapLat, ms)
	}
}

// workload is one benchmark workload.
type workload struct {
	name     string
	headline string // the headline operation, for the printout
	trialMs  int    // one trial per this many milliseconds of budget
	// selfTimes are the per-layer times that partition the headline
	// operation; their sum is checked against the untraced mean.
	selfTimes []string
	// run is one trial: seed derives its inputs, trial is its index in
	// the run.
	run func(dir string, seed int64, trial int, traced bool) (*trialResult, error)
}

// sessionSelfTimes partition a session workload's headline round trip.
var sessionSelfTimes = []string{"httpapi.self_ms", "session.self_ms", "journal.self_ms", "storm.self_ms"}

var workloads = []workload{
	{name: "session-churn", headline: "create", trialMs: 550, selfTimes: sessionSelfTimes,
		run: func(dir string, seed int64, trial int, traced bool) (*trialResult, error) {
			return runChurn(defaultChurn, dir, seed, churnSnapshotOnCreate(trial), traced)
		}},
	{name: "fault-storm", headline: "collapse fault", trialMs: 5000, selfTimes: sessionSelfTimes,
		run: func(dir string, seed int64, _ int, traced bool) (*trialResult, error) {
			return runFaults(defaultFaults, dir, seed, traced)
		}},
	{name: "stream", headline: "stream", trialMs: 3000,
		selfTimes: []string{"pipeline.build_ms", "pipeline.run_ms"},
		run: func(dir string, seed int64, _ int, traced bool) (*trialResult, error) {
			return runStream(defaultStream, seed, traced)
		}},
}

const minTrials = 3

func main() {
	name := flag.String("workload", "", "workload: session-churn, fault-storm or stream")
	seed := flag.Int64("seed", 1, "seed the operation schedule derives from")
	seconds := flag.Int("seconds", 20, "measurement budget; sets the number of fixed-size trials")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from traced trials instead of end-to-end metrics")
	stateRoot := flag.String("state-root", filepath.Join(".bench_build", "state"), "directory the trials' session state directories are made in")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*stateRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	trials := max(minTrials, *seconds*1000/w.trialMs)
	if *traced == 1 {
		trials += trials % 2 // as many traced trials as untraced ones
	}
	fmt.Printf("workload %s, seed %d, %d trials, state directories under %s\n", w.name, *seed, trials, *stateRoot)
	out, err := measure(w, *seed, trials, *traced == 1, *stateRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if err != nil || !out.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs the trials and assembles the result. An error (a failed
// operation or check) still yields a result, marked incorrect.
func measure(w *workload, seed int64, trials int, traced bool, stateRoot string) (result, error) {
	var plain, withTrace []*trialResult
	all := newOps()
	runOne := func(i int, tr bool) error {
		dir, err := os.MkdirTemp(stateRoot, w.name+"-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		res, err := w.run(dir, seed*1000+int64(i), i, tr)
		if res != nil {
			all.add(res.ops)
		}
		if err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		fmt.Printf("trial %2d traced=%-5v set-up %.3f s, %d %s in %.3f s, p50 %.3f ms, heap %.2f MiB, restart %.3f s\n",
			i, tr, res.setupS, res.headline, w.headline, res.phaseS, percentile(res.lat, 0.5), res.heapMB, res.recoverS)
		if tr {
			withTrace = append(withTrace, res)
		} else {
			plain = append(plain, res)
		}
		return nil
	}
	// A traced run alternates untraced and traced trials and stays
	// within the untraced run's trial budget.
	var err error
	for i := 0; i < trials && err == nil; i++ {
		err = runOne(i, traced && i%2 == 1)
	}
	out := result{Correct: err == nil, Metrics: map[string]metric{}}
	out.Attempted, out.Failed = all.totals()
	if out.Attempted == 0 {
		out.Attempted = 1 // a run that failed before its first operation
	}
	fmt.Printf("operations: %s\n", all)
	if err != nil {
		return out, err
	}
	e2e := endToEnd(w, plain)
	rep := e2e
	if traced {
		rep = perLayer(w, plain, withTrace, e2e)
	}
	for _, n := range rep.names {
		out.Metrics[n] = rep.vals[n]
	}
	return out, nil
}

func pooled(trials []*trialResult) []float64 {
	var lat []float64
	for _, t := range trials {
		lat = append(lat, t.lat...)
	}
	return lat
}

func medianOf(trials []*trialResult, f func(*trialResult) float64) float64 {
	return quantileOf(trials, f, 0.5)
}

func quantileOf(trials []*trialResult, f func(*trialResult) float64, q float64) float64 {
	xs := make([]float64, len(trials))
	for i, t := range trials {
		xs[i] = f(t)
	}
	return percentile(xs, q)
}

// A noisy neighbour on a shared machine only ever adds time, so each
// end-to-end timing is taken from the run's best quarter of trials:
// the lower quartile over trials of a time, the upper quartile of a
// rate. That quarter tracks the program and not the neighbours.
const (
	bestTime = 0.25
	bestRate = 0.75
)

// tailSamples is the fewest headline samples a trial needs to report
// its own p99; a workload with smaller trials takes p99 over the pooled
// samples of all its trials instead.
const tailSamples = 200

// p50 is the best quartile of the medians of groups of consecutive
// trials, each group pooling at least tailSamples headline samples so
// its median is not itself a small-sample guess.
func p50(trials []*trialResult) float64 {
	var groups [][]float64
	var open []float64
	for _, t := range trials {
		open = append(open, t.lat...)
		if len(open) >= tailSamples {
			groups, open = append(groups, open), nil
		}
	}
	if n := len(groups); n > 0 {
		groups[n-1] = append(groups[n-1], open...) // a short remainder joins the last group
	} else {
		groups = [][]float64{open}
	}
	medians := make([]float64, len(groups))
	for i, g := range groups {
		medians[i] = percentile(g, 0.5)
	}
	return percentile(medians, bestTime)
}

// p99 is the best quartile over trials of each trial's p99, or the p99
// of the pooled samples when trials are too small to have their own
// tail. It also describes which, for the printout.
func p99(trials []*trialResult) (float64, string) {
	lat := pooled(trials)
	smallest := len(lat)
	for _, t := range trials {
		smallest = min(smallest, len(t.lat))
	}
	if smallest < tailSamples {
		return percentile(lat, 0.99), fmt.Sprintf("p99 of the %d pooled samples, %d beyond it", len(lat), len(lat)/100)
	}
	return quantileOf(trials, func(t *trialResult) float64 { return percentile(t.lat, 0.99) }, bestTime),
		fmt.Sprintf("p99 the best quartile of the trials' p99s over at least %d samples each", smallest)
}

// endToEnd computes and prints the end-to-end metrics.
func endToEnd(w *workload, trials []*trialResult) *report {
	r := newReport()
	r.set("setup_s", "s", quantileOf(trials, func(t *trialResult) float64 { return t.setupS }, bestTime))
	r.set("ops_per_s", "1/s", quantileOf(trials, func(t *trialResult) float64 { return float64(t.headline) / t.phaseS }, bestRate))
	r.set("p50_ms", "ms", p50(trials))
	tail, how := p99(trials)
	r.set("p99_ms", "ms", tail)
	r.set("live_heap_mb", "MiB", medianOf(trials, func(t *trialResult) float64 { return t.heapMB }))
	r.set("recover_s", "s", quantileOf(trials, func(t *trialResult) float64 { return t.recoverS }, bestTime))
	fmt.Printf("end-to-end (headline op: %s; %d trials, %d samples; p50 the best quartile of the medians of trial groups of at least %d samples; %s):\n",
		w.headline, len(trials), len(pooled(trials)), tailSamples, how)
	printReport(r)
	snaps, n := len(pooledSnap(trials)), len(pooled(trials))
	fmt.Printf("  session.snapshot_share %.4f: %d of %d headline ops wrote a journal snapshot (p99 lies in that mode when the share is well above 0.01)\n",
		ratio(float64(snaps), float64(n)), snaps, n)
	return r
}

func pooledSnap(trials []*trialResult) []float64 {
	var lat []float64
	for _, t := range trials {
		lat = append(lat, t.snapLat...)
	}
	return lat
}

// perLayer computes and prints the per-layer metrics of the traced
// trials (medians over trials; 0 for a layer the workload does not
// reach), the tracing overhead, and the gap between the summed self
// times and the untraced end-to-end mean.
func perLayer(w *workload, plain, traced []*trialResult, e2e *report) *report {
	r := newReport()
	for _, m := range perLayerMetrics {
		r.set(m.name, m.unit, medianOf(traced, func(t *trialResult) float64 { return t.layers.vals[m.name].Value }))
	}
	// A trial has one or a few snapshotting operations, so these three
	// are taken over the pooled traced trials.
	snapLat := pooledSnap(traced)
	r.set("session.snapshot_share", "ratio", ratio(float64(len(snapLat)), float64(len(pooled(traced)))))
	r.set("session.snapshot_ms", "ms", mean(snapLat))
	r.set("session.snapshot_max_ms", "ms", maxOf(snapLat))
	r.set("trace.overhead_ms", "ms", p50(traced)-e2e.vals["p50_ms"].Value)
	selfSum := 0.0
	for _, n := range w.selfTimes {
		selfSum += r.vals[n].Value
	}
	e2eMean := mean(pooled(plain))
	r.set("attribution.sum_ms", "ms", selfSum)
	r.set("attribution.e2e_mean_ms", "ms", e2eMean)
	r.set("attribution.gap", "ratio", math.Abs(selfSum-e2eMean)/e2eMean)
	fmt.Printf("per-layer (traced trials; headline op: %s):\n", w.headline)
	printReport(r)
	return r
}

// perLayerMetrics lists every per-layer metric a traced run reports,
// in print order, before the overhead and attribution lines.
var perLayerMetrics = []struct{ name, unit string }{
	{"httpapi.self_ms", "ms"},
	{"session.self_ms", "ms"},
	{"session.create_ms", "ms"},
	{"session.delete_ms", "ms"},
	{"session.snapshots", "count"},
	{"session.snapshot_share", "ratio"},
	{"session.snapshot_ms", "ms"},
	{"session.snapshot_max_ms", "ms"},
	{"session.snapshot_bytes", "B"},
	{"journal.self_ms", "ms"},
	{"journal.append_p50_ms", "ms"},
	{"journal.append_p99_ms", "ms"},
	{"journal.fsync_p50_ms", "ms"},
	{"journal.fsync_p99_ms", "ms"},
	{"journal.records_per_op", "count"},
	{"storm.self_ms", "ms"},
	{"storm.recovery_p50_ms", "ms"},
	{"storm.recovery_p99_ms", "ms"},
	{"storm.classes_per_op", "count"},
	{"storm.selects_per_op", "count"},
	{"storm.replanned_per_op", "count"},
	{"graph.cache_hit_ratio", "ratio"},
	{"graph.repairs_per_op", "count"},
	{"core.select_ms", "ms"},
	{"pipeline.build_ms", "ms"},
	{"pipeline.run_ms", "ms"},
	{"pipeline.queue_depth", "count"},
	{"pipeline.batch_occupancy", "ratio"},
	{"pipeline.delivered_ratio", "ratio"},
	{"transcode.allocs_per_frame", "count"},
	{"transcode.bytes_per_frame", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KiB"},
}

func printReport(r *report) {
	for _, n := range r.names {
		m := r.vals[n]
		fmt.Printf("  %-28s %14.6f %s\n", n, m.Value, m.Unit)
	}
}
