// Command adaptsim runs an end-to-end adaptation simulation: it generates
// a random overlay of proxies and trans-coding services, composes a chain
// for a heterogeneous device population, streams synthetic media through
// the selected pipelines, and (optionally) drives a bandwidth random walk
// that forces the sessions to re-compose.
//
// Usage:
//
//	adaptsim -services 40 -devices 5 -steps 10 -seed 7
//	adaptsim -services 40 -batch 64                # parallel batch planning
//	adaptsim -scenario docs/scenarios/churn.json   # declarative simulation
//
// Every mode accepts -metrics-out <file> to dump the final metrics
// registry snapshot as JSON next to the human-readable stdout tables.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"qoschain/internal/core"
	"qoschain/internal/journal"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/paperexample"
	"qoschain/internal/pipeline"
	"qoschain/internal/satisfaction"
	"qoschain/internal/session"
	"qoschain/internal/sim"
	"qoschain/internal/trace"
	"qoschain/internal/workload"
)

// metricsOutPath is the -metrics-out destination: every mode dumps its
// final metrics registry there as JSON on completion, as the
// machine-readable companion of the stdout tables. Empty disables it.
var metricsOutPath string

// dumpMetrics writes the counters' registry snapshot as indented JSON
// to the -metrics-out file. The stdout tables are unaffected.
func dumpMetrics(c *metrics.Counters) {
	if metricsOutPath == "" {
		return
	}
	if c == nil {
		c = metrics.NewCounters()
	}
	data, err := json.MarshalIndent(c.Registry().Snapshot(), "", "  ")
	if err == nil {
		err = os.WriteFile(metricsOutPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptsim: writing -metrics-out:", err)
		os.Exit(1)
	}
}

// renderSpanStats prints the tracer's per-span aggregate — the trace
// summary the crash harness ends its report with.
func renderSpanStats(tracer *trace.Tracer) {
	stats := tracer.SpanStats()
	if len(stats) == 0 {
		return
	}
	fmt.Println("\n-- trace summary (spans over kept traces) --")
	tb := metrics.NewTable("span", "count", "total ms", "mean ms", "max ms")
	for _, st := range stats {
		tb.AddRow(st.Name, st.Count,
			fmt.Sprintf("%.2f", st.TotalMs), fmt.Sprintf("%.3f", st.MeanMs), fmt.Sprintf("%.3f", st.MaxMs))
	}
	tb.Render(os.Stdout)
}

func main() {
	services := flag.Int("services", 20, "number of trans-coding services in the random scenario")
	devices := flag.Int("devices", 3, "number of receiving devices to compose for")
	steps := flag.Int("steps", 5, "fluctuation steps to simulate")
	frames := flag.Int("frames", 300, "source frames per streamed session")
	seed := flag.Int64("seed", 42, "random seed")
	scenarioFile := flag.String("scenario", "", "run a declarative JSON scenario instead")
	markdown := flag.Bool("markdown", false, "with -scenario: emit the report as Markdown")
	batch := flag.Int("batch", 0, "plan this many receiver profiles against one shared graph and exit")
	chaos := flag.Bool("chaos", false, "inject a seeded fault schedule against a managed Figure 6 session, report availability, and fail on a refused fault, leaked bandwidth or a plan mismatch")
	crash := flag.Bool("crash", false, "kill a durable Figure 6 deployment at every journal failpoint under the seed and verify byte-identical recovery with zero leaked bandwidth")
	overload := flag.Bool("overload", false, "drive a seeded 10x burst through the admission layers under a virtual clock and report the admitted/queued/shed breakdown")
	clusterFlag := flag.Bool("cluster", false, "run a 3-replica Figure 6 deployment with WAL shipping, kill a node mid-run, and verify byte-identical failover with zero leaked bandwidth")
	trials := flag.Int("trials", 5, "with -cluster: how many seeded kill scenarios to run")
	stormFlag := flag.Bool("storm", false, "inject a seeded correlated backbone event over a scaled Figure 6 deployment and mass re-compose by equivalence class, verifying sub-linear Select cost, zero leaked bandwidth, and per-session plan equivalence")
	stormSessions := flag.Int("storm-sessions", 100000, "with -storm: total session count")
	stormRegions := flag.Int("storm-regions", 4, "with -storm: number of network regions")
	stormClasses := flag.Int("storm-classes", 8, "with -storm: equivalence classes per region")
	stormVerify := flag.Bool("storm-verify", true, "with -storm: run the naive per-session Select equivalence check")
	stormCluster := flag.Bool("storm-cluster", false, "drive live /v1/sessions against a storm-attached replicated pair, kill the primary between a fault's commit and its storm's, and verify the promoted follower re-plans to the byte-identical fingerprint with zero leaked bandwidth")
	metricsOut := flag.String("metrics-out", "", "dump the final metrics registry snapshot as JSON to this file (tables stay on stdout)")
	flag.Parse()
	metricsOutPath = *metricsOut

	if *scenarioFile != "" {
		runScenario(*scenarioFile, *markdown)
		return
	}
	if *chaos {
		runChaos(*seed, *steps)
		return
	}
	if *crash {
		runCrash(*seed)
		return
	}
	if *overload {
		runOverload(*seed)
		return
	}
	if *clusterFlag {
		runCluster(*seed, *trials)
		return
	}
	if *stormFlag {
		runStorm(*seed, *stormSessions, *stormRegions, *stormClasses, *stormVerify)
		return
	}
	if *stormCluster {
		runStormCluster(*seed, *trials)
		return
	}
	if *batch > 0 {
		runBatch(rand.New(rand.NewSource(*seed)), *services, *batch)
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	counters := metrics.NewCounters()

	fmt.Printf("adaptsim: %d services, %d devices, %d fluctuation steps (seed %d)\n\n",
		*services, *devices, *steps, *seed)

	// Part 1: compose and stream for a random scenario per device. All
	// chains share one executor worker pool — the deployment shape a
	// daemon would use — instead of goroutines-per-stage-per-device.
	fmt.Println("-- composition and streaming --")
	ex := pipeline.NewExecutor(0)
	type streamed struct {
		device string
		chain  string
		fps    float64
		handle *pipeline.Handle
	}
	var runs []streamed
	for d := 0; d < *devices; d++ {
		sc := workload.Generate(rng, workload.Spec{Services: *services})
		res, err := core.Select(sc.Graph, sc.Config)
		if err != nil {
			fmt.Fprintf(os.Stderr, "device %d: %v\n", d, err)
			continue
		}
		p, err := pipeline.FromResult(sc.Graph, res, pipeline.Options{Metrics: counters})
		if err != nil {
			fmt.Fprintf(os.Stderr, "device %d: %v\n", d, err)
			continue
		}
		h, err := ex.Submit(p, *frames)
		if err != nil {
			fmt.Fprintf(os.Stderr, "device %d: %v\n", d, err)
			continue
		}
		runs = append(runs, streamed{
			device: fmt.Sprintf("dev-%d", d),
			chain:  core.PathString(res.Path),
			fps:    res.Params.Get(media.ParamFrameRate),
			handle: h,
		})
	}
	tb := metrics.NewTable("device", "chain", "negotiated fps", "delivered fps", "frames out")
	for _, r := range runs {
		stats := r.handle.Wait()
		tb.AddRow(r.device, r.chain, r.fps, stats.DeliveredFPS, stats.FramesOut)
	}
	ex.Close()
	tb.Render(os.Stdout)

	// Part 2: a live session over the paper's Figure 6 network with a
	// bandwidth random walk.
	fmt.Println("\n-- session under fluctuation (Figure 6 network) --")
	net := paperexample.Table1Network()
	sess, err := session.New(session.Config{
		Content:      paperexample.Table1Content(),
		Device:       paperexample.Table1Device(),
		Services:     paperexample.Table1Services(true),
		Net:          net,
		SenderHost:   "sender",
		ReceiverHost: "receiver",
		Select:       paperexample.Table1Config(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "session:", err)
		os.Exit(1)
	}
	walk, err := overlay.NewRandomWalk(net, rng, 0.4, 200, 4000)
	if err != nil {
		fmt.Fprintln(os.Stderr, "walk:", err)
		os.Exit(1)
	}
	fmt.Printf("t=0  chain=%s sat=%s\n",
		core.PathString(sess.Result().Path), core.DisplaySat(sess.Result().Satisfaction))
	for t := 1; t <= *steps; t++ {
		walk.Step()
		changed, err := sess.Reevaluate()
		if err != nil {
			fmt.Fprintln(os.Stderr, "reevaluate:", err)
			os.Exit(1)
		}
		marker := ""
		if changed {
			marker = "  <- recomposed"
		}
		fmt.Printf("t=%d  chain=%s sat=%s%s\n", t,
			core.PathString(sess.Result().Path), core.DisplaySat(sess.Result().Satisfaction), marker)
	}
	fmt.Printf("recompositions: %d\n", sess.Recompositions())
	counters.Add("session.recompositions", int64(sess.Recompositions()))
	counters.Observe(metrics.SampleQoSSatisfaction, sess.Result().Satisfaction)
	dumpMetrics(counters)
}

// runChaos prints one sim.RunChaos run: a reserving Figure 6 session
// on an in-memory session.Manager under a seeded fault schedule of host
// crashes, link flaps, bandwidth collapses, service churn and loss
// spikes. Everything derives from the seed, so a run is exactly
// reproducible. It exits non-zero when the chaos contract breaks: a
// fault the manager refuses, leaked bandwidth, or a plan that differs
// from the naive per-session Select.
func runChaos(seed int64, steps int) {
	rep, err := sim.RunChaos(sim.ChaosSpec{Seed: seed, Steps: steps})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	fmt.Printf("adaptsim: chaos over Figure 6 — %d steps, %d scheduled faults (seed %d)\n\n",
		rep.Steps, rep.ScheduledFaults, seed)
	fmt.Printf("t=0   chain=%s sat=%s\n", rep.Initial.Chain, core.DisplaySat(rep.Initial.Satisfaction))
	final := rep.Initial
	for _, st := range rep.Timeline {
		final = st
		if len(st.Faults) == 0 && !st.Recomposed {
			continue
		}
		marker := ""
		if st.Recomposed {
			marker = "  <- recomposed"
		}
		if st.Degraded {
			marker += "  [degraded]"
		}
		faults := ""
		for _, f := range st.Faults {
			faults += " " + f.String()
		}
		fmt.Printf("t=%-3d chain=%s sat=%s%s%s\n", st.Step, st.Chain,
			core.DisplaySat(st.Satisfaction), marker, faults)
	}

	fmt.Printf("\navailability: %d/%d steps healthy (%.1f%%)\n",
		rep.Healthy, rep.Steps, 100*float64(rep.Healthy)/float64(rep.Steps))
	fmt.Printf("outages: %d, longest %d steps\n", rep.Outages, rep.LongestOutage)
	fmt.Printf("recompositions: %d, final chain: %s\n", rep.Recompositions, final.Chain)
	fmt.Printf("storms: %d, naive checks: %d, mismatches: %d, leaked: %.0f kbps\n",
		rep.Storms, rep.NaiveChecks, rep.Mismatches, rep.LeakKbps)
	fmt.Println()
	rep.Counters.Render(os.Stdout)
	dumpMetrics(rep.Counters)
	if !rep.OK() {
		fmt.Fprintf(os.Stderr, "\nchaos: contract broken: err=%q leaked=%v kbps mismatches=%d\n",
			rep.Err, rep.LeakKbps, rep.Mismatches)
		os.Exit(1)
	}
}

// runOverload drives the deterministic overload experiment: a seeded
// 10x burst against the admission layers under a virtual clock (exact
// replayable breakdown), then capacity admission over the paper's
// Figure 6 network — sessions reserve their chain's bitrate on the
// overlay links until a composition no longer fits and is rejected
// before activation.
func runOverload(seed int64) {
	rep := sim.RunOverload(sim.OverloadSpec{Seed: seed})
	sp := rep.Spec
	fmt.Printf("adaptsim: overload — %d requests (%dx capacity %d, queue %d) over %v, service %v, deadline %v (seed %d)\n\n",
		rep.Requests, sp.BurstFactor, sp.Capacity, sp.MaxQueue, sp.Spread, sp.ServiceTime, sp.Deadline, seed)

	tb := metrics.NewTable("t (ms)", "arrivals", "rate-limited", "in flight", "queued", "completed", "expired")
	for _, t := range rep.Timeline {
		tb.AddRow(t.AtMs, t.Arrivals, t.RateLimited, t.InFlight, t.QueueLen, t.Completed, t.Expired)
	}
	tb.Render(os.Stdout)

	fmt.Printf("\nbreakdown: admitted %d (%d direct, %d after queueing), rate-limited %d, shed %d (queue full %d, deadline %d)\n",
		rep.Admitted, rep.AdmittedDirect, rep.Admitted-rep.AdmittedDirect,
		rep.RateLimited, rep.ShedQueueFull+rep.ShedExpired, rep.ShedQueueFull, rep.ShedExpired)
	fmt.Printf("completed %d/%d admitted over %d virtual ticks; accounted: %v\n",
		rep.Completed, rep.Admitted, rep.Ticks, rep.Accounted())
	fmt.Println()
	ctb := metrics.NewTable("counter", "value")
	keys := make([]string, 0, len(rep.Counters))
	for k := range rep.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ctb.AddRow(k, rep.Counters[k])
	}
	ctb.Render(os.Stdout)
	if qw := rep.QueueWait; qw.Count > 0 {
		fmt.Printf("\nqueue wait (virtual ms): n=%d mean=%.1f p50=%.1f p90=%.1f max=%.1f\n",
			qw.Count, qw.Mean, qw.P50, qw.P90, qw.Max)
	}

	// Part 2: capacity admission. Sessions over one shared Figure 6
	// overlay reserve their chain's bitrate before activation; the first
	// composition that no longer fits the free capacity is rejected with
	// the typed overlay error instead of oversubscribing a link.
	fmt.Println("\n-- capacity admission (Figure 6 network) --")
	net := paperexample.Table1Network()
	admitted := 0
	for i := 1; ; i++ {
		sess, err := session.New(session.Config{
			Content:          paperexample.Table1Content(),
			Device:           paperexample.Table1Device(),
			Services:         paperexample.Table1Services(true),
			Net:              net,
			SenderHost:       "sender",
			ReceiverHost:     "receiver",
			Select:           paperexample.Table1Config(),
			ReserveBandwidth: true,
		})
		if err != nil {
			// Saturation surfaces one of two ways: the reservation
			// check refuses an oversubscribing chain outright, or the
			// planner — which sees only unreserved headroom — finds no
			// feasible chain at all. Either way nothing was activated.
			switch {
			case errors.Is(err, overlay.ErrInsufficientCapacity):
				fmt.Printf("session %d REJECTED before activation (capacity): %v\n", i, err)
			case errors.Is(err, core.ErrNoChain):
				fmt.Printf("session %d REJECTED before activation (no chain fits the unreserved headroom): %v\n", i, err)
			default:
				fmt.Fprintln(os.Stderr, "overload session:", err)
				os.Exit(1)
			}
			break
		}
		var held float64
		for _, kbps := range sess.Reserved() {
			held += kbps
		}
		fmt.Printf("session %d admitted: chain=%s holding %.0f kbit/s across %d links (network total %.0f)\n",
			i, core.PathString(sess.Result().Path), held, len(sess.Reserved()), net.TotalReservedKbps())
		admitted++
		if admitted > 64 { // the Figure 6 links must saturate long before this
			fmt.Fprintln(os.Stderr, "overload: capacity never saturated")
			os.Exit(1)
		}
	}
	fmt.Printf("admitted %d sessions before saturation\n", admitted)

	// -metrics-out: fold the virtual-clock breakdown (delivered as a
	// plain map in the report) and the capacity outcome into one registry.
	out := metrics.NewCounters()
	for k, v := range rep.Counters {
		out.Add(k, v)
	}
	out.Add("overload.capacity_admitted", int64(admitted))
	dumpMetrics(out)
}

// runBatch builds one random adaptation graph and plans many receiver
// profiles against it with the GOMAXPROCS-bounded batch planner,
// comparing wall-clock time against planning the same profiles one by
// one.
func runBatch(rng *rand.Rand, services, receivers int) {
	sc := workload.Generate(rng, workload.Spec{Services: services})
	fmt.Printf("adaptsim: planning %d receiver profiles over one %d-service graph\n\n",
		receivers, services)

	// Each receiver wants a different ideal frame rate — heterogeneous
	// satisfaction profiles over one shared deployment.
	cfgs := make([]core.Config, receivers)
	ideals := make([]float64, receivers)
	for i := range cfgs {
		ideals[i] = 5 + 25*rng.Float64()
		cfgs[i] = core.Config{
			Profile: satisfaction.NewProfile(map[media.Param]satisfaction.Function{
				media.ParamFrameRate: satisfaction.Linear{M: 0, I: ideals[i]},
			}),
		}
	}

	seqStart := time.Now()
	for i := range cfgs {
		_, _ = core.Select(sc.Graph, cfgs[i])
	}
	seqDur := time.Since(seqStart)

	batchStart := time.Now()
	results := core.SelectBatch(sc.Graph, cfgs)
	batchDur := time.Since(batchStart)

	tb := metrics.NewTable("receiver", "ideal fps", "chain", "satisfaction")
	shown := receivers
	if shown > 10 {
		shown = 10
	}
	planned := 0
	for i, br := range results {
		if br.Err == nil {
			planned++
		}
		if i >= shown {
			continue
		}
		chain, sat := "(no chain)", "-"
		if br.Err == nil {
			chain = core.PathString(br.Result.Path)
			sat = core.DisplaySat(br.Result.Satisfaction)
		}
		tb.AddRow(fmt.Sprintf("recv-%d", i), fmt.Sprintf("%.1f", ideals[i]), chain, sat)
	}
	tb.Render(os.Stdout)
	if shown < receivers {
		fmt.Printf("... (%d more)\n", receivers-shown)
	}
	fmt.Printf("\nplanned %d/%d receivers\n", planned, receivers)
	fmt.Printf("sequential: %v   batch (%d workers): %v   speedup: %.2fx\n",
		seqDur, runtime.GOMAXPROCS(0), batchDur, float64(seqDur)/float64(batchDur))

	out := metrics.NewCounters()
	out.Add("batch.receivers", int64(receivers))
	out.Add("batch.planned", int64(planned))
	for _, br := range results {
		if br.Err == nil {
			out.Observe(metrics.HistSelectRounds, float64(br.Result.Expanded))
		}
	}
	dumpMetrics(out)
}

// runScenario executes a declarative sim scenario and prints its report.
func runScenario(path string, markdown bool) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptsim:", err)
		os.Exit(1)
	}
	defer f.Close()
	sc, err := sim.LoadScenario(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptsim:", err)
		os.Exit(1)
	}
	rep, err := sim.Run(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptsim:", err)
		os.Exit(1)
	}
	if markdown {
		if err := rep.RenderMarkdown(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "adaptsim:", err)
			os.Exit(1)
		}
		out := metrics.NewCounters()
		out.Add("scenario.steps", int64(len(rep.Steps)))
		out.Add("scenario.sessions", int64(len(rep.Sessions)))
		out.Add("scenario.rejections", int64(rep.TotalRejections()))
		out.SetGauge("scenario.mean_satisfaction", rep.MeanSatisfaction())
		dumpMetrics(out)
		return
	}
	fmt.Printf("scenario %q: %d steps\n\n", rep.Name, len(rep.Steps))
	tb := metrics.NewTable("step", "arrivals", "departures", "active", "mean sat", "recomposed", "rejected")
	for _, s := range rep.Steps {
		tb.AddRow(s.Step, s.Arrivals, s.Departures, s.Active, s.MeanSat, s.Recompositions, s.Rejections)
	}
	tb.Render(os.Stdout)
	fmt.Println()
	st := metrics.NewTable("session", "user", "device", "arrived", "departed", "final chain", "final sat")
	for _, sess := range rep.Sessions {
		depart := "-"
		if sess.DepartStep > 0 {
			depart = fmt.Sprintf("%d", sess.DepartStep)
		}
		chain := sess.FinalPath
		if sess.Rejected {
			chain = "(rejected)"
		}
		st.AddRow(sess.ID, sess.User, sess.Device, sess.ArriveStep, depart, chain, sess.FinalSat)
	}
	st.Render(os.Stdout)
	fmt.Printf("\noverall mean satisfaction %.2f, rejections %d\n",
		rep.MeanSatisfaction(), rep.TotalRejections())

	out := metrics.NewCounters()
	out.Add("scenario.steps", int64(len(rep.Steps)))
	out.Add("scenario.sessions", int64(len(rep.Sessions)))
	out.Add("scenario.rejections", int64(rep.TotalRejections()))
	out.SetGauge("scenario.mean_satisfaction", rep.MeanSatisfaction())
	dumpMetrics(out)
}

// runCluster runs the replicated-tier failover scenario under several
// seeds: each trial stands up a 3-node cluster over real sockets,
// creates Figure 6 sessions through the routing tier while WAL batches
// ship to rendezvous-elected followers, kills a seeded victim node, and
// verifies the promoted replica is byte-identical with zero leaked
// bandwidth and a fenced zombie. Any violation exits nonzero, so the
// run doubles as the CI cluster smoke check.
func runCluster(seed int64, trials int) {
	if trials <= 0 {
		trials = 1
	}
	fmt.Printf("adaptsim: cluster failover over Figure 6 — %d trials (seeds %d..%d)\n\n",
		trials, seed, seed+int64(trials)-1)
	// One counter sink across every trial, so the closing distributions
	// aggregate the sweep.
	counters := metrics.NewCounters()
	tb := metrics.NewTable("seed", "victim", "adopter", "shipped", "adopted",
		"identical", "recomposed", "leak kbps", "fenced", "served", "recovery ms")
	failed := false
	for i := 0; i < trials; i++ {
		dir, err := os.MkdirTemp("", "adaptsim-cluster-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptsim:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		rep, err := sim.RunCluster(sim.ClusterSpec{
			StateRoot: dir, Seed: seed + int64(i), Counters: counters,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "adaptsim: seed %d: %v\n", seed+int64(i), err)
			os.Exit(1)
		}
		tb.AddRow(rep.Seed, rep.Victim, rep.Adopter, rep.ShippedRecords, rep.Adopted,
			rep.HashesIdentical, rep.Recomposed, rep.LeakKbps, rep.ZombieFenced,
			rep.ServedAfterFailover, fmt.Sprintf("%.2f", rep.RecoveryMs))
		if !rep.OK() {
			failed = true
			fmt.Fprintf(os.Stderr, "adaptsim: seed %d: %s\n", rep.Seed, rep.Err)
		}
	}
	tb.Render(os.Stdout)
	fmt.Println()
	counters.Render(os.Stdout)
	if rl := counters.SampleSummary(metrics.SampleClusterRecoveryMs); rl.Count > 0 {
		fmt.Printf("\nrecovery latency (ms): n=%d mean=%.2f p50=%.2f p90=%.2f max=%.2f\n",
			rl.Count, rl.Mean, rl.P50, rl.P90, rl.Max)
	}
	if lag := counters.SampleSummary(metrics.SampleReplicationLag); lag.Count > 0 {
		fmt.Printf("replication lag (records behind at ship): n=%d mean=%.2f p50=%.2f p90=%.2f max=%.2f\n",
			lag.Count, lag.Mean, lag.P50, lag.P90, lag.Max)
	}
	dumpMetrics(counters)
	if failed {
		fmt.Println("\ncluster failover: FAIL")
		os.Exit(1)
	}
	fmt.Println("\ncluster failover: every adopted session byte-identical, zero leaked kbps, zombies fenced")
}

// runCrash kills a durable Figure 6 deployment at every journal
// failpoint under one seed and verifies the recovery contract: the
// journal replays to the last committed command, the rebuilt session
// state is byte-identical to the state recorded at that sequence, and
// after reconciliation no reserved bandwidth leaks. Any violation exits
// nonzero, so the run doubles as the CI crash-recovery smoke check.
func runCrash(seed int64) {
	fmt.Printf("adaptsim: crash-recovery over Figure 6 — %d failpoints (seed %d)\n\n",
		len(journal.AllFailPoints), seed)
	tb := metrics.NewTable("failpoint", "committed seq", "recovered seq", "sessions",
		"torn bytes", "identical", "reconciled", "leak kbps")
	// One counter set and tracer span every failpoint scenario, so the
	// closing tables aggregate the whole sweep.
	counters := metrics.NewCounters()
	tracer := trace.NewTracer(len(journal.AllFailPoints) * 64)
	failed := false
	for _, point := range journal.AllFailPoints {
		dir, err := os.MkdirTemp("", "adaptsim-crash-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptsim:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		rep, err := sim.RunCrash(sim.CrashSpec{
			StateDir: dir, Seed: seed, Point: point,
			Counters: counters, Tracer: tracer,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "adaptsim: %s: %v\n", point, err)
			os.Exit(1)
		}
		tb.AddRow(string(point), rep.CommittedSeq, rep.RecoveredSeq, rep.Sessions,
			rep.TruncatedBytes, rep.Identical, rep.Reconciled, rep.LeakKbps)
		if !rep.OK() {
			failed = true
			fmt.Fprintf(os.Stderr, "adaptsim: %s: %s\n", point, rep.Err)
		}
	}
	tb.Render(os.Stdout)
	// The verdict and the counters are deterministic; the histograms'
	// wall-clock part and the span summary come last (see
	// metrics.Counters.Render).
	if failed {
		fmt.Println("\ncrash recovery: FAIL")
	} else {
		fmt.Println("\ncrash recovery: every committed session recovered byte-identical, zero leaked kbps")
	}
	fmt.Println()
	counters.Render(os.Stdout)
	renderSpanStats(tracer)
	dumpMetrics(counters)
	if failed {
		os.Exit(1)
	}
}

// runStormCluster drives the storm-safe live-path scenario under
// several seeds: live /v1/sessions creates against a storm-attached
// primary whose WAL ships to a follower, a correlated backbone fault
// whose batch kills the primary's journal after the fault record and
// before the storm record, and a promotion whose Reconcile storm must
// re-plan to the reference run's byte-identical fingerprint with zero
// leaked bandwidth. Any violation
// exits nonzero, so the run doubles as the CI storm-cluster smoke
// check.
func runStormCluster(seed int64, trials int) {
	if trials <= 0 {
		trials = 1
	}
	fmt.Printf("adaptsim: storm-safe live path — %d trials (seeds %d..%d)\n\n",
		trials, seed, seed+int64(trials)-1)
	counters := metrics.NewCounters()
	tb := metrics.NewTable("seed", "classes", "sessions", "selects", "mismatches",
		"shipped", "killed", "pending", "replanned", "identical", "leak kbps", "recovery ms",
		"trace nodes", "1 storm id", "fed series")
	failed := false
	for i := 0; i < trials; i++ {
		dir, err := os.MkdirTemp("", "adaptsim-storm-cluster-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptsim:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		rep, err := sim.RunStormCluster(sim.StormClusterSpec{
			StateRoot: dir, Seed: seed + int64(i), Counters: counters,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "adaptsim: seed %d: %v\n", seed+int64(i), err)
			os.Exit(1)
		}
		tb.AddRow(rep.Seed, rep.Classes, rep.Sessions, rep.RefSelectCalls,
			rep.RefMismatches, rep.ShippedRecords, rep.Killed, rep.PendingLinks, rep.ReplannedClasses,
			rep.FingerprintsIdentical, fmt.Sprintf("%.3f", rep.LeakKbps),
			fmt.Sprintf("%.2f", rep.RecoveryMs),
			rep.TraceNodes, rep.FlightSingleID, rep.FederatedSeries)
		if !rep.OK() {
			failed = true
			fmt.Fprintf(os.Stderr, "adaptsim: seed %d: %s\n", rep.Seed, rep.Err)
		}
	}
	tb.Render(os.Stdout)
	fmt.Println()
	counters.Render(os.Stdout)
	dumpMetrics(counters)
	if failed {
		fmt.Println("\nstorm-safe live path: FAIL")
		os.Exit(1)
	}
	fmt.Println("\nstorm-safe live path: fault committed without its storm, promoted follower re-planned byte-identical, zero leaked kbps")
}

// runStorm injects a seeded correlated backbone event over a scaled
// multi-region Figure 6 deployment and mass re-composes every affected
// session by equivalence class. The run verifies the storm contract —
// sub-linear Select cost (≤ 0.05 calls per affected session), zero
// leaked bandwidth, and (with -storm-verify) byte-identical chains
// against the naive per-session re-evaluation — and exits nonzero on
// any violation, so it doubles as the CI storm smoke check.
func runStorm(seed int64, sessions, regions, classes int, verify bool) {
	fmt.Printf("adaptsim: backbone storm — %d sessions, %d regions × %d classes (seed %d, verify %v)\n\n",
		sessions, regions, classes, seed, verify)
	counters := metrics.NewCounters()
	rep, err := sim.RunStorm(sim.StormSpec{
		Seed:             seed,
		Sessions:         sessions,
		Regions:          regions,
		ClassesPerRegion: classes,
		Verify:           verify,
		Counters:         counters,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptsim:", err)
		os.Exit(1)
	}
	tb := metrics.NewTable("sessions", "classes", "backbone links", "affected classes",
		"affected sessions", "select calls", "selects/affected", "replanned",
		"degraded", "swap failed", "leak kbps")
	tb.AddRow(rep.Sessions, rep.Classes, rep.BackboneLinks, rep.AffectedClasses,
		rep.AffectedSessions, rep.SelectCalls, fmt.Sprintf("%.4f", rep.SelectsPerAff),
		rep.Replanned, rep.DegradedSessions, rep.SwapFailed,
		fmt.Sprintf("%.3f", rep.LeakKbps))
	tb.Render(os.Stdout)
	fmt.Printf("\ngraph cache: %d in-place refreshes, %d full rebuilds\n",
		rep.CacheRefreshes, rep.CacheRebuilds)
	if verify {
		fmt.Printf("equivalence: %d naive per-session checks, %d mismatches\n",
			rep.NaiveChecks, rep.Mismatches)
	}
	fmt.Printf("recovery: %.2f ms wall-clock for %d sessions\n", rep.RecoveryMs, rep.AffectedSessions)
	fmt.Println()
	counters.Render(os.Stdout)
	dumpMetrics(counters)
	if !rep.OK() {
		if rep.Err != "" {
			fmt.Fprintln(os.Stderr, "adaptsim:", rep.Err)
		}
		fmt.Println("\nbackbone storm: FAIL")
		os.Exit(1)
	}
	fmt.Println("\nbackbone storm: sub-linear re-composition, zero leaked kbps, chains equivalent")
}
