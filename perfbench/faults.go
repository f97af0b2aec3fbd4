package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"qoschain/internal/metrics"
)

// faultConfig sizes the fault-storm workload.
type faultConfig struct {
	scales   []float64 // one region per Figure 6 capacity scale
	classes  int       // floors, so classes, per region
	perClass int       // sessions per class
	steps    int       // measured collapse/restore steps per trial
	factor   float64   // bandwidth collapse multiplier
	// target picks the link a step collapses, given the picked
	// session's current chain.
	target func(r *region, path []string) (from, to string, err error)
}

var defaultFaults = faultConfig{
	scales: []float64{1000, 1500, 2000, 2500}, classes: 8, perClass: 32,
	steps: 200, factor: 1e-4, target: (*region).firstHop,
}

// faultSchedule draws the session each step faults through: an index
// into the set-up sessions.
func faultSchedule(seed int64, sessions, steps int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, steps)
	for i := range out {
		out[i] = rng.Intn(sessions)
	}
	return out
}

func bandwidthFault(from, to string, factor float64) []byte {
	return []byte(fmt.Sprintf(`{"kind":"bandwidth","from":%q,"to":%q,"factor":%g}`, from, to, factor))
}

// faultSession is one set-up session and the region it was created in.
type faultSession struct {
	id string
	rg *region
}

// runFaults is one fault-storm trial. Each measured step reads a
// session's current chain, collapses the bandwidth of the chain's
// first-hop link (the headline operation: the storm re-plans every
// class crossing the link before the reply), then posts the inverse
// fault. A collapse that re-plans nothing fails the trial.
func runFaults(cfg faultConfig, dir string, seed int64, traced bool) (*trialResult, error) {
	res := newTrialResult()
	setupStart := time.Now()
	d, err := startDaemon(dir, traced)
	if err != nil {
		return nil, err
	}
	defer d.close()
	var sessions []faultSession
	var regions []*region
	for _, scale := range cfg.scales {
		rg, err := newRegion(scale, cfg.classes)
		if err != nil {
			return nil, err
		}
		regions = append(regions, rg)
		for c := 0; c < cfg.classes; c++ {
			for k := 0; k < cfg.perClass; k++ {
				_, id, err := rg.create(d, c)
				if err != nil {
					return nil, err
				}
				sessions = append(sessions, faultSession{id: id, rg: rg})
			}
		}
	}
	res.setupS = time.Since(setupStart).Seconds()

	var tr *faultTrace
	if traced {
		tr = newFaultTrace(d)
	}
	cache0 := d.mgr.StormController().CacheStats()
	snaps0 := d.snapshots()
	mem := startMem()
	phaseStart := time.Now()
	for _, pick := range faultSchedule(seed, len(sessions), cfg.steps) {
		s := sessions[pick]
		rep, err := d.call("GET", "/v1/sessions/"+s.id, nil, 200)
		res.ops.note("get", err != nil)
		if err != nil {
			return res, err
		}
		if tr != nil {
			takeMs(&d.backend.getNs)
		}
		before, err := decodeState(rep.body)
		if err != nil {
			return res, err
		}
		from, to, err := cfg.target(s.rg, before.Path)
		if err != nil {
			return res, err
		}
		snaps := d.snapshots()
		rep, err = d.call("POST", "/v1/sessions/"+s.id+"/fault", bandwidthFault(from, to, cfg.factor), 200)
		if err == nil {
			err = checkReplanned(rep, before, from, to)
		}
		res.ops.note("collapse", err != nil)
		if err != nil {
			return res, err
		}
		res.noteHeadline(rep.ms, d.snapshots() > snaps)
		if tr != nil {
			tr.afterCollapse(rep)
		}
		factor, err := restoreFactor(d, s, from, to)
		if err != nil {
			return res, err
		}
		_, err = d.call("POST", "/v1/sessions/"+s.id+"/fault", bandwidthFault(from, to, factor), 200)
		res.ops.note("restore", err != nil)
		if err != nil {
			return res, err
		}
		if tr != nil {
			tr.afterRestore()
		}
	}
	res.phaseS = time.Since(phaseStart).Seconds()
	res.headline = res.ops.attempts["collapse"]
	mallocs, bytes, gcs, pauseMs := mem.done()
	res.heapMB = liveHeapMB()
	if err := leakCheck(d.mgr); err != nil {
		return res, err
	}
	if tr != nil {
		cache := d.mgr.StormController().CacheStats()
		hits, misses := float64(cache.Hits-cache0.Hits), float64(cache.Misses-cache0.Misses)
		tr.report(res.layers, res.headline)
		res.layers.set("session.snapshots", "count", float64(d.snapshots()-snaps0))
		res.layers.set("graph.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
		res.layers.set("graph.repairs_per_op", "count", float64(cache.Repairs-cache0.Repairs)/float64(res.headline))
		res.layers.set("session.snapshot_bytes", "B", newestSnapshotBytes(dir))
		res.layers.set("core.select_ms", "ms", selectMs(d, regions[0], sessions[0].id, 0))
		attempted, _ := res.ops.totals()
		reportRuntime(res.layers, mallocs, bytes, gcs, pauseMs, attempted, 0)
	}
	// Few, long trials: restart twice so one preempted reopen does not
	// decide the trial's restart time.
	if res.recoverS, err = d.restart(2); err != nil {
		return res, err
	}
	return res, nil
}

// restoreFactor is the factor of the fault that undoes a collapse. A
// bandwidth fault multiplies the link's unreserved bandwidth, not its
// capacity, so the plain inverse factor would leave the link short by
// whatever was reserved on it at the collapse, compounding every step.
// The inverse is the set-up capacity over what is unreserved now.
func restoreFactor(d *daemon, s faultSession, from, to string) (float64, error) {
	ctrl := d.mgr.StormController()
	v, ok := ctrl.MemberState(s.id)
	if !ok {
		return 0, fmt.Errorf("session %s is no storm member", s.id)
	}
	capKbps, reserved, ok := ctrl.RegionNet(v.Region).Capacity(from, to)
	if !ok {
		return 0, fmt.Errorf("no link %s->%s", from, to)
	}
	if capKbps-reserved <= 0 {
		return 0, fmt.Errorf("collapsed link %s->%s still holds %.0f kbps of reservations", from, to, reserved)
	}
	return s.rg.capacity(from, to) / (capKbps - reserved), nil
}

// checkReplanned verifies a collapse reply: the faulted session's class
// moved to another chain, so the storm re-planned at least that class.
func checkReplanned(rep reply, before sessionState, from, to string) error {
	after, err := decodeState(rep.body)
	if err != nil {
		return err
	}
	if strings.Join(after.Path, ",") == strings.Join(before.Path, ",") || after.Recompositions <= before.Recompositions {
		return fmt.Errorf("collapse %s->%s re-planned no class: session %s stays on %v", from, to, before.ID, before.Path)
	}
	return nil
}

// faultTrace gathers the traced run's per-layer readings around each
// collapse.
type faultTrace struct {
	d                       *daemon
	appends, fsyncs, runs   *histTail
	counters                map[string]int64
	httpSelf, sessionSelf   []float64
	journalSelf, stormSelf  []float64
	recoveries              []float64
	appendAll, fsyncAll     []float64
	records                 int
	classes, selects, moved int64
}

var stormCounters = []string{metrics.CounterStormClasses, metrics.CounterStormSelectCalls, metrics.CounterStormSessionsReplanned}

func newFaultTrace(d *daemon) *faultTrace {
	t := &faultTrace{
		d:        d,
		appends:  newHistTail(d.reg, metrics.HistJournalAppendMs),
		fsyncs:   newHistTail(d.reg, metrics.HistJournalFsyncMs),
		runs:     newHistTail(d.reg, metrics.SampleStormRecoveryMs),
		counters: map[string]int64{},
	}
	for _, c := range stormCounters {
		t.counters[c] = d.reg.CounterValue(c)
	}
	return t
}

func (t *faultTrace) delta(name string) int64 {
	v := t.d.reg.CounterValue(name)
	dv := v - t.counters[name]
	t.counters[name] = v
	return dv
}

// afterCollapse splits one collapse into layers. The handler looks the
// session up (timed backend Get), journals the fault record (the
// request's journal.append span: the first append, plus a snapshot if
// that record made one due), then runs the storm, whose own records
// journal through the same log. So: session = Get + the span beyond
// its append; journal = every append; storm = storm run time less the
// appends inside it; httpapi = the rest of the round trip.
func (t *faultTrace) afterCollapse(rep reply) {
	get := takeMs(&t.d.backend.getNs)
	appends := t.appends.next()
	t.appendAll = append(t.appendAll, appends...)
	t.fsyncAll = append(t.fsyncAll, t.fsyncs.next()...)
	runs := t.runs.next()
	t.recoveries = append(t.recoveries, runs...)
	span, _ := t.d.spanMs(rep.trace, "journal.append")
	first := 0.0
	if len(appends) > 0 {
		first = appends[0]
	}
	stormMs := sum(runs)
	t.sessionSelf = append(t.sessionSelf, get+span-first)
	t.journalSelf = append(t.journalSelf, sum(appends))
	t.stormSelf = append(t.stormSelf, stormMs-(sum(appends)-first))
	t.httpSelf = append(t.httpSelf, rep.ms-get-span-stormMs)
	t.records += len(appends)
	t.classes += t.delta(metrics.CounterStormClasses)
	t.selects += t.delta(metrics.CounterStormSelectCalls)
	t.moved += t.delta(metrics.CounterStormSessionsReplanned)
}

// afterRestore drops the inverse fault's readings from the collapse
// attribution, keeping its journal samples for the journal percentiles.
func (t *faultTrace) afterRestore() {
	takeMs(&t.d.backend.getNs)
	t.appendAll = append(t.appendAll, t.appends.next()...)
	t.fsyncAll = append(t.fsyncAll, t.fsyncs.next()...)
	t.runs.next()
	for _, c := range stormCounters {
		t.delta(c)
	}
}

func (t *faultTrace) report(r *report, headline int) {
	n := float64(headline)
	r.set("httpapi.self_ms", "ms", mean(t.httpSelf))
	r.set("session.self_ms", "ms", mean(t.sessionSelf))
	r.set("journal.self_ms", "ms", mean(t.journalSelf))
	r.set("storm.self_ms", "ms", mean(t.stormSelf))
	reportJournal(r, t.appendAll, t.fsyncAll, float64(t.records)/n)
	r.set("storm.recovery_p50_ms", "ms", percentile(t.recoveries, 0.5))
	r.set("storm.recovery_p99_ms", "ms", percentile(t.recoveries, 0.99))
	r.set("storm.classes_per_op", "count", float64(t.classes)/n)
	r.set("storm.selects_per_op", "count", float64(t.selects)/n)
	r.set("storm.replanned_per_op", "count", float64(t.moved)/n)
}
