package main

import (
	"math/rand"
	"time"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/metrics"
)

// churnConfig sizes the session-churn workload.
type churnConfig struct {
	population int     // live sessions after set-up, and the level creates and deletes hover around
	classes    int     // equivalence classes (distinct floors) in the one region
	journaled  int     // creates plus deletes per trial; gets come on top
	linkScale  float64 // Figure 6 bandwidth multiplier
}

// Each trial journals one snapshot period (adaptd snapshots every 64
// journaled commands), so every trial's one snapshot falls at the same
// journal position and costs the same.
var defaultChurn = churnConfig{population: 256, classes: 8, journaled: 64, linkScale: 2000}

// snapshotEvery is adaptd's default -snapshot-every.
const snapshotEvery = 64

// churnSnapshotOnCreate says whether trial i's snapshot lands on a
// create. Left to the seeded draw, the number of creates that compact
// the journal varies from run to run, and with it where p99 falls
// among them; fixing it at exactly half the trials (alternating in
// pairs, so the untraced and traced halves of a traced run are
// balanced too) leaves about one create in 64 on a snapshot in every
// run, well above the one in 100 that p99 looks at.
func churnSnapshotOnCreate(i int) bool { return (i/2)%2 == 0 }

// churnOp is one scheduled operation. pick indexes the live-session
// list for get and delete; class picks the floor for create.
type churnOp struct {
	kind  string
	class int
	pick  int
}

const (
	opCreate = "create"
	opGet    = "get"
	opDelete = "delete"
)

// churnSchedule draws operations from the seed until cfg.journaled
// creates and deletes are scheduled. A fifth of the draws are gets;
// the rest are creates and deletes, with the create probability pulled
// towards keeping the population at its set-up level. The one
// exception is the snapshotAt-th create or delete (1-based), the
// command that makes the journal snapshot: it is a create when
// onCreate holds and a delete otherwise.
func churnSchedule(seed int64, cfg churnConfig, snapshotAt int, onCreate bool) []churnOp {
	rng := rand.New(rand.NewSource(seed))
	pop := cfg.population
	var out []churnOp
	for journaled := 0; journaled < cfg.journaled; {
		var op churnOp
		pCreate := 0.5 + float64(cfg.population-pop)/64
		get := rng.Float64() < 0.2
		create := rng.Float64() < pCreate
		if journaled+1 == snapshotAt {
			create = onCreate
		}
		switch {
		case pop > 0 && get:
			op = churnOp{kind: opGet, pick: rng.Intn(pop)}
		case pop == 0 || create:
			op = churnOp{kind: opCreate, class: rng.Intn(cfg.classes)}
			pop++
			journaled++
		default:
			op = churnOp{kind: opDelete, pick: rng.Intn(pop)}
			pop--
			journaled++
		}
		out = append(out, op)
	}
	return out
}

// runChurn is one session-churn trial: set-up, the measured phase,
// then the restart.
func runChurn(cfg churnConfig, dir string, seed int64, snapshotOnCreate, traced bool) (*trialResult, error) {
	res := newTrialResult()
	setupStart := time.Now()
	rg, err := newRegion(cfg.linkScale, cfg.classes)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, traced)
	if err != nil {
		return nil, err
	}
	defer d.close()
	live := make([]string, 0, cfg.population*2)
	for i := 0; i < cfg.population; i++ {
		_, id, err := rg.create(d, i%cfg.classes)
		if err != nil {
			return nil, err
		}
		live = append(live, id)
	}
	res.setupS = time.Since(setupStart).Seconds()

	// The journal snapshots when its command count since the last
	// snapshot reaches snapshotEvery; set-up leaves it at LastSeq mod 64.
	sched := churnSchedule(seed, cfg, snapshotEvery-int(d.mgr.LastSeq()%snapshotEvery), snapshotOnCreate)
	var tr *churnTrace
	if traced {
		tr = newChurnTrace(d)
	}
	snaps0 := d.snapshots()
	mem := startMem()
	phaseStart := time.Now()
	for _, op := range sched {
		var (
			rep reply
			err error
		)
		switch op.kind {
		case opCreate:
			var id string
			snaps := d.snapshots()
			if rep, id, err = rg.create(d, op.class); err == nil {
				live = append(live, id)
				res.noteHeadline(rep.ms, d.snapshots() > snaps)
			}
		case opGet:
			rep, err = d.call("GET", "/v1/sessions/"+live[op.pick], nil, 200)
		case opDelete:
			rep, err = d.call("DELETE", "/v1/sessions/"+live[op.pick], nil, 200)
			live[op.pick] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		res.ops.note(op.kind, err != nil)
		if err != nil {
			return res, err
		}
		if tr != nil {
			tr.after(op.kind, rep)
		}
	}
	res.phaseS = time.Since(phaseStart).Seconds()
	res.headline = res.ops.attempts[opCreate]
	mallocs, bytes, gcs, pauseMs := mem.done()
	res.heapMB = liveHeapMB()
	if err := leakCheck(d.mgr); err != nil {
		return res, err
	}
	if tr != nil {
		tr.report(res.layers, res.headline)
		res.layers.set("session.snapshots", "count", float64(d.snapshots()-snaps0))
		res.layers.set("session.snapshot_bytes", "B", newestSnapshotBytes(dir))
		res.layers.set("core.select_ms", "ms", selectMs(d, rg, live[0], 0))
		reportRuntime(res.layers, mallocs, bytes, gcs, pauseMs, len(sched), 0)
	}
	if res.recoverS, err = d.restart(1); err != nil {
		return res, err
	}
	return res, nil
}

// churnTrace gathers the traced run's per-layer readings, one
// operation at a time, from outside the program: backend call times
// from the timed backend, and registry deltas around each call.
type churnTrace struct {
	d                     *daemon
	appends, fsyncs, runs *histTail
	httpSelf, sessionSelf []float64
	journalSelf, stormMs  []float64
	createMs, deleteMs    []float64
	records               int64
	appendAll, fsyncAll   []float64
}

func newChurnTrace(d *daemon) *churnTrace {
	return &churnTrace{
		d:       d,
		appends: newHistTail(d.reg, metrics.HistJournalAppendMs),
		fsyncs:  newHistTail(d.reg, metrics.HistJournalFsyncMs),
		runs:    newHistTail(d.reg, metrics.SampleStormRecoveryMs),
	}
}

func (t *churnTrace) after(kind string, rep reply) {
	appends := t.appends.next()
	t.appendAll = append(t.appendAll, appends...)
	t.fsyncAll = append(t.fsyncAll, t.fsyncs.next()...)
	storms := sum(t.runs.next())
	switch kind {
	case opCreate:
		backend := takeMs(&t.d.backend.createNs)
		t.createMs = append(t.createMs, backend)
		t.httpSelf = append(t.httpSelf, rep.ms-backend)
		t.journalSelf = append(t.journalSelf, sum(appends))
		t.sessionSelf = append(t.sessionSelf, backend-sum(appends)-storms)
		t.stormMs = append(t.stormMs, storms)
		t.records += int64(len(appends))
	case opDelete:
		t.deleteMs = append(t.deleteMs, takeMs(&t.d.backend.deleteNs))
	case opGet:
		takeMs(&t.d.backend.getNs)
	}
}

func (t *churnTrace) report(r *report, headline int) {
	n := float64(headline)
	r.set("httpapi.self_ms", "ms", mean(t.httpSelf))
	r.set("session.self_ms", "ms", mean(t.sessionSelf))
	r.set("journal.self_ms", "ms", mean(t.journalSelf))
	r.set("storm.self_ms", "ms", mean(t.stormMs))
	r.set("session.create_ms", "ms", mean(t.createMs))
	r.set("session.delete_ms", "ms", mean(t.deleteMs))
	reportJournal(r, t.appendAll, t.fsyncAll, float64(t.records)/n)
}

func reportJournal(r *report, appends, fsyncs []float64, recordsPerOp float64) {
	r.set("journal.append_p50_ms", "ms", percentile(appends, 0.5))
	r.set("journal.append_p99_ms", "ms", percentile(appends, 0.99))
	r.set("journal.fsync_p50_ms", "ms", percentile(fsyncs, 0.5))
	r.set("journal.fsync_p99_ms", "ms", percentile(fsyncs, 0.99))
	r.set("journal.records_per_op", "count", recordsPerOp)
}

// reportRuntime records the Go runtime's share over a measured phase
// of ops operations (frames > 0 adds the per-frame allocation rates).
func reportRuntime(r *report, mallocs, bytes, gcs uint64, pauseMs float64, ops, frames int) {
	r.set("runtime.gc_cycles", "count", float64(gcs))
	r.set("runtime.gc_pause_ms", "ms", pauseMs)
	r.set("runtime.alloc_kb_per_op", "KiB", float64(bytes)/1024/float64(ops))
	if frames > 0 {
		r.set("transcode.allocs_per_frame", "count", float64(mallocs)/float64(frames))
		r.set("transcode.bytes_per_frame", "B", float64(bytes)/float64(frames))
	}
}

// selectMs times core.Select on the live region graph of the session's
// region with class c's config: the median of repeated calls.
func selectMs(d *daemon, rg *region, sessionID string, c int) float64 {
	ctrl := d.mgr.StormController()
	v, ok := ctrl.MemberState(sessionID)
	if !ok {
		return 0
	}
	in := rg.in
	in.Net = ctrl.RegionNet(v.Region)
	g, err := graph.Build(in)
	if err != nil {
		return 0
	}
	return timeSelect(g, rg.configs[c])
}

func timeSelect(g *graph.Graph, cfg core.Config) float64 {
	const reps = 31
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := core.Select(g, cfg); err != nil {
			return 0
		}
		ts = append(ts, float64(time.Since(start))/1e6)
	}
	return median(ts)
}
