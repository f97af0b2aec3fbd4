package sim

// crash.go is the deterministic crash-recovery harness: it drives a
// persistent session.Manager over the paper's Figure 6 deployment while
// a seeded command schedule creates sessions (with bandwidth holds),
// injects host faults, and re-evaluates chains — then "kills" the
// process at an armed journal failpoint and recovers a fresh manager
// from the state directory.
//
// The harness records a fingerprint of the full session state after
// every committed command, keyed by journal sequence number. After the
// crash it checks the recovery contract:
//
//   - the recovered manager resumes at either the last committed
//     sequence before the crashed command or the crashed command's own
//     sequence (when its record reached the file before the "kill") —
//     never anywhere else;
//   - the recovered session state is byte-identical to the fingerprint
//     recorded at that sequence;
//   - after Reconcile, every bandwidth hold sits on a usable link and
//     each region overlay's total reserved bandwidth equals exactly what
//     its member sessions hold — zero leaked kbps.
//
// Everything derives from the seed: the schedule and the armed
// failpoint hit, so a failing run reproduces exactly.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"qoschain/internal/fault"
	"qoschain/internal/journal"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/paperexample"
	"qoschain/internal/profile"
	"qoschain/internal/service"
	"qoschain/internal/session"
	"qoschain/internal/storm"
	"qoschain/internal/trace"
)

// Figure6Set renders the paper's Figure 6 deployment as a profile.Set —
// the form a session is created from (and journaled as). The user's
// satisfaction is linear in frame rate with ideal 30 fps, matching the
// Table 1 configuration.
func Figure6Set() profile.Set {
	net := paperexample.Table1Network().Snapshot()
	sort.Slice(net.Links, func(i, j int) bool {
		if net.Links[i].From != net.Links[j].From {
			return net.Links[i].From < net.Links[j].From
		}
		return net.Links[i].To < net.Links[j].To
	})
	byHost := map[string][]*service.Service{}
	hosts := []string{}
	for _, svc := range paperexample.Table1Services(true) {
		if len(byHost[svc.Host]) == 0 {
			hosts = append(hosts, svc.Host)
		}
		byHost[svc.Host] = append(byHost[svc.Host], svc)
	}
	sort.Strings(hosts)
	var inter []profile.Intermediary
	for _, h := range hosts {
		inter = append(inter, profile.Intermediary{
			Host: h, CPUMips: 1000, MemoryMB: 256, Services: byHost[h],
		})
	}
	return profile.Set{
		User: profile.User{
			Name: "figure6-user",
			Preferences: map[media.Param]profile.FuncSpec{
				media.ParamFrameRate: profile.LinearSpec(0, 30),
			},
		},
		Content:        *paperexample.Table1Content(),
		Device:         *paperexample.Table1Device(),
		Network:        net,
		Intermediaries: inter,
	}
}

// CrashSpec configures one crash-recovery scenario.
type CrashSpec struct {
	// StateDir is the journal directory (a fresh temp dir per scenario).
	StateDir string
	// Seed derives the command schedule and the armed failpoint hit.
	Seed int64
	// Point is the journal failpoint the "kill" fires at.
	Point journal.FailPoint
	// Sessions is how many Figure 6 sessions the schedule creates
	// (default 2).
	Sessions int
	// Steps is how many fault/reevaluate commands the schedule issues
	// before topping up with re-evaluations until the failpoint fires
	// (default 12).
	Steps int
	// SnapshotEvery compacts the journal this often (default 5, small so
	// snapshot failpoints are reachable).
	SnapshotEvery int
	// Counters, when set, receives the journal.*/recovery.* metrics of
	// both the crashed run and its recovery — the caller typically shares
	// one sink across every scenario for an aggregate report. Tracing and
	// metrics never influence the journaled state, so the byte-identity
	// contract is unaffected.
	Counters *metrics.Counters
	// Tracer, when set, records one trace per driven command.
	Tracer *trace.Tracer
}

// CrashReport is one scenario's outcome.
type CrashReport struct {
	Point   journal.FailPoint `json:"point"`
	Seed    int64             `json:"seed"`
	Crashed bool              `json:"crashed"`
	// CommittedSeq is the last journaled sequence before the crashed
	// command; AppliedSeq the in-memory sequence at the instant of the
	// crash (equal to CommittedSeq when the record never reached the
	// file, one past it when it did).
	CommittedSeq uint64 `json:"committedSeq"`
	AppliedSeq   uint64 `json:"appliedSeq"`
	// RecoveredSeq is where the recovered manager resumed.
	RecoveredSeq   uint64 `json:"recoveredSeq"`
	Sessions       int    `json:"sessions"`
	TruncatedBytes int64  `json:"truncatedBytes"`
	// Identical reports the byte-identity check against the fingerprint
	// recorded at RecoveredSeq.
	Identical bool `json:"identical"`
	// Reconciled/ReleasedKbps summarize the post-recovery sweep.
	Reconciled   int     `json:"reconciled"`
	ReleasedKbps float64 `json:"releasedKbps"`
	// LeakKbps is overlay-reserved bandwidth no session accounts for
	// after Reconcile (must be 0).
	LeakKbps float64 `json:"leakKbps"`
	// Err describes a contract violation; empty means the scenario
	// passed.
	Err string `json:"err,omitempty"`
}

// OK reports whether the scenario crashed where armed and recovered
// within the contract.
func (r *CrashReport) OK() bool {
	return r.Crashed && r.Identical && r.LeakKbps == 0 && r.Err == ""
}

// managerFingerprint renders every session's canonical state, in ID
// order, as one string.
func managerFingerprint(m *session.Manager) (string, error) {
	var b strings.Builder
	for _, ms := range m.List() {
		fp, err := ms.Fingerprint()
		if err != nil {
			return "", err
		}
		b.WriteString(fp)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// regionLeak sums, over every region, the overlay's reserved total
// minus what the region's members hold. Sessions created over the same
// infrastructure share one region overlay, so the ledger balances per
// region, not per session.
func regionLeak(ctrl *storm.Controller) float64 {
	leak := 0.0
	for _, name := range ctrl.Regions() {
		leak += ctrl.RegionNet(name).TotalReservedKbps() - ctrl.HeldKbps(name)
	}
	return leak
}

// RunCrash executes one scenario: build, run, kill, recover, verify.
func RunCrash(spec CrashSpec) (*CrashReport, error) {
	if spec.Sessions <= 0 {
		spec.Sessions = 2
	}
	if spec.Steps <= 0 {
		spec.Steps = 12
	}
	if spec.SnapshotEvery == 0 {
		spec.SnapshotEvery = 5
	}
	rep := &CrashReport{Point: spec.Point, Seed: spec.Seed}
	rng := rand.New(rand.NewSource(spec.Seed))
	fp := journal.NewFailPoints()

	m, err := session.NewManager(session.ManagerConfig{
		StateDir:      spec.StateDir,
		SnapshotEvery: spec.SnapshotEvery,
		FailPoints:    fp,
		Counters:      spec.Counters,
	})
	if err != nil {
		return rep, fmt.Errorf("sim: opening state dir: %w", err)
	}

	// traced runs one driven command under a fresh trace when the spec
	// carries a tracer (a nil tracer yields a plain background context).
	traced := func(name string, run func(context.Context) error) error {
		ctx := context.Background()
		var tr *trace.Trace
		if spec.Tracer != nil {
			tr = spec.Tracer.Start(name)
			ctx = trace.NewContext(ctx, tr)
		}
		err := run(ctx)
		tr.Finish()
		return err
	}

	// states[seq] is the canonical session state after the command that
	// journaled seq committed.
	states := map[uint64]string{}
	record := func() error {
		s, err := managerFingerprint(m)
		if err != nil {
			return err
		}
		states[m.LastSeq()] = s
		return nil
	}
	if err := record(); err != nil {
		return rep, err
	}

	set := Figure6Set()
	var ids []string
	crashed := false
	// committedSeq tracks the last seq known journaled before each
	// command.
	step := func(run func() error) error {
		rep.CommittedSeq = m.LastSeq()
		err := run()
		if err != nil && journal.IsCrash(err) {
			crashed = true
			return nil
		}
		if err != nil {
			return err
		}
		return record()
	}

	// Create the sessions, then arm the failpoint somewhere inside the
	// fault/reevaluate schedule.
	for i := 0; i < spec.Sessions && !crashed; i++ {
		err := step(func() error {
			return traced("crash.create", func(ctx context.Context) error {
				_, err := m.CreateCtx(ctx, session.CreateSpec{
					Set: set, Floor: 0.3, Reserve: true,
				})
				return err
			})
		})
		if err != nil {
			return rep, fmt.Errorf("sim: creating session %d: %w", i, err)
		}
	}
	for _, ms := range m.List() {
		ids = append(ids, ms.ID())
	}
	fp.Arm(spec.Point, fp.Hits(spec.Point)+1+rng.Intn(spec.Steps))

	// Candidate hosts for crash/recover faults: the Figure 6 proxies.
	var downable []string
	for i := 1; i <= 20; i++ {
		downable = append(downable, fmt.Sprintf("p%d", i))
	}
	down := map[string]map[string]bool{}
	for _, id := range ids {
		down[id] = map[string]bool{}
	}

	for i := 0; i < spec.Steps && !crashed; i++ {
		id := ids[rng.Intn(len(ids))]
		ms, ok := m.Get(id)
		if !ok {
			return rep, fmt.Errorf("sim: session %s vanished", id)
		}
		var err error
		switch rng.Intn(3) {
		case 0: // crash or recover a host on this session's overlay
			host := downable[rng.Intn(len(downable))]
			f := fault.Fault{AtStep: 1, Kind: fault.HostCrash, Host: host}
			if down[id][host] {
				f.Kind = fault.HostRecover
			}
			err = step(func() error {
				return traced("crash.fault", func(ctx context.Context) error {
					return ms.ApplyFaultCtx(ctx, f)
				})
			})
			if err == nil && !crashed {
				down[id][host] = f.Kind == fault.HostCrash
			}
		default: // advance and re-evaluate
			err = step(func() error {
				return traced("crash.reevaluate", func(ctx context.Context) error {
					_, _, logErr := ms.ReevaluateCtx(ctx)
					return logErr
				})
			})
		}
		if err != nil {
			return rep, fmt.Errorf("sim: step %d: %w", i, err)
		}
	}
	// Top up with re-evaluations until the armed point fires (bounded).
	for extra := 0; !crashed && extra < 10*spec.Steps; extra++ {
		ms, _ := m.Get(ids[0])
		if err := step(func() error {
			return traced("crash.reevaluate", func(ctx context.Context) error {
				_, _, logErr := ms.ReevaluateCtx(ctx)
				return logErr
			})
		}); err != nil {
			return rep, fmt.Errorf("sim: top-up: %w", err)
		}
	}
	if !crashed {
		rep.Err = fmt.Sprintf("failpoint %s never fired", spec.Point)
		return rep, nil
	}
	rep.Crashed = true
	rep.AppliedSeq = m.LastSeq()
	// When the crashed command's record reached the file (the journal
	// sequence advanced), recovery may legitimately land on it — record
	// the applied in-memory state under that sequence. When it did not,
	// states[CommittedSeq] must stay the pre-crash fingerprint: the
	// command applied in memory but is not recoverable.
	if rep.AppliedSeq > rep.CommittedSeq {
		applied, err := managerFingerprint(m)
		if err != nil {
			return rep, err
		}
		states[rep.AppliedSeq] = applied
	}
	// The crashed process is gone; only the state directory survives.

	m2, err := session.NewManager(session.ManagerConfig{StateDir: spec.StateDir, Counters: spec.Counters})
	if err != nil {
		return rep, fmt.Errorf("sim: recovering: %w", err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	rep.RecoveredSeq = rec.LastSeq
	rep.Sessions = rec.Sessions
	rep.TruncatedBytes = rec.TruncatedBytes
	if len(rec.ReplayErrors) > 0 {
		rep.Err = "replay errors: " + strings.Join(rec.ReplayErrors, "; ")
		return rep, nil
	}
	if rep.RecoveredSeq != rep.CommittedSeq && rep.RecoveredSeq != rep.AppliedSeq {
		rep.Err = fmt.Sprintf("recovered at seq %d, want %d or %d",
			rep.RecoveredSeq, rep.CommittedSeq, rep.AppliedSeq)
		return rep, nil
	}
	got, err := managerFingerprint(m2)
	if err != nil {
		return rep, err
	}
	want := states[rep.RecoveredSeq]
	rep.Identical = got == want
	if !rep.Identical {
		rep.Err = fmt.Sprintf("state at seq %d diverged:\n got %s\nwant %s",
			rep.RecoveredSeq, got, want)
		return rep, nil
	}

	// Reconcile, then audit the holds: every hold sits on a live link,
	// and every reservation a region overlay carries is accounted for by
	// its members.
	sweep := m2.Reconcile()
	rep.Reconciled = sweep.Recomposed
	rep.ReleasedKbps = sweep.ReleasedKbps
	for _, ms := range m2.List() {
		for _, r := range ms.Held() {
			if !ms.Net().Usable(r.From, r.To) {
				rep.Err = fmt.Sprintf("session %s holds %s->%s on an unusable link",
					ms.ID(), r.From, r.To)
				return rep, nil
			}
		}
	}
	rep.LeakKbps = regionLeak(m2.StormController())
	if rep.LeakKbps != 0 {
		rep.Err = fmt.Sprintf("leaked %.1f kbps of reservations", rep.LeakKbps)
	}
	return rep, nil
}
