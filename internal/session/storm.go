package session

// storm.go is how the manager composes: through its embedded storm
// controller (internal/storm), the one re-composition authority. The
// paper's Select picks a chain from a user's profiles and the current
// link bandwidths, so sessions with equal profiles on the same network
// get the same chain — a session is just an equivalence class of one.
// Each create derives a shared region from the session's network
// profile, folds the session into a storm equivalence class
// (fingerprint-keyed ClassSpec), and lets the controller own all
// re-composition — one Select per affected class per event, one atomic
// SwapChain per reserving member, one reservation ledger (the region
// overlay).
//
// The controller journals nothing itself. Storm returns each storm as
// one record, which the manager appends as a
// walEvent{Op: "storm"} in the same batch as the fault or reevaluate
// that caused it. Class membership is derived state — replaying the
// manager's commands re-attaches every session and re-marks every
// pending link — while the storm records replay their recorded plans
// verbatim (no Select). That one WAL is exactly what the cluster tier
// ships, so a follower's replica manager rebuilds the full class state
// for free. A primary that dies between a command's record and its
// storm record leaves the follower the command without its storm; the
// promoted follower's Reconcile re-plans what it left pending, and
// because the priority order is a function of state it reaches the
// fingerprints the dead primary had.
//
// Down hosts and links are marked on the region overlay itself and
// down services in its pool, so every re-plan already routes around
// them. Graceful degradation is the controller's too: a class whose
// best chain falls below its floor adopts that chain marked degraded,
// and a class with no chain at all keeps its last one, marked
// degraded, until a later storm finds a replacement.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"qoschain/internal/fault"
	"qoschain/internal/graph"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/profile"
	"qoschain/internal/storm"
)

// StormController exposes the embedded controller — the daemon mounts
// its Status on /healthz and the harnesses read fingerprints off it.
func (m *Manager) StormController() *storm.Controller { return m.storm }

// stormRegionName fingerprints the infrastructure half of a profile set
// — the network topology and deployed intermediaries — into a region
// name, so sessions created over the same infrastructure share one
// overlay and one service pool.
func stormRegionName(set *profile.Set) string {
	data, err := json.Marshal(struct {
		Network        any `json:"network"`
		Intermediaries any `json:"intermediaries"`
	}{set.Network, set.Intermediaries})
	if err != nil {
		return "r-unmarshalable"
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("r%016x", h.Sum64())
}

// build validates a spec and attaches a session to its storm
// equivalence class under the given ID — the single path live creation
// and replay share, so they cannot diverge. Region and class
// registration are idempotent; only the first session of a fingerprint
// pays for a Select.
func (m *Manager) build(id string, spec CreateSpec) (*Managed, error) {
	set := spec.Set
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	satProfile, err := set.User.SatisfactionProfile(profile.ContactClass(spec.Contact))
	if err == nil {
		err = satProfile.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	regionName := stormRegionName(&set)
	if !m.storm.HasRegion(regionName) {
		net, err := overlay.FromProfile(set.Network)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		svcs := graph.CollectServices(set.Intermediaries)
		if err := m.storm.EnsureRegion(storm.Region{
			Name:       regionName,
			Net:        net,
			Services:   svcs,
			SenderHost: "sender",
			// ReceiverHost stays empty: each class resolves its receiver
			// to its own device ID.
		}); err != nil {
			return nil, err
		}
	}
	cls, err := m.storm.EnsureClass(storm.ClassSpec{
		Region:  regionName,
		Content: set.Content,
		Device:  set.Device,
		User:    set.User,
		Contact: profile.ContactClass(spec.Contact),
		Floor:   spec.Floor,
	})
	if err != nil {
		return nil, err
	}
	if _, err := m.storm.AttachSession(cls.Key(), id, spec.Reserve); err != nil {
		return nil, err
	}
	return &Managed{
		m:        m,
		id:       id,
		net:      m.storm.RegionNet(regionName),
		pool:     m.storm.RegionServices(regionName),
		counters: metrics.NewCounters(),
		classKey: cls.Key(),
		region:   regionName,
	}, nil
}

// applyRegionFault mutates the shared region overlay and marks the
// fault's changed-link set pending for the next storm — the one
// mutation path live faults and replayed faults share. Mutations are
// idempotent (a host two sessions both crash fails once), because in a
// shared region the same physical event can arrive through more than
// one session. Service faults (de)register the service in the region's
// pool and mark its host's links pending.
func (m *Manager) applyRegionFault(regionName string, f fault.Fault) error {
	net := m.storm.RegionNet(regionName)
	if net == nil {
		return fmt.Errorf("session: unknown region %q", regionName)
	}
	switch f.Kind {
	case fault.HostCrash:
		if !net.HostDown(f.Host) {
			if err := net.FailHost(f.Host); err != nil {
				return err
			}
		}
	case fault.HostRecover:
		if net.HostDown(f.Host) {
			if err := net.RecoverHost(f.Host); err != nil {
				return err
			}
		}
	case fault.LinkDown:
		if !net.LinkDown(f.From, f.To) {
			if err := net.FailLink(f.From, f.To); err != nil {
				return err
			}
		}
	case fault.LinkUp:
		if net.LinkDown(f.From, f.To) {
			if err := net.RecoverLink(f.From, f.To); err != nil {
				return err
			}
		}
	case fault.BandwidthCollapse:
		// The factor scales the unreserved bandwidth. Capacity reads a
		// down link too, so a collapse during an outage still lands.
		capacity, reserved, ok := net.Capacity(f.From, f.To)
		if !ok {
			return fmt.Errorf("session: no link %s->%s", f.From, f.To)
		}
		if err := net.SetBandwidth(f.From, f.To, max(capacity-reserved, 0)*f.Factor); err != nil {
			return err
		}
	case fault.BandwidthRestore:
		if err := net.SetBandwidth(f.From, f.To, f.Factor); err != nil {
			return err
		}
	case fault.LossSpike:
		if err := net.SetLoss(f.From, f.To, f.LossRate); err != nil {
			return err
		}
	case fault.DelaySpike:
		if err := net.SetDelay(f.From, f.To, f.DelayMs); err != nil {
			return err
		}
	case fault.ServiceDown, fault.ServiceUp:
		return m.storm.SetServiceDown(regionName, f.Service, f.Kind == fault.ServiceDown)
	default:
		return fmt.Errorf("session: unsupported fault kind %q", f.Kind)
	}
	links := fault.ChangedLinks([]fault.Fault{f}, net)
	return m.storm.NotePending(regionName, links)
}

// ApplyFault injects one fault against the session's region, journaling
// it on success.
func (ms *Managed) ApplyFault(f fault.Fault) error {
	return ms.ApplyFaultCtx(context.Background(), f)
}

// ApplyFaultCtx is ApplyFault under a context carrying the request
// trace: mutate the shared overlay, absorb the changed-link set with a
// storm — O(affected classes) Selects, not O(sessions) — then journal
// the fault and the storm's record in one batch.
func (ms *Managed) ApplyFaultCtx(ctx context.Context, f fault.Fault) error {
	m := ms.m
	m.cmdMu.Lock()
	defer m.cmdMu.Unlock()
	if err := m.applyRegionFault(ms.region, f); err != nil {
		return err
	}
	_, rec, err := m.storm.Storm()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journalTraced(ctx, walEvent{Op: "fault", ID: ms.id, Fault: &f}, rec)
}

// noteReason records a reevaluate attribution on both the session's
// private deterministic counters and the daemon-wide sink. An empty
// reason records nothing.
func (ms *Managed) noteReason(reason string) {
	if reason == "" {
		return
	}
	ms.counters.Inc(metrics.CounterReevalPrefix + reason)
	ms.m.cfg.Counters.Inc(metrics.CounterReevalPrefix + reason)
}

// ReevaluateReasonCtx is ReevaluateReason under a context: the
// session's equivalence class is marked for re-planning and a storm
// runs, journaled in one batch with the reevaluate command. Every class
// member gets the refreshed plan — re-evaluating one session of a class
// and not its twins would be a contradiction in terms. changed reports whether the
// session's chain was swapped since its previous reevaluate, by this
// re-plan or by a fault's storm in between.
func (ms *Managed) ReevaluateReasonCtx(ctx context.Context, reason string) (changed bool, evalErr, logErr error) {
	m := ms.m
	m.cmdMu.Lock()
	defer m.cmdMu.Unlock()
	ms.mu.Lock()
	ms.step++
	ms.noteReason(reason)
	ms.mu.Unlock()
	var rec json.RawMessage
	if evalErr = m.storm.NoteReplan(ms.classKey); evalErr == nil {
		_, rec, evalErr = m.storm.Storm()
	}
	m.mu.Lock()
	logErr = m.journalTraced(ctx, walEvent{Op: "reevaluate", ID: ms.id, Reason: reason}, rec)
	m.mu.Unlock()
	v, _ := m.storm.MemberState(ms.id)
	ms.mu.Lock()
	changed = v.Swaps != ms.seenSwaps
	ms.seenSwaps = v.Swaps
	ms.mu.Unlock()
	return changed, evalErr, logErr
}

// replay re-applies one command against a session being rebuilt during
// recovery. Faults re-mutate the shared overlay and re-mark pending
// links but never trigger a storm — the journaled storm records replay
// the fan-outs exactly as they happened. Reevaluates restore the
// virtual clock and counters and mark the class for re-planning as the
// live path does; the storm record that follows replays the re-plan and
// clears the mark.
func (ms *Managed) replay(ev walEvent) error {
	switch ev.Op {
	case "fault":
		if ev.Fault == nil {
			return fmt.Errorf("fault command without fault")
		}
		return ms.m.applyRegionFault(ms.region, *ev.Fault)
	case "reevaluate":
		ms.step++
		ms.noteReason(ev.Reason)
		return ms.m.storm.NoteReplan(ms.classKey)
	default:
		return fmt.Errorf("unknown session op %q", ev.Op)
	}
}

// Reconcile is the post-recovery sweep. Every member's holds are
// audited against the region overlay: holds sitting on dead links mark
// those links pending. Then one storm absorbs everything pending —
// those links, and whatever a command whose storm record did not
// survive the crash left pending — class-at-a-time, never
// per-session, and its record is journaled on its own. The report is
// also recorded on the recovery report.
func (m *Manager) Reconcile() *ReconcileReport {
	m.cmdMu.Lock()
	defer m.cmdMu.Unlock()
	rep := &ReconcileReport{}
	for _, ms := range m.List() {
		rep.Checked++
		v, ok := m.storm.MemberState(ms.id)
		if !ok {
			continue
		}
		net := m.storm.RegionNet(v.Region)
		if net == nil {
			continue
		}
		var bad []overlay.LinkRef
		stale := 0.0
		for _, r := range v.Held {
			if !net.Usable(r.From, r.To) {
				bad = append(bad, overlay.LinkRef{From: r.From, To: r.To})
				stale += r.Kbps
			}
		}
		if len(bad) == 0 {
			continue
		}
		if err := m.storm.NotePending(v.Region, bad); err != nil {
			continue
		}
		rep.Recomposed++
		rep.ReleasedKbps += stale
		rep.Sessions = append(rep.Sessions, ms.id)
		m.cfg.Counters.Inc(metrics.CounterRecoveryReconciled)
		if stale > 0 {
			m.cfg.Counters.Observe(metrics.SampleRecoveryReleasedKbps, stale)
		}
	}
	sort.Strings(rep.Sessions)
	_, rec, err := m.storm.Storm()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil && rec != nil {
		err = m.journalCommand(walEvent{Op: "storm", Kind: storm.RecordKind, Data: rec}, nil)
	}
	if err != nil {
		m.replayError(fmt.Sprintf("storm reconcile: %v", err))
	}
	m.recovery.Reconcile = rep
	return rep
}
