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
// The controller journals nothing itself. Its storm fan-out records
// flow through the manager's WAL (Config.Sink → walEvent{Op: "storm"}),
// interleaved in true order with the create/fault/reevaluate/delete
// commands, and class membership is derived state — replaying the
// manager's commands re-attaches every session and re-marks every
// pending link, while the storm records replay their recorded plans
// verbatim (no Select). That one WAL is exactly what the cluster tier
// ships, so a follower's replica manager rebuilds the full class state
// for free, and a primary that dies mid-storm leaves a begin-without-end
// the promoted follower finishes via ResumeOpenStorm — in the recorded
// priority order, with byte-identical resulting fingerprints.
//
// Managed sessions need no per-session quarantine: down hosts and
// links are marked on the region overlay itself, so every re-plan
// already routes around them, and the clock is virtual.

import (
	"context"
	"encoding/json"
	"errors"
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

// stormSink is the controller's journal: storm records append to the
// manager's WAL as Op "storm" commands, in true order relative to the
// session commands around them. Called with the controller's lock held;
// takes only m.mu (never attachMu), so it cannot deadlock against
// creates, which take the controller's lock without holding m.mu.
func (m *Manager) stormSink(kind string, data json.RawMessage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journalCommand(walEvent{Op: "storm", Kind: kind, Data: data})
}

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
		found := false
		for _, l := range net.Snapshot().Links {
			if l.From == f.From && l.To == f.To {
				if err := net.SetBandwidth(f.From, f.To, l.BandwidthKbps*f.Factor); err != nil {
					return err
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("session: no link %s->%s", f.From, f.To)
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
// trace: mutate the shared overlay, journal the command, then absorb
// the changed-link set with a storm — O(affected classes) Selects, not
// O(sessions). A storm already in flight keeps the links pending; they
// are absorbed by the next one.
func (ms *Managed) ApplyFaultCtx(ctx context.Context, f fault.Fault) error {
	m := ms.m
	if err := m.applyRegionFault(ms.region, f); err != nil {
		return err
	}
	m.mu.Lock()
	err := m.journalTraced(ctx, walEvent{Op: "fault", ID: ms.id, Fault: &f})
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if _, err := m.storm.Storm(); err != nil && !errors.Is(err, storm.ErrStormActive) {
		return err
	}
	return nil
}

// noteReason records a reevaluate attribution on both the session's
// private deterministic counters and the daemon-wide sink — the
// managed-session mirror of Session.NoteReevaluateReason.
func (ms *Managed) noteReason(reason string) {
	if reason == "" {
		return
	}
	ms.counters.Inc(metrics.CounterReevalPrefix + reason)
	ms.m.cfg.Counters.Inc(metrics.CounterReevalPrefix + reason)
}

// ReevaluateReasonCtx is ReevaluateReason under a context: a
// single-class storm over the session's equivalence class. Every class
// member gets the refreshed plan — re-evaluating one session of a class
// and not its twins would be a contradiction in terms. changed reports
// whether the session's chain was swapped since its previous
// reevaluate, by this re-plan or by a fault's storm in between.
func (ms *Managed) ReevaluateReasonCtx(ctx context.Context, reason string) (changed bool, evalErr, logErr error) {
	m := ms.m
	ms.mu.Lock()
	ms.step++
	ms.noteReason(reason)
	ms.mu.Unlock()
	m.mu.Lock()
	logErr = m.journalTraced(ctx, walEvent{Op: "reevaluate", ID: ms.id, Reason: reason})
	m.mu.Unlock()
	// A storm in flight (ErrStormActive) re-plans the class anyway.
	if _, err := m.storm.ReplanClass(ms.classKey); err != nil && !errors.Is(err, storm.ErrStormActive) {
		evalErr = err
	}
	v, _ := m.storm.MemberState(ms.id)
	ms.mu.Lock()
	changed = v.Swaps != ms.seenSwaps
	ms.seenSwaps = v.Swaps
	ms.mu.Unlock()
	return changed, evalErr, logErr
}

// replay re-applies one command against a session being rebuilt during
// recovery. Faults re-mutate the shared overlay and re-mark
// pending links but never trigger a storm — the journaled storm records
// replay the fan-outs exactly as they happened. Reevaluates restore the
// virtual clock and counters only, for the same reason.
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
		return nil
	default:
		return fmt.Errorf("unknown session op %q", ev.Op)
	}
}

// Reconcile is the post-recovery sweep. First any storm the journal
// left open (begin without end — the previous primary died mid-fan-out)
// is finished in its recorded priority order; the resumed fan-outs
// journal live through the sink like any other. Then every member's
// holds are audited against the region overlay: holds sitting on dead
// links mark those links pending, and one storm absorbs the whole batch
// — class-at-a-time, never per-session. The report is also recorded on
// the recovery report.
func (m *Manager) Reconcile() *ReconcileReport {
	rep := &ReconcileReport{}
	resumed, err := m.storm.ResumeOpenStorm()
	if err != nil {
		m.mu.Lock()
		m.replayError(fmt.Sprintf("storm resume: %v", err))
		m.mu.Unlock()
	}
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
	if _, err := m.storm.Storm(); err != nil && !errors.Is(err, storm.ErrStormActive) {
		m.mu.Lock()
		m.replayError(fmt.Sprintf("storm reconcile: %v", err))
		m.mu.Unlock()
	}
	if resumed != nil {
		rep.Recomposed += resumed.Replanned
	}
	sort.Strings(rep.Sessions)
	m.mu.Lock()
	m.recovery.Reconcile = rep
	m.mu.Unlock()
	return rep
}
