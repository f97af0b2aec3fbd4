package session

import (
	"errors"
	"sort"
	"strings"

	"qoschain/internal/core"
	"qoschain/internal/metrics"
	"qoschain/internal/service"
	"qoschain/internal/trace"
)

// ServicePool is a live view over the deployed services — typically a
// *fault.ServiceSet. When a session has one, it composes against
// Alive() instead of the static Config.Services list, so crashed hosts
// and deregistered services drop out of candidate chains immediately.
type ServicePool interface {
	Alive() []*service.Service
}

// FailoverConfig tunes the session's failure handling. The zero value
// disables failover entirely, preserving the strict error-returning
// behavior of plain sessions.
type FailoverConfig struct {
	// Enabled turns failover on.
	Enabled bool
	// SatisfactionFloor is the minimum acceptable satisfaction for a
	// recovered chain. Below it the session degrades gracefully: it
	// adopts the best below-floor chain rather than dying. 0 accepts
	// anything.
	SatisfactionFloor float64
	// Metrics receives failover counters; nil is a valid no-op sink.
	Metrics *metrics.Counters
}

// Reevaluate reason tokens: who asked for a re-composition. They are
// journaled with the reevaluate command and appended to
// metrics.CounterReevalPrefix, so the failover.* series tell a
// storm-driven mass re-plan apart from a client request or a
// fault-recovery sweep.
const (
	// ReevalManual marks client- or driver-requested re-evaluations.
	ReevalManual = "manual"
	// ReevalFault marks re-evaluations forced by fault handling (the
	// post-recovery Reconcile sweep, dead-link cleanup).
	ReevalFault = "fault"
	// ReevalStorm marks re-evaluations driven by the storm controller's
	// class fan-out.
	ReevalStorm = "storm"
)

// NoteReevaluateReason attributes the next re-evaluation to its driver
// in the failover.* metrics. An empty reason records nothing — that is
// what replaying a journal from before reasons existed produces, so
// live and replayed counter state stay byte-identical.
func (s *Session) NoteReevaluateReason(reason string) {
	if reason == "" {
		return
	}
	s.cfg.Failover.Metrics.Inc(metrics.CounterReevalPrefix + reason)
}

// quarantineSteps is how many session ticks a failed host or service
// stays excluded from composition after a failure was pinned on it.
const quarantineSteps = 8

// FailoverStatus is the externally visible failure-handling state.
type FailoverStatus struct {
	// Enabled mirrors the config.
	Enabled bool `json:"enabled"`
	// Degraded is true while the session runs below its satisfaction
	// floor (or with no viable chain at all).
	Degraded bool `json:"degraded"`
	// Failovers counts failovers entered.
	Failovers int `json:"failovers"`
	// Quarantined lists active exclusions ("host:p3", "svc:t7"), sorted.
	Quarantined []string `json:"quarantined,omitempty"`
	// LastError describes the most recent unrecovered failure, if any.
	LastError string `json:"lastError,omitempty"`
}

// Tick advances the session's virtual clock one step and re-admits
// quarantined hosts and services whose sentence has expired. Drive loops
// and the simulator call it once per step.
func (s *Session) Tick() {
	s.step++
	for key, until := range s.quarantine {
		if until <= s.step {
			delete(s.quarantine, key)
		}
	}
}

// CurrentStep returns the session's virtual clock.
func (s *Session) CurrentStep() int { return s.step }

// QuarantineHost excludes a host's services from composition for
// quarantineSteps ticks.
func (s *Session) QuarantineHost(host string) {
	s.quarantineKey("host:" + host)
}

// QuarantineService excludes one service from composition for
// quarantineSteps ticks.
func (s *Session) QuarantineService(id service.ID) {
	s.quarantineKey("svc:" + string(id))
}

func (s *Session) quarantineKey(key string) {
	if s.quarantine == nil {
		s.quarantine = make(map[string]int)
	}
	if _, already := s.quarantine[key]; !already {
		s.cfg.Failover.Metrics.Inc(metrics.CounterQuarantined)
	}
	s.quarantine[key] = s.step + quarantineSteps
}

// Quarantined returns the active exclusions, sorted.
func (s *Session) Quarantined() []string {
	out := make([]string, 0, len(s.quarantine))
	for key := range s.quarantine {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// Degraded reports whether the session is running below its
// satisfaction floor (or without a viable fresh chain).
func (s *Session) Degraded() bool { return s.degraded }

// FailoverStatus snapshots the failure-handling state.
func (s *Session) FailoverStatus() FailoverStatus {
	st := FailoverStatus{
		Enabled:     s.cfg.Failover.Enabled,
		Degraded:    s.degraded,
		Failovers:   s.failovers,
		Quarantined: s.Quarantined(),
	}
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	return st
}

// liveServices returns the composition candidates: the live pool (when
// attached) minus quarantined hosts and services.
func (s *Session) liveServices() []*service.Service {
	svcs := s.cfg.Services
	if s.cfg.Pool != nil {
		svcs = s.cfg.Pool.Alive()
	}
	if len(s.quarantine) == 0 {
		return svcs
	}
	out := make([]*service.Service, 0, len(svcs))
	for _, svc := range svcs {
		if s.quarantine["host:"+svc.Host] > s.step {
			continue
		}
		if s.quarantine["svc:"+string(svc.ID)] > s.step {
			continue
		}
		out = append(out, svc)
	}
	return out
}

// OnStageFailure reacts to a pipeline StageFailure: the culprit service
// (and its host) is quarantined and the session fails over. Link and
// sender-side stages trigger failover without quarantine — the overlay
// already reflects link failures. The stage argument is the failing
// element's ID as reported by pipeline.StageFailure.Stage. It returns
// whether the session switched chains.
func (s *Session) OnStageFailure(stage string) (bool, error) {
	if !strings.HasPrefix(stage, "link:") && !strings.HasPrefix(stage, "shaper:") {
		id := service.ID(stage)
		s.QuarantineService(id)
		for _, svc := range s.cfg.Services {
			if svc.ID == id && svc.Host != "" {
				s.QuarantineHost(svc.Host)
				break
			}
		}
	}
	if !s.cfg.Failover.Enabled {
		return s.Reevaluate()
	}
	if s.cfg.ReserveBandwidth {
		s.releaseCurrent()
		defer s.reserveCurrent() //nolint:errcheck // degraded sessions may not fit; tracked via lastErr
	}
	return s.failover()
}

// failover re-composes once after a failure. Select is deterministic
// over one network snapshot, so composing again before the next tick or
// fault would return the same answer; those get their own reevaluation.
// It never returns a hard error: it adopts a chain clearing the
// satisfaction floor, else degrades gracefully to the best below-floor
// chain, and as a last resort keeps the previous chain in a degraded
// state (a total partition leaves nothing better to stream over).
func (s *Session) failover() (bool, error) {
	m := s.cfg.Failover.Metrics
	m.Inc(metrics.CounterFailovers)
	s.failovers++
	if !s.degraded {
		s.degraded = true
		s.downSince = s.step
		m.Inc(metrics.CounterDegraded)
	}

	sp := s.tr.StartSpan("failover.attempt")
	res, err := s.composeWith(s.liveServices(), s.cfg.Failover.SatisfactionFloor)
	switch {
	case err == nil:
		sp.End(trace.Str("outcome", "recovered"))
		s.adoptFailover(res, "failover")
		return true, nil
	case errors.Is(err, core.ErrBelowFloor) && res != nil && res.Found:
		sp.End(trace.Str("outcome", "below_floor"))
		s.lastErr = err
		s.recordChange("failover-degraded", res)
		return true, nil
	default:
		// Nothing composes at all (total partition): keep the last chain.
		sp.End(trace.Str("outcome", "error"))
		s.lastErr = err
		return false, nil
	}
}

// adoptFailover installs a recovered chain and closes out the outage
// bookkeeping.
func (s *Session) adoptFailover(res *core.Result, reason string) {
	m := s.cfg.Failover.Metrics
	s.recordChange(reason, res)
	m.Inc(metrics.CounterRecovered)
	if s.degraded {
		m.Observe(metrics.SampleRecoverySteps, float64(s.step-s.downSince))
		s.degraded = false
	}
	s.lastErr = nil
}

// recordChange appends to history and swaps the current chain.
func (s *Session) recordChange(reason string, res *core.Result) {
	from := ""
	if s.current != nil {
		from = core.PathString(s.current.Path)
	}
	s.history = append(s.history, Change{
		Reason:       reason,
		From:         from,
		To:           core.PathString(res.Path),
		Satisfaction: res.Satisfaction,
	})
	s.current = res
}
