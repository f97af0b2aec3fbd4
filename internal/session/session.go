// Package session manages the lifetime of one adaptation session: it
// composes the initial trans-coding chain, watches the overlay network,
// and re-runs the QoS selection algorithm when the network drifts away
// from what the current chain was negotiated for — the dynamic adaptation
// to "fluctuating network resources" Section 3 calls for.
package session

import (
	"context"
	"fmt"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/profile"
	"qoschain/internal/service"
	"qoschain/internal/trace"
)

// Config assembles a session.
type Config struct {
	// Content/Device/Services describe the endpoints and the deployed
	// trans-coding services (hosts stamped).
	Content  *profile.Content
	Device   *profile.Device
	Services []*service.Service
	// Net is the live overlay the session watches.
	Net *overlay.Network
	// SenderHost/ReceiverHost locate the endpoints on the overlay.
	SenderHost, ReceiverHost string
	// Select parameterizes the QoS selection algorithm.
	Select core.Config
	// Tolerance is the satisfaction slack before re-composition: the
	// session switches chains only when a fresh selection would improve
	// satisfaction by more than Tolerance, or when the current chain
	// degraded/broke. Default 0.02.
	Tolerance float64
	// ReserveBandwidth makes the session hold its chain's bitrate on
	// every inter-host link it crosses (admission control): concurrent
	// sessions then compose against the remaining capacity only.
	ReserveBandwidth bool
	// Pool, when set, overrides Services as the composition candidate
	// source: the session composes against Pool.Alive() so failed hosts
	// and deregistered services drop out immediately. Services is still
	// used as the full directory for host lookups.
	Pool ServicePool
	// Failover carries the session's metrics sink.
	Failover FailoverConfig
}

// ServicePool is a live view over the deployed services — typically a
// *fault.ServiceSet. When a session has one, it composes against
// Alive() instead of the static Config.Services list, so crashed hosts
// and deregistered services drop out of candidate chains immediately.
type ServicePool interface {
	Alive() []*service.Service
}

// FailoverConfig holds the session's metrics sink.
type FailoverConfig struct {
	// Metrics receives reevaluate-reason, capacity and pipeline
	// counters; nil is a valid no-op sink.
	Metrics *metrics.Counters
}

// Reevaluate reason tokens: who asked for a re-composition. They are
// journaled with the reevaluate command and appended to
// metrics.CounterReevalPrefix, so the failover.reevaluate_* series tell
// a storm-driven mass re-plan apart from a client request or a
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

// Sample records a session's state after one simulated step (the
// simulator's per-session trace).
type Sample struct {
	// Step is the 1-based virtual-time index.
	Step int
	// Path is the active chain.
	Path string
	// Satisfaction is the chain's current satisfaction.
	Satisfaction float64
	// Recomposed reports whether this step switched chains.
	Recomposed bool
	// Degraded reports whether the step's re-evaluation failed: the
	// chain broke, nothing replaced it, and the session kept its last
	// chain.
	Degraded bool
}

// Change records one re-composition. The JSON tags match the session
// status resource httpapi serves.
type Change struct {
	// Reason is "degraded", "broken" or "improved".
	Reason string `json:"reason"`
	// From/To are the chain paths before and after.
	From string `json:"from"`
	To   string `json:"to"`
	// Satisfaction is the post-change satisfaction.
	Satisfaction float64 `json:"satisfaction"`
}

// Session is a live adaptation session.
type Session struct {
	cfg     Config
	current *core.Result
	history []Change
	held    []overlay.Reservation

	// tr is the trace of the request currently driving the session, set
	// transiently by the *Ctx entry points. It never influences session
	// state, so replayed sessions (which run without one) stay
	// byte-identical to live ones.
	tr *trace.Trace
}

// New composes the initial chain. It fails when no chain exists at all,
// or when the best chain falls below Select.SatisfactionFloor.
func New(cfg Config) (*Session, error) {
	return NewCtx(context.Background(), cfg)
}

// NewCtx is New under a context: when the context carries a trace
// (internal/trace), the initial composition's graph build, selection
// rounds and bandwidth reservation record spans on it.
func NewCtx(ctx context.Context, cfg Config) (*Session, error) {
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.02
	}
	s := &Session{cfg: cfg, tr: trace.FromContext(ctx)}
	defer func() { s.tr = nil }()
	res, err := s.compose()
	if err != nil {
		return nil, err
	}
	s.current = res
	if cfg.ReserveBandwidth {
		if err := s.reserveCurrent(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// liveServices returns the composition candidates: the live pool when
// one is attached, else the static service list.
func (s *Session) liveServices() []*service.Service {
	if s.cfg.Pool != nil {
		return s.cfg.Pool.Alive()
	}
	return s.cfg.Services
}

// compose rebuilds the graph from the live services and selects a chain
// at the configured satisfaction floor.
func (s *Session) compose() (*core.Result, error) {
	g, err := graph.Build(graph.Input{
		Content:      s.cfg.Content,
		Device:       s.cfg.Device,
		Services:     s.liveServices(),
		Net:          s.cfg.Net,
		SenderHost:   s.cfg.SenderHost,
		ReceiverHost: s.cfg.ReceiverHost,
	})
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	// Thread the driving request's trace (if any) into the selection so
	// core.SelectCtx records its spans; a nil trace makes this a plain
	// background context and SelectCtx behaves exactly like Select.
	res, err := core.SelectCtx(trace.NewContext(context.Background(), s.tr), g, s.cfg.Select)
	if err != nil {
		return res, fmt.Errorf("session: %w", err)
	}
	return res, nil
}

// Result returns the current chain.
func (s *Session) Result() *core.Result { return s.current }

// History returns the recorded re-compositions.
func (s *Session) History() []Change { return s.history }

// Recompositions returns how many times the session switched chains.
func (s *Session) Recompositions() int { return len(s.history) }

// currentAchievable re-scores the current chain under the present
// network: it rebuilds the graph and evaluates the current path's edges.
// ok is false when the chain no longer exists (an edge disappeared or can
// no longer carry the stream).
func (s *Session) currentAchievable() (float64, bool) {
	g, err := graph.Build(graph.Input{
		Content:      s.cfg.Content,
		Device:       s.cfg.Device,
		Services:     s.liveServices(),
		Net:          s.cfg.Net,
		SenderHost:   s.cfg.SenderHost,
		ReceiverHost: s.cfg.ReceiverHost,
	})
	if err != nil {
		return 0, false
	}
	edges, ok := core.PathEdges(g, s.current)
	if !ok {
		return 0, false
	}
	_, sat, _, ok := core.EvalPath(g, s.cfg.Select, edges)
	return sat, ok
}

// Reevaluate checks the session against the current network state and
// re-composes when warranted. It returns whether the chain changed.
// When even a fresh composition fails (network partitioned), the session
// keeps its last chain and reports the error. A reserving session
// releases its share for the duration of the check so its own
// reservation does not masquerade as congestion, then re-admits the
// chain it ends up with.
func (s *Session) Reevaluate() (changed bool, err error) {
	return s.ReevaluateCtx(context.Background())
}

// ReevaluateCtx is Reevaluate under a context: a trace carried by the
// context records the re-composition's graph/selection/reservation spans.
func (s *Session) ReevaluateCtx(ctx context.Context) (changed bool, err error) {
	s.tr = trace.FromContext(ctx)
	defer func() { s.tr = nil }()
	if s.cfg.ReserveBandwidth {
		s.releaseCurrent()
		defer func() {
			if rerr := s.reserveCurrent(); rerr != nil && err == nil {
				err = rerr
			}
		}()
	}
	return s.reevaluate()
}

func (s *Session) reevaluate() (bool, error) {
	achievable, alive := s.currentAchievable()

	fresh, err := s.compose()
	if err != nil {
		if !alive {
			return false, fmt.Errorf("session: current chain broken and no replacement: %w", err)
		}
		// Current chain still works; stay on it.
		return false, nil
	}

	reason := ""
	switch {
	case !alive:
		reason = "broken"
	case achievable < s.current.Satisfaction-s.cfg.Tolerance:
		// The network degraded under the current chain.
		reason = "degraded"
	case fresh.Satisfaction > achievable+s.cfg.Tolerance:
		// A different chain is now substantially better.
		reason = "improved"
	default:
		// Keep the current chain, but track its achievable level.
		s.current.Satisfaction = achievable
		return false, nil
	}

	s.recordChange(reason, fresh)
	return true, nil
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

// Hosts returns the ordered hosts of the current chain (sender host,
// service hosts, receiver host), used to decide whether a network event
// touches the session.
func (s *Session) Hosts() []string {
	hosts := []string{s.cfg.SenderHost}
	for _, id := range s.current.Path[1 : len(s.current.Path)-1] {
		for _, svc := range s.cfg.Services {
			if service.ID(id) == svc.ID {
				hosts = append(hosts, svc.Host)
				break
			}
		}
	}
	return append(hosts, s.cfg.ReceiverHost)
}
