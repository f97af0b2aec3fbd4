package session

import (
	"fmt"

	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/trace"
)

// Bandwidth reservation: when Config.ReserveBandwidth is set, an admitted
// session holds its chain's bitrate on every inter-host link it crosses,
// so concurrent sessions see only the remaining capacity — the admission
// control a shared proxy infrastructure needs. The hold is taken with
// overlay.ReserveChain, atomically across the whole chain: a session that
// would oversubscribe any link is rejected before activation, with
// nothing to roll back, and the typed overlay.ErrInsufficientCapacity
// surfaces to callers (httpapi maps it to 503). Re-evaluation releases
// the old chain's holds and re-reserves the new chain's.

// chainBitrate is the bandwidth the current chain's delivered parameters
// require.
func (s *Session) chainBitrate() float64 {
	model := s.cfg.Select.Bitrate
	if model == nil {
		model = media.DefaultBitrate
	}
	return model.RequiredKbps(s.current.Params)
}

// reserveCurrent atomically holds the chain's bitrate on each
// consecutive host pair. On an oversubscribed link nothing is held and
// the typed capacity error is reported.
func (s *Session) reserveCurrent() error {
	if s.current == nil || !s.current.Found {
		return nil
	}
	kbps := s.chainBitrate()
	if kbps <= 0 {
		return nil
	}
	hosts := s.Hosts()
	rs := make([]overlay.Reservation, 0, len(hosts)-1)
	for i := 1; i < len(hosts); i++ {
		if hosts[i-1] == hosts[i] {
			continue
		}
		rs = append(rs, overlay.Reservation{From: hosts[i-1], To: hosts[i], Kbps: kbps})
	}
	if len(rs) == 0 {
		return nil
	}
	sp := s.tr.StartSpan("session.reserve", trace.Int("links", len(rs)))
	if err := s.cfg.Net.ReserveChain(rs); err != nil {
		sp.End(trace.Str("outcome", "rejected"))
		s.cfg.Failover.Metrics.Inc(metrics.CounterCapacityRejected)
		return fmt.Errorf("session: admitting chain: %w", err)
	}
	sp.End(trace.Str("outcome", "reserved"))
	s.held = rs
	s.cfg.Failover.Metrics.Observe(metrics.SampleReservedKbps, kbps)
	return nil
}

// releaseCurrent returns every held reservation.
func (s *Session) releaseCurrent() {
	if len(s.held) == 0 {
		return
	}
	s.cfg.Net.ReleaseChain(s.held)
	s.held = nil
}

// Close releases the session's reservations; the session must not be
// used afterwards.
func (s *Session) Close() {
	s.releaseCurrent()
}

// Held returns the session's live reservations as taken (one entry per
// hop, not aggregated per link) — the shares recovery must re-establish
// or release after a restart.
func (s *Session) Held() []overlay.Reservation {
	return append([]overlay.Reservation(nil), s.held...)
}

// Reserved reports the bandwidth currently held per link (links a chain
// crosses twice report the summed share).
func (s *Session) Reserved() map[string]float64 {
	out := make(map[string]float64, len(s.held))
	for _, r := range s.held {
		out[r.From+"->"+r.To] += r.Kbps
	}
	return out
}
