package session

import (
	"fmt"

	"qoschain/internal/graph"
	"qoschain/internal/pipeline"
)

// StreamOn instantiates the session's current chain and pushes n
// synthetic source frames through it on a shared executor: the chain is
// submitted to ex's worker pool, which is how a daemon runs thousands of
// concurrent sessions' data planes. The pipeline is built against the
// *current* overlay state, so a degraded link shows up as loss even
// before the next re-evaluation. It blocks until the chain drains (or
// fails/cancels).
func (s *Session) StreamOn(ex *pipeline.Executor, n int, opts pipeline.Options) (pipeline.Stats, error) {
	p, err := s.pipeline(opts)
	if err != nil {
		return pipeline.Stats{}, err
	}
	h, err := ex.Submit(p, n)
	if err != nil {
		return pipeline.Stats{}, fmt.Errorf("session: %w", err)
	}
	return h.Wait(), nil
}

// pipeline builds a fresh chain instance from the session's current
// selection result against the current overlay state. Session-level
// defaults are applied: the selection's bitrate model, and the session's
// metrics sink (so pipeline.* series land next to the session's own)
// unless the caller supplies their own.
func (s *Session) pipeline(opts pipeline.Options) (*pipeline.Pipeline, error) {
	if s.current == nil || !s.current.Found {
		return nil, fmt.Errorf("session: no active chain to stream")
	}
	g, err := graph.Build(graph.Input{
		Content:      s.cfg.Content,
		Device:       s.cfg.Device,
		Services:     s.cfg.Services,
		Net:          s.cfg.Net,
		SenderHost:   s.cfg.SenderHost,
		ReceiverHost: s.cfg.ReceiverHost,
	})
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	if opts.Bitrate == nil {
		opts.Bitrate = s.cfg.Select.Bitrate
	}
	if opts.Metrics == nil {
		opts.Metrics = s.cfg.Failover.Metrics
	}
	p, err := pipeline.FromResult(g, s.current, opts)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return p, nil
}
