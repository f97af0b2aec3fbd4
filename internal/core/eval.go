package core

import (
	"math"
	"slices"

	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/satisfaction"
)

// edgeEvaluator runs the per-candidate optimization of Figure 4 Steps 2/8
// with all scratch state reused across calls. Select performs one
// evaluation per relaxation; the seed implementation's per-call map
// allocations (the caps clone plus Profile.Optimize's internals)
// dominated its allocation profile.
//
// Not safe for concurrent use; it lives in a Select scratch, which one
// run owns at a time.
type edgeEvaluator struct {
	g    *graph.Graph
	cfg  Config
	opt  satisfaction.Optimizer
	caps media.Params // scratch, rebuilt per eval
}

// reset points the evaluator at a graph and configuration, keeping its
// scratch maps.
func (ev *edgeEvaluator) reset(g *graph.Graph, cfg *Config) {
	ev.g = g
	ev.cfg = *cfg
	ev.opt.Reset(cfg.Profile)
	if ev.caps == nil {
		ev.caps = make(media.Params, 8)
	}
}

// eval computes the outcome of sending the stream over edge e given the
// QoS parameters and accumulated cost at the upstream vertex. The
// returned params alias the evaluator's scratch and are only valid until
// the next eval call — Clone to keep them. The arithmetic matches
// EvalEdge exactly.
func (ev *edgeEvaluator) eval(upstreamParams media.Params, upstreamCost float64, e *graph.Edge) (params media.Params, sat, cost float64, ok bool) {
	node, exists := ev.g.Node(e.To)
	if !exists {
		return nil, 0, 0, false
	}
	caps := ev.caps
	clear(caps)
	for k, v := range upstreamParams {
		caps[k] = v
	}
	// A parameter the user scores but the upstream stream does not
	// carry cannot be conjured by a trans-coder: cap it at zero. (The
	// content profile defines what the source offers; trans-coding only
	// reduces quality.)
	for _, name := range ev.opt.Params() {
		if _, present := caps[name]; !present {
			caps[name] = 0
		}
	}
	var domains map[media.Param]satisfaction.Domain
	cost = upstreamCost + e.TransmissionCost
	bandwidth := e.BandwidthKbps
	if math.IsInf(bandwidth, 1) {
		bandwidth = 0 // satisfaction.Request: <= 0 means unlimited
	}
	if node.Service != nil {
		minInto(caps, node.Service.Caps)
		domains = node.Service.Domains
		cost += node.Service.Cost
		// Host resource constraints (Section 4.3): the intermediary
		// must hold the service in memory, and its CPU bounds the input
		// bitrate it can trans-code — effectively a second bandwidth
		// cap on the edge.
		if host, declared := ev.g.HostResources(node.Host); declared {
			if node.Service.MemoryMB > host.MemoryMB {
				return nil, 0, 0, false
			}
			if node.Service.CPUPerKbps > 0 && host.CPUMips > 0 {
				cpuCap := host.CPUMips / node.Service.CPUPerKbps
				if bandwidth <= 0 || cpuCap < bandwidth {
					bandwidth = cpuCap
				}
			}
		}
	} else if node.IsReceiver() && ev.cfg.ReceiverCaps != nil {
		minInto(caps, ev.cfg.ReceiverCaps)
	}
	if ev.cfg.Budget > 0 && cost > ev.cfg.Budget {
		return nil, 0, 0, false
	}
	params, sat, ok = ev.opt.Optimize(satisfaction.Request{
		Caps:      caps,
		Domains:   domains,
		Bitrate:   ev.cfg.Bitrate,
		Bandwidth: bandwidth,
	})
	if !ok {
		return nil, 0, 0, false
	}
	return params, sat, cost, true
}

// minInto applies other as an element-wise cap on p, in place — the
// mutating equivalent of media.Params.Min.
func minInto(p, other media.Params) {
	for k, v := range p {
		if ov, ok := other[k]; ok && ov < v {
			p[k] = ov
		}
	}
}

// EvalEdge computes the outcome of sending the stream over edge e given
// the QoS parameters and accumulated cost at the upstream vertex: the
// parameters deliverable at e.To, the user's satisfaction with them, and
// the new accumulated cost. ok is false when the edge is unusable — the
// bandwidth cannot carry the stream at all, or the accumulated cost would
// exceed the budget.
//
// This is the per-candidate optimization of Figure 4 Steps 2/8 with the
// Equation 2 bandwidth constraint, shared by the greedy algorithm and by
// the baselines in internal/baseline. Select uses the scratch-reusing
// edgeEvaluator internally; this wrapper returns freshly allocated
// params.
func EvalEdge(g *graph.Graph, cfg Config, upstreamParams media.Params, upstreamCost float64, e *graph.Edge) (params media.Params, sat, cost float64, ok bool) {
	s := getScratch()
	defer s.release()
	ev := &s.ev
	ev.reset(g, &cfg)
	params, sat, cost, ok = ev.eval(upstreamParams, upstreamCost, e)
	if ok {
		params = params.Clone()
	}
	return params, sat, cost, ok
}

// EvalPath evaluates a complete edge sequence from the sender: the first
// edge must leave the sender (its SourceParams seed the stream) and each
// subsequent edge must start where the previous ended. It returns the
// delivered parameters, satisfaction and cost at the end of the path.
// ok is false for an empty, discontinuous or unusable path, or one that
// repeats a format (the distinct-format acyclicity rule).
func EvalPath(g *graph.Graph, cfg Config, edges []*graph.Edge) (params media.Params, sat, cost float64, ok bool) {
	if len(edges) == 0 || edges[0].From != graph.SenderID {
		return nil, 0, 0, false
	}
	s := getScratch()
	defer s.release()
	ev := &s.ev
	ev.reset(g, &cfg)
	params = edges[0].SourceParams
	at := graph.SenderID
	for i, e := range edges {
		if e.From != at || slices.ContainsFunc(edges[:i], func(p *graph.Edge) bool { return p.Format == e.Format }) {
			return nil, 0, 0, false
		}
		params, sat, cost, ok = ev.eval(params, cost, e)
		if !ok {
			return nil, 0, 0, false
		}
		at = e.To
	}
	return params.Clone(), sat, cost, true
}

// PathEdges resolves a planned chain back to the graph's edge objects,
// so the chain can be re-scored with EvalPath against a rebuilt or
// refreshed graph. Each hop takes the first out-edge of the previous node
// that reaches the path's next node in the result's format. ok is false
// when an edge no longer exists.
func PathEdges(g *graph.Graph, res *Result) ([]*graph.Edge, bool) {
	edges := make([]*graph.Edge, 0, len(res.Formats))
	at := graph.SenderID
	for i, to := range res.Path[1:] {
		var found *graph.Edge
		for _, e := range g.Out(at) {
			if e.To == to && e.Format == res.Formats[i] {
				found = e
				break
			}
		}
		if found == nil {
			return nil, false
		}
		edges = append(edges, found)
		at = to
	}
	return edges, true
}
