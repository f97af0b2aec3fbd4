// Package core implements the paper's primary contribution: the QoS
// selection algorithm of Section 4.4 (Figure 4).
//
// The algorithm finds the chain of trans-coding services from the sender
// to the receiver that maximizes the user's satisfaction with the
// delivered content. It is a greedy best-first expansion — Dijkstra with
// satisfaction as the (maximized) label — over the adaptation graph. Two
// sets drive it: VT, the already-considered services, and CS, the
// candidate services reachable from VT. Each iteration moves the
// highest-satisfaction candidate into VT and relaxes its neighbors,
// stopping when the receiver is selected or CS empties (failure).
//
// Because every trans-coding service can only reduce quality (Section
// 4.4's optimality argument, Figure 5), satisfaction is non-increasing
// along any path, which makes the greedy expansion return the true
// optimum; the property tests in this package and the exhaustive baseline
// in internal/baseline verify this.
//
// The implementation works on the graph's interned vertex and format
// indices: per-vertex state lives in flat slices, the acyclicity rule's
// format set is an immutable bitset (formatMask), labels come from a
// bump arena, and the per-relaxation optimization reuses scratch buffers
// (edgeEvaluator). The equivalence tests in equivalence_test.go pin the
// results — including tie-breaking — to a direct transliteration of the
// Figure 4 pseudocode.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/satisfaction"
	"qoschain/internal/trace"
)

// ErrNoChain is returned when the receiver cannot be reached through any
// trans-coding path (Figure 4, Step 3: TERMINATE(FAILURE)).
var ErrNoChain = errors.New("core: no adaptation chain from sender to receiver")

// ErrBelowFloor is returned when a chain exists but even the best one
// falls below Config.SatisfactionFloor. The Result is still fully
// populated (Found, path, params, satisfaction) so callers that prefer a
// degraded chain over none — the session failover path — can adopt it
// deliberately.
var ErrBelowFloor = errors.New("core: best chain falls below the satisfaction floor")

// Config parameterizes one selection run.
type Config struct {
	// Profile is the user's satisfaction profile — the optimization
	// objective.
	Profile satisfaction.Profile
	// Bitrate converts QoS parameters into required bandwidth
	// (Equation 2's bandwidth_requirement). Nil uses
	// media.DefaultBitrate.
	Bitrate media.BitrateModel
	// Budget is the user's monetary budget for the chain (Figure 4's
	// user_budget); <= 0 means unlimited.
	Budget float64
	// ReceiverCaps bounds the QoS parameters the receiving device can
	// render (screen resolution, colour depth); nil imposes no bound.
	ReceiverCaps media.Params
	// Trace records the per-round state (Table 1) when true.
	Trace bool
	// SatisfactionFloor is the minimum acceptable total satisfaction for
	// a chain (a QoS guarantee): when the best chain scores below it,
	// Select returns the chain together with ErrBelowFloor. 0 disables
	// the floor. Because the greedy expansion pops the receiver at the
	// global optimum, the check is exact.
	SatisfactionFloor float64
	// Scan selects candidates with the linear scan Figure 4 implies
	// instead of the default priority queue (lazy deletion). Results
	// are identical (same tie-breaking); the ablation benchmark
	// compares the two on large graphs.
	Scan bool
}

// Result reports the selected chain.
type Result struct {
	// Found is false when no chain exists (the result still carries the
	// trace rounds explored before failure).
	Found bool
	// Path is the vertex sequence sender … receiver.
	Path []graph.NodeID
	// Formats are the media formats flowing over each edge of Path
	// (len(Path)-1 entries).
	Formats []media.Format
	// Params are the QoS parameter values delivered to the receiver.
	Params media.Params
	// Satisfaction is the user's satisfaction with the delivered
	// content — the value the algorithm maximized.
	Satisfaction float64
	// Cost is the accumulated monetary cost of the chain.
	Cost float64
	// Expanded counts the vertices moved into VT (algorithm work).
	Expanded int
	// Rounds is the per-iteration trace (only when Config.Trace).
	Rounds []Round
}

// Round captures one iteration of the algorithm in the shape of Table 1.
type Round struct {
	// Number is the 1-based iteration index.
	Number int
	// Considered is VT at the start of the round, in insertion order.
	Considered []graph.NodeID
	// Candidates is CS at the start of the round, naturally sorted with
	// the receiver last.
	Candidates []graph.NodeID
	// Selected is the service chosen this round.
	Selected graph.NodeID
	// Path is the current best path from the sender to Selected.
	Path []graph.NodeID
	// Params are the QoS parameters deliverable at Selected.
	Params media.Params
	// Satisfaction is Selected's label value.
	Satisfaction float64
}

// label is the best-known way to reach a vertex. parent is the interned
// index of the upstream vertex; formats is the bitset of interned format
// indices used along the path (acyclicity rule).
type label struct {
	sat     float64
	params  media.Params
	parent  int32
	edge    *graph.Edge
	cost    float64
	formats formatMask
	seq     int32 // recency for deterministic tie-breaks
}

// ErrAborted is returned when the caller's context expired or was
// canceled mid-selection (deadline propagation): the work was shed to
// honor the request's remaining budget. It always arrives wrapped
// together with the context's own error, so both
// errors.Is(err, ErrAborted) and errors.Is(err, context.DeadlineExceeded)
// work.
var ErrAborted = errors.New("core: selection aborted")

// Select runs the QoS selection algorithm on the adaptation graph.
// On failure it returns a non-nil Result (carrying the explored trace)
// together with ErrNoChain.
func Select(g *graph.Graph, cfg Config) (*Result, error) {
	return SelectCtx(context.Background(), g, cfg)
}

// SelectCtx is Select under a context: the expansion loop checks the
// context once per round and aborts with ErrAborted (wrapping the
// context's error) when the deadline passes or the caller cancels, so
// a request whose budget ran out stops consuming planner time. The
// per-round check is one channel poll — negligible against a round's
// relaxation work.
//
// A run takes its working memory from a pool of scratches (see
// scratch), so a warm Select allocates only what it returns: the
// Result with its path, formats and params, the trace rounds when
// asked for, and the error.
func SelectCtx(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	if len(cfg.Profile.Functions) == 0 {
		return nil, fmt.Errorf("core: config has an empty satisfaction profile")
	}
	s := getScratch()
	defer s.release()
	return s.run(ctx, g, cfg)
}

// run is one Select over g on this scratch.
func (s *scratch) run(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	done := ctx.Done()

	// One whole-selection span whenever the request carries a trace; the
	// per-round spans below additionally require cfg.Trace so the
	// default hot path stays at a single span per selection.
	tr := trace.FromContext(ctx)
	var selSpan *trace.Span
	if tr != nil {
		selSpan = tr.StartSpan("core.select")
	}
	traceRounds := cfg.Trace && tr != nil
	var roundSpan *trace.Span

	s.start(g, &cfg)
	labels, expanded := s.labels, s.expanded

	res := &Result{}

	// Step 1–2: seed CS with the sender's neighbors.
	for _, e := range g.OutAt(graph.SenderIndex) {
		s.relax(graph.SenderIndex, e)
	}

	round := 0
	for {
		round++
		if traceRounds {
			roundSpan = tr.StartSpan("select.round", trace.Int("round", round))
		}
		if done != nil {
			select {
			case <-done:
				res.Found = false
				roundSpan.End(trace.Str("outcome", "aborted"))
				selSpan.End(trace.Int("rounds", round-1), trace.Str("outcome", "aborted"))
				return res, fmt.Errorf("%w after %d rounds: %w", ErrAborted, round-1, ctx.Err())
			default:
			}
		}
		// Step 3: no candidates left → failure.
		if s.numCandidates == 0 {
			res.Found = false
			roundSpan.End(trace.Str("outcome", "no_chain"))
			selSpan.End(trace.Int("rounds", round-1), trace.Str("outcome", "no_chain"))
			return res, fmt.Errorf("%w after %d rounds", ErrNoChain, round-1)
		}

		// Step 4: select the candidate with the highest satisfaction.
		// Ties break toward the most recently updated label, then by
		// natural ID order, keeping runs deterministic. The heap
		// variant pops lazily, skipping entries superseded by a later
		// relaxation; because each label carries a unique seq,
		// (sat, seq) is a total order and both variants pick the same
		// candidate.
		best := int32(-1)
		var bestL *label
		if s.useHeap {
			for s.heap.len() > 0 {
				e := s.heap.pop()
				if labels[e.idx] == e.l {
					best, bestL = e.idx, e.l
					break
				}
			}
		} else {
			for i, l := range labels {
				if l == nil {
					continue
				}
				if bestL == nil || l.sat > bestL.sat ||
					(l.sat == bestL.sat && (l.seq > bestL.seq ||
						(l.seq == bestL.seq && graph.LessNatural(g.NodeIDAt(i), g.NodeIDAt(int(best)))))) {
					best, bestL = int32(i), l
				}
			}
		}
		if bestL == nil {
			// Heap exhausted by stale entries — equivalent to empty CS.
			res.Found = false
			roundSpan.End(trace.Str("outcome", "no_chain"))
			selSpan.End(trace.Int("rounds", round-1), trace.Str("outcome", "no_chain"))
			return res, fmt.Errorf("%w after %d rounds", ErrNoChain, round-1)
		}

		if cfg.Trace {
			path, err := pathTo(best, bestL, expanded, g)
			if err != nil {
				roundSpan.End(trace.Str("outcome", "error"))
				selSpan.End(trace.Str("outcome", "error"))
				return nil, err
			}
			res.Rounds = append(res.Rounds, Round{
				Number:       round,
				Considered:   append([]graph.NodeID(nil), s.vtOrder...),
				Candidates:   candidateIDs(labels, g),
				Selected:     g.NodeIDAt(int(best)),
				Path:         path,
				Params:       bestL.params.Clone(),
				Satisfaction: bestL.sat,
			})
		}

		// Step 4–5: move the selection from CS to VT.
		labels[best] = nil
		s.numCandidates--
		s.inVT[best] = true
		if cfg.Trace {
			s.vtOrder = append(s.vtOrder, g.NodeIDAt(int(best)))
		}
		res.Expanded++

		// Step 7: receiver selected → reconstruct and report.
		expanded[best] = bestL
		if best == graph.ReceiverIndex {
			res.Found = true
			res.Satisfaction = bestL.sat
			res.Params = bestL.params.Clone()
			res.Cost = bestL.cost
			res.Path, res.Formats = reconstruct(best, bestL, expanded, g)
			roundSpan.End(trace.Str("selected", string(graph.ReceiverID)))
			if cfg.SatisfactionFloor > 0 && res.Satisfaction < cfg.SatisfactionFloor {
				selSpan.End(trace.Int("rounds", round), trace.Int("expanded", res.Expanded),
					trace.Str("outcome", "below_floor"))
				return res, fmt.Errorf("%w: %.3f < %.3f",
					ErrBelowFloor, res.Satisfaction, cfg.SatisfactionFloor)
			}
			selSpan.End(trace.Int("rounds", round), trace.Int("expanded", res.Expanded),
				trace.Str("outcome", "found"))
			return res, nil
		}

		// Step 8: relax the neighbors of the selected service.
		for _, e := range g.OutAt(int(best)) {
			s.relax(best, e)
		}
		if traceRounds {
			roundSpan.End(trace.Str("selected", string(g.NodeIDAt(int(best)))))
		}
	}
}

// scratch is the working memory of one Select run: the per-vertex CS
// and VT slices, the candidate heap, the label and overflow-word
// arenas, the labels' params maps and the edge evaluator with its
// optimizer. Select takes one from scratchPool and puts it back when
// it returns, so a warm run reuses all of it; nothing a Result holds
// points into a scratch (its params are a clone, its path and formats
// fresh slices).
type scratch struct {
	labels        []*label // CS: candidate labels, indexed by vertex
	expanded      []*label // VT labels, for reconstruction
	inVT          []bool
	vtOrder       []graph.NodeID // VT in insertion order (trace only)
	heap          candidateHeap
	larena        labelArena
	warena        wordArena
	extWords      int
	maps          []media.Params // label params maps; the first nmaps are in use
	nmaps         int
	numCandidates int
	seq           int32
	useHeap       bool
	ev            edgeEvaluator
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release drops the evaluator's references to the caller's graph and
// configuration and returns the scratch to the pool. Labels left in the
// arena still point at the graph's edges until the next run overwrites
// them or the pool drops the scratch at a GC.
func (s *scratch) release() {
	s.ev.g = nil
	s.ev.cfg = Config{}
	scratchPool.Put(s)
}

// start readies the scratch for a run over g: the per-vertex slices
// sized to the graph and cleared, the heap, arenas and maps rewound.
func (s *scratch) start(g *graph.Graph, cfg *Config) {
	n := g.NodeIndexCount()
	s.labels = resetSlice(s.labels, n)
	s.expanded = resetSlice(s.expanded, n)
	s.inVT = resetSlice(s.inVT, n)
	s.inVT[graph.SenderIndex] = true
	s.vtOrder = append(s.vtOrder[:0], graph.SenderID)
	s.heap.es = s.heap.es[:0]
	s.larena.reset()
	s.warena.reset()
	s.extWords = extWordsFor(g.FormatCount())
	s.nmaps = 0
	s.numCandidates = 0
	s.seq = 0
	s.useHeap = !cfg.Scan
	s.ev.reset(g, cfg)
}

// resetSlice returns buf resized to n zero elements, reusing its array
// when it is large enough.
func resetSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// paramsMap hands out the next label params map, emptied.
func (s *scratch) paramsMap() media.Params {
	if s.nmaps == len(s.maps) {
		s.maps = append(s.maps, make(media.Params, 8))
	}
	m := s.maps[s.nmaps]
	s.nmaps++
	clear(m)
	return m
}

// relax recomputes the label of e.To through e and keeps it when it
// beats the current one (Figure 4 Steps 2 and 8, with Equation 2 as
// the per-candidate optimization).
func (s *scratch) relax(from int32, e *graph.Edge) {
	to := e.ToIndex()
	if s.inVT[to] {
		return
	}
	var upstreamParams media.Params
	var upstreamCost float64
	var upstreamFormats formatMask
	if from == graph.SenderIndex {
		upstreamParams = e.SourceParams
	} else {
		ul := s.expanded[from]
		if ul == nil {
			return
		}
		upstreamParams = ul.params
		upstreamCost = ul.cost
		upstreamFormats = ul.formats
	}
	// Distinct-format acyclicity rule (Section 4.2): a format may
	// not repeat along a path.
	fIdx := e.FormatIndex()
	if upstreamFormats.has(fIdx) {
		return
	}

	// Per-candidate optimization under the Equation 2 bandwidth
	// constraint and the budget (Figure 4 Step 2).
	params, sat, cost, ok := s.ev.eval(upstreamParams, upstreamCost, e)
	if !ok {
		return
	}
	cur := s.labels[to]
	if cur != nil && sat <= cur.sat {
		return
	}
	// Persist the evaluator's scratch params, recycling the map of
	// the label being defeated (it is unreachable once replaced —
	// stale heap entries never read params).
	var kept media.Params
	if cur != nil {
		kept = cur.params
		clear(kept)
	} else {
		kept = s.paramsMap()
		s.numCandidates++
	}
	for k, v := range params {
		kept[k] = v
	}
	s.seq++
	l := s.larena.alloc()
	*l = label{
		sat:     sat,
		params:  kept,
		parent:  from,
		edge:    e,
		cost:    cost,
		formats: upstreamFormats.with(fIdx, &s.warena, s.extWords),
		seq:     s.seq,
	}
	s.labels[to] = l
	if s.useHeap {
		s.heap.push(heapEntry{idx: int32(to), l: l})
	}
}

// candidateIDs returns CS sorted naturally with the receiver last.
func candidateIDs(labels []*label, g *graph.Graph) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(labels))
	hasReceiver := false
	for i, l := range labels {
		if l == nil {
			continue
		}
		if i == graph.ReceiverIndex {
			hasReceiver = true
			continue
		}
		out = append(out, g.NodeIDAt(i))
	}
	sort.Slice(out, func(i, j int) bool { return graph.LessNatural(out[i], out[j]) })
	if hasReceiver {
		out = append(out, graph.ReceiverID)
	}
	return out
}

// pathTo reconstructs the current best path to a candidate whose label is
// l, walking parents through the expanded (VT) labels. Every parent on
// the walk must be in VT — relaxation only ever records expanded parents
// — so a missing parent label is an internal inconsistency and is
// reported as an error rather than silently truncating the path.
func pathTo(idx int32, l *label, expanded []*label, g *graph.Graph) ([]graph.NodeID, error) {
	rev := []graph.NodeID{g.NodeIDAt(int(idx))}
	cur := l.parent
	for cur != graph.SenderIndex {
		rev = append(rev, g.NodeIDAt(int(cur)))
		pl := expanded[cur]
		if pl == nil {
			return nil, fmt.Errorf("core: inconsistent trace path to %s: parent %s has no expanded label",
				g.NodeIDAt(int(idx)), g.NodeIDAt(int(cur)))
		}
		cur = pl.parent
	}
	rev = append(rev, graph.SenderID)
	out := make([]graph.NodeID, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out, nil
}

// reconstruct follows parents from the receiver back to the sender
// (Figure 4 Step 10) and returns the path plus the per-edge formats. A
// first walk counts the hops, so each slice is allocated once at its
// final length and filled from the back.
func reconstruct(idx int32, l *label, expanded []*label, g *graph.Graph) ([]graph.NodeID, []media.Format) {
	hops := 0
	for cur, curL := idx, l; curL != nil; curL = expanded[cur] {
		hops++
		cur = curL.parent
		if cur == graph.SenderIndex {
			break
		}
	}
	path := make([]graph.NodeID, hops+1)
	formats := make([]media.Format, hops)
	path[0] = graph.SenderID
	i := hops
	for cur, curL := idx, l; curL != nil; curL = expanded[cur] {
		path[i] = g.NodeIDAt(int(cur))
		formats[i-1] = curL.edge.Format
		i--
		cur = curL.parent
		if cur == graph.SenderIndex {
			break
		}
	}
	return path, formats
}
