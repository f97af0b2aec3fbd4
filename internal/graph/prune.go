package graph

// Pruning implements the "optimization techniques ... to remove the extra
// edges in the graph" step of Section 4: edges and vertices that can never
// appear on a sender→receiver chain are deleted before selection runs.

// Prune removes, in order:
//
//  1. duplicate parallel edges (same endpoints and format), keeping the
//     one with the highest bandwidth;
//  2. vertices unreachable from the sender;
//  3. vertices from which the receiver is unreachable.
//
// It returns the number of live edges removed. The sender and receiver
// are never removed, even when disconnected. Masked (down) edges are
// dropped from the edge list too, so a later refresh can never bring back
// an edge pruning would have removed.
func (g *Graph) Prune() int {
	before := g.edges
	widest := g.widestParallel()

	reachable := g.forwardReachable(SenderID)
	coreach := g.backwardReachable(ReceiverID)
	for id := range g.nodes {
		if id == SenderID || id == ReceiverID || reachable[id] && coreach[id] {
			continue
		}
		delete(g.nodes, id)
		delete(g.out, id)
		delete(g.in, id)
	}

	// One pass over the edge list keeps the widest live edge of each
	// parallel group between surviving vertices, then the adjacency is
	// rebuilt from it (removing vertices one at a time would rebuild it
	// per vertex, turning pruning quadratic).
	kept := g.all[:0]
	for _, e := range g.all {
		_, from := g.nodes[e.From]
		_, to := g.nodes[e.To]
		if from && to && widest[edgeKey{e.From, e.To, e.Format}] == e {
			kept = append(kept, e)
		}
	}
	clear(g.all[len(kept):])
	g.all = kept
	g.edgeIdx.Store(nil)
	g.relink()
	return before - g.edges
}

// widestParallel maps each (from, to, format) to its live edge with the
// highest bandwidth, the first such edge on ties.
func (g *Graph) widestParallel() map[edgeKey]*Edge {
	best := make(map[edgeKey]*Edge, g.edges)
	for _, e := range g.all {
		if e.down {
			continue
		}
		k := edgeKey{e.From, e.To, e.Format}
		if prev, ok := best[k]; !ok || e.BandwidthKbps > prev.BandwidthKbps {
			best[k] = e
		}
	}
	return best
}

func (g *Graph) forwardReachable(start NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{start: true}
	stack := []NodeID{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[cur] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

func (g *Graph) backwardReachable(start NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{start: true}
	stack := []NodeID{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.in[cur] {
			if !seen[e.From] {
				seen[e.From] = true
				stack = append(stack, e.From)
			}
		}
	}
	return seen
}

// HasPath reports whether any sender→receiver chain exists at all.
func (g *Graph) HasPath() bool {
	return g.forwardReachable(SenderID)[ReceiverID]
}
