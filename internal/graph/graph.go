// Package graph builds the directed adaptation graph of Section 4.2: the
// structure the QoS selection algorithm searches.
//
// Vertices are trans-coding services plus two special vertices — the
// sender (only output links, one per content variant) and the receiver
// (only input links, one per device decoder). A directed edge connects an
// output link of one vertex to a same-format input link of another, and
// carries the network bandwidth available between the two hosts
// (Section 4.3).
//
// Structure and annotation are kept apart. Which edges exist depends only
// on the profiles and the deployed services; the network only annotates
// each edge with bandwidth, delay and loss, and masks the edges whose host
// pair it cannot connect. A masked (down) edge stays in the graph's list of
// all edges but is left out of the adjacency every reader sees (Out, In,
// OutAt, EdgeCount, EdgeBetween, String), so a graph whose masks changed
// reads exactly like one built without the masked edges.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"qoschain/internal/media"
	"qoschain/internal/service"
)

// NodeID identifies a vertex. The sender and receiver use the reserved
// IDs below; every other vertex uses its service ID.
type NodeID string

// Reserved vertex IDs.
const (
	SenderID   NodeID = "sender"
	ReceiverID NodeID = "receiver"
)

// Reserved vertex indices: every graph interns its vertices to dense
// integer indices at insertion time, with the sender and receiver always
// occupying the first two slots. The selection hot path uses indices to
// replace map lookups with slice indexing.
const (
	SenderIndex   = 0
	ReceiverIndex = 1
)

// Node is one vertex of the adaptation graph.
type Node struct {
	// ID is the vertex identity.
	ID NodeID
	// Service describes the trans-coding service; nil for the sender
	// and receiver vertices.
	Service *service.Service
	// Host is the network host the vertex lives on.
	Host string
}

// IsSender reports whether the node is the sender vertex.
func (n *Node) IsSender() bool { return n.ID == SenderID }

// IsReceiver reports whether the node is the receiver vertex.
func (n *Node) IsReceiver() bool { return n.ID == ReceiverID }

// Edge is one directed, format-labelled connection.
type Edge struct {
	// From/To are the endpoint vertices.
	From, To NodeID
	// fromIdx/toIdx/formatIdx are the interned indices of the endpoints
	// and the format label, assigned by AddEdge. They are meaningless on
	// edges that have not been added to a graph.
	fromIdx, toIdx, formatIdx int32
	// Format is the media format flowing over the edge (the matching
	// output/input link label, e.g. "F5" in Figure 3).
	Format media.Format
	// BandwidthKbps is the available bandwidth between the endpoint
	// hosts at construction time; +Inf for co-located endpoints.
	BandwidthKbps float64
	// DelayMs is the one-way network latency between the endpoint
	// hosts (0 for co-located endpoints).
	DelayMs float64
	// LossRate is the packet-loss probability of the direct link
	// between the endpoint hosts (0 when routed or co-located).
	LossRate float64
	// SourceParams carries the content variant's maximum QoS parameters
	// on sender-outgoing edges; nil elsewhere.
	SourceParams media.Params
	// TransmissionCost is an optional per-use monetary cost of the
	// edge, added to the accumulated cost of Figure 4 Step 6.
	TransmissionCost float64
	// down masks the edge: its host pair is disconnected, so it is kept
	// in the graph's edge list but left out of the adjacency.
	down bool
}

// HostResources is the computing capacity of an intermediary host
// (Section 4.3: memory and CPU needs are a function of the input data;
// the host must be able to carry the service out).
type HostResources struct {
	// CPUMips is the processing capacity available for trans-coding.
	CPUMips float64
	// MemoryMB is the memory available for trans-coding.
	MemoryMB float64
}

// Graph is the adaptation graph.
type Graph struct {
	nodes map[NodeID]*Node
	// all holds every edge, down ones included, in insertion order; out
	// and in are the live adjacency derived from it (see relink), and
	// edges counts the live edges.
	all   []*Edge
	out   map[NodeID][]*Edge
	in    map[NodeID][]*Edge
	edges int
	hosts map[string]HostResources

	// Interning tables: vertices and edge formats are assigned dense
	// integer indices at insertion time so the selection algorithm can
	// replace maps with slices and format sets with bitsets. Indices are
	// never reused, even after pruning removes a vertex.
	nodeIdx   map[NodeID]int32
	nodeList  []NodeID
	hostList  []string // the host of each interned vertex, for refresh
	formatIdx map[media.Format]int32
	formats   []media.Format

	// edgeIdx is a lazily built (from, to, format) → edge lookup table
	// over every edge, down ones included, shared by concurrent readers
	// (chain instantiation, mass failover re-instantiation). Structural
	// mutations drop it; in-place edge updates (a refresh re-annotating
	// edges and flipping masks) keep it, since edge pointers are stable.
	// See EdgeBetween.
	edgeIdx atomic.Pointer[map[edgeKey]*Edge]
}

// edgeKey identifies an edge for EdgeBetween lookups.
type edgeKey struct {
	from, to NodeID
	format   media.Format
}

// NewGraph returns an empty graph containing only the sender and
// receiver vertices on the given hosts.
func NewGraph(senderHost, receiverHost string) *Graph {
	g := &Graph{
		nodes:     make(map[NodeID]*Node),
		out:       make(map[NodeID][]*Edge),
		in:        make(map[NodeID][]*Edge),
		hosts:     make(map[string]HostResources),
		nodeIdx:   make(map[NodeID]int32),
		formatIdx: make(map[media.Format]int32),
	}
	g.nodes[SenderID] = &Node{ID: SenderID, Host: senderHost}
	g.nodes[ReceiverID] = &Node{ID: ReceiverID, Host: receiverHost}
	g.internNode(SenderID, senderHost)     // index 0 == SenderIndex
	g.internNode(ReceiverID, receiverHost) // index 1 == ReceiverIndex
	return g
}

// internNode assigns the next dense index to a vertex on host.
func (g *Graph) internNode(id NodeID, host string) int32 {
	if i, ok := g.nodeIdx[id]; ok {
		return i
	}
	i := int32(len(g.nodeList))
	g.nodeIdx[id] = i
	g.nodeList = append(g.nodeList, id)
	g.hostList = append(g.hostList, host)
	return i
}

// internFormat assigns the next dense index to an edge format.
func (g *Graph) internFormat(f media.Format) int32 {
	if i, ok := g.formatIdx[f]; ok {
		return i
	}
	i := int32(len(g.formats))
	g.formatIdx[f] = i
	g.formats = append(g.formats, f)
	return i
}

// NodeIndexCount returns the size of the vertex index space (indices are
// dense in [0, NodeIndexCount) but may include pruned vertices).
func (g *Graph) NodeIndexCount() int { return len(g.nodeList) }

// NodeIndex returns the interned index of a vertex.
func (g *Graph) NodeIndex(id NodeID) (int, bool) {
	i, ok := g.nodeIdx[id]
	return int(i), ok
}

// NodeIDAt returns the vertex ID for an interned index. The ID of a
// pruned vertex remains resolvable.
func (g *Graph) NodeIDAt(i int) NodeID { return g.nodeList[i] }

// FormatCount returns the number of distinct edge formats interned so
// far.
func (g *Graph) FormatCount() int { return len(g.formats) }

// FormatIndex returns the interned index of a format that appeared on at
// least one edge.
func (g *Graph) FormatIndex(f media.Format) (int, bool) {
	i, ok := g.formatIdx[f]
	return int(i), ok
}

// FormatAt returns the format for an interned index.
func (g *Graph) FormatAt(i int) media.Format { return g.formats[i] }

// FromIndex returns the interned index of the edge's source vertex.
// Valid only for edges added to a graph.
func (e *Edge) FromIndex() int { return int(e.fromIdx) }

// ToIndex returns the interned index of the edge's target vertex.
// Valid only for edges added to a graph.
func (e *Edge) ToIndex() int { return int(e.toIdx) }

// FormatIndex returns the interned index of the edge's format label.
// Valid only for edges added to a graph.
func (e *Edge) FormatIndex() int { return int(e.formatIdx) }

// OutAt returns the outgoing edges of the vertex with the given interned
// index.
func (g *Graph) OutAt(i int) []*Edge { return g.out[g.nodeList[i]] }

// AddService inserts a service vertex. It fails on duplicate or reserved
// IDs.
func (g *Graph) AddService(s *service.Service) error {
	id := NodeID(s.ID)
	if id == SenderID || id == ReceiverID {
		return fmt.Errorf("graph: service uses reserved ID %q", id)
	}
	if _, exists := g.nodes[id]; exists {
		return fmt.Errorf("graph: duplicate vertex %q", id)
	}
	g.nodes[id] = &Node{ID: id, Service: s, Host: s.Host}
	g.internNode(id, s.Host)
	return nil
}

// AddEdge inserts a directed edge. Both endpoints must exist.
func (g *Graph) AddEdge(e *Edge) error { return g.addEdge(e, false) }

// addEdge inserts an edge, masked when down: a masked edge joins the
// edge list but not the adjacency.
func (g *Graph) addEdge(e *Edge, down bool) error {
	if _, ok := g.nodes[e.From]; !ok {
		return fmt.Errorf("graph: edge from unknown vertex %q", e.From)
	}
	if _, ok := g.nodes[e.To]; !ok {
		return fmt.Errorf("graph: edge to unknown vertex %q", e.To)
	}
	if e.From == e.To {
		return fmt.Errorf("graph: self-loop on %q", e.From)
	}
	e.fromIdx = g.nodeIdx[e.From]
	e.toIdx = g.nodeIdx[e.To]
	e.formatIdx = g.internFormat(e.Format)
	e.down = down
	g.all = append(g.all, e)
	if !down {
		g.out[e.From] = append(g.out[e.From], e)
		g.in[e.To] = append(g.in[e.To], e)
		g.edges++
	}
	g.edgeIdx.Store(nil)
	return nil
}

// relink rebuilds the live adjacency from the edge list in insertion
// order, leaving out every down edge — the adjacency a cold build over
// the same masks produces. It reuses the adjacency slices, so once they
// have grown to their structural size it allocates nothing.
func (g *Graph) relink() {
	for id, edges := range g.out {
		g.out[id] = edges[:0]
	}
	for id, edges := range g.in {
		g.in[id] = edges[:0]
	}
	g.edges = 0
	for _, e := range g.all {
		if e.down {
			continue
		}
		g.out[e.From] = append(g.out[e.From], e)
		g.in[e.To] = append(g.in[e.To], e)
		g.edges++
	}
}

// EdgeBetween returns the live edge from→to carrying format, or nil. When
// parallel duplicates exist (only possible before Prune dedups them) the
// first edge in adjacency order wins, matching a linear scan of Out.
// Parallel edges share their host pair and so their mask: when the first
// is down, all are, and EdgeBetween returns nil as a scan of Out would.
// Lookups hit a lazily built index, so instantiating a chain — or
// re-instantiating thousands of them during a mass failover — costs
// O(1) per path step instead of a scan of the vertex's out-degree.
//
// EdgeBetween is safe for concurrent use with other readers. Like every
// Graph accessor it must not race with structural mutation (AddEdge,
// Prune), which invalidates the index.
func (g *Graph) EdgeBetween(from, to NodeID, format media.Format) *Edge {
	idx := g.edgeIdx.Load()
	if idx == nil {
		m := make(map[edgeKey]*Edge, len(g.all))
		for _, e := range g.all {
			k := edgeKey{e.From, e.To, e.Format}
			if _, dup := m[k]; !dup {
				m[k] = e
			}
		}
		// Concurrent first builds may race benignly: each stores an
		// equivalent map and the last write wins.
		g.edgeIdx.Store(&m)
		idx = &m
	}
	if e := (*idx)[edgeKey{from, to, format}]; e != nil && !e.down {
		return e
	}
	return nil
}

// SetHostResources declares an intermediary host's capacity. Hosts with
// no declared resources are treated as unconstrained.
func (g *Graph) SetHostResources(host string, r HostResources) {
	g.hosts[host] = r
}

// HostResources returns the declared capacity of a host; ok is false for
// undeclared (unconstrained) hosts.
func (g *Graph) HostResources(host string) (HostResources, bool) {
	r, ok := g.hosts[host]
	return r, ok
}

// Node returns the vertex by ID.
func (g *Graph) Node(id NodeID) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// Out returns the outgoing edges of a vertex.
func (g *Graph) Out(id NodeID) []*Edge { return g.out[id] }

// In returns the incoming edges of a vertex.
func (g *Graph) In(id NodeID) []*Edge { return g.in[id] }

// NodeCount returns the number of vertices (including sender/receiver).
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of live (unmasked) directed edges.
func (g *Graph) EdgeCount() int { return g.edges }

// NodeIDs returns all vertex IDs sorted, sender first and receiver last
// for readability.
func (g *Graph) NodeIDs() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		if id == SenderID || id == ReceiverID {
			continue
		}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return LessNatural(out[i], out[j]) })
	result := append([]NodeID{SenderID}, out...)
	return append(result, ReceiverID)
}

// LessNatural orders node IDs naturally: t2 before t10, falling back to
// lexicographic comparison for mixed prefixes.
func LessNatural(a, b NodeID) bool {
	na, oka := trailingInt(string(a))
	nb, okb := trailingInt(string(b))
	pa, pb := prefix(string(a)), prefix(string(b))
	if oka && okb && pa == pb {
		return na < nb
	}
	return a < b
}

func prefix(s string) string {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	return s[:i]
}

func trailingInt(s string) (int, bool) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return 0, false
	}
	n := 0
	for _, c := range s[i:] {
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Neighbors returns the distinct vertices reachable over one outgoing
// edge, sorted naturally.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	seen := make(map[NodeID]bool)
	for _, e := range g.out[id] {
		seen[e.To] = true
	}
	out := make([]NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return LessNatural(out[i], out[j]) })
	return out
}

// Validate checks graph invariants: the sender has no incoming edges,
// the receiver no outgoing edges, every edge format is valid.
func (g *Graph) Validate() error {
	if len(g.in[SenderID]) > 0 {
		return fmt.Errorf("graph: sender has incoming edges")
	}
	if len(g.out[ReceiverID]) > 0 {
		return fmt.Errorf("graph: receiver has outgoing edges")
	}
	for _, edges := range g.out {
		for _, e := range edges {
			if err := e.Format.Validate(); err != nil {
				return fmt.Errorf("graph: edge %s->%s: %w", e.From, e.To, err)
			}
			if e.BandwidthKbps < 0 {
				return fmt.Errorf("graph: edge %s->%s negative bandwidth", e.From, e.To)
			}
		}
	}
	return nil
}

// String renders a deterministic adjacency listing, one edge per line.
func (g *Graph) String() string {
	var b strings.Builder
	for _, id := range g.NodeIDs() {
		edges := append([]*Edge(nil), g.out[id]...)
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].To != edges[j].To {
				return LessNatural(edges[i].To, edges[j].To)
			}
			return edges[i].Format.String() < edges[j].Format.String()
		})
		for _, e := range edges {
			fmt.Fprintf(&b, "%s -[%s]-> %s\n", e.From, e.Format, e.To)
		}
	}
	return b.String()
}
