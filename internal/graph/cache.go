package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"qoschain/internal/media"
	"qoschain/internal/profile"
	"qoschain/internal/satisfaction"
	"qoschain/internal/service"
)

// Cache memoizes built adaptation graphs so that repeated compositions
// over the same content/device/service deployment skip graph
// construction entirely — the amortization a production planner needs
// when many receivers share one deployment.
//
// Keying. Entries are keyed by a 64-bit fingerprint over everything
// Build consumes structurally: the content variants, the device's
// decoders, the full service descriptions, the host resource
// declarations and the sender/receiver hosts. The live overlay network
// is identified by pointer (its *state* is tracked separately, below);
// graphs built from a static profile.Set fingerprint the profile's link
// table instead.
//
// Invalidation. A live overlay network carries a generation counter
// (overlay.Network.Generation) bumped on every mutation. On a lookup
// whose entry was built at an older generation, the cache compares two
// signatures of the network's link table:
//
//   - the connectivity signature (which links exist with positive
//     bandwidth) — if it changed, host-pair reachability may have
//     changed, so the graph is rebuilt from scratch;
//   - the value signature (exact bandwidth/delay/loss) — if only it
//     changed, the cached topology is still valid and the cache merely
//     re-annotates every existing edge in place.
//
// Either way a lookup returns a graph whose every edge reads the overlay
// as it is at that generation — the same annotations a cold Build would
// give.
//
// This implements the rule that bandwidth fluctuation invalidates edges,
// never topology. Explicit invalidation is available through Invalidate
// and Reset.
//
// Concurrency. The cache itself is safe for concurrent use. The returned
// *Graph is shared between callers and refreshed in place: do not run a
// refresh-triggering Build concurrently with selections on a previously
// returned graph; serialize compose traffic through the cache or
// snapshot the network first.
type Cache struct {
	mu      sync.Mutex
	max     int
	tick    uint64
	entries map[uint64]*cacheEntry

	hits, misses, refreshes uint64
}

type cacheEntry struct {
	g        *Graph
	in       Input // inputs retained for rebuild and refresh
	netGen   uint64
	connSig  uint64
	valueSig uint64
	lastUsed uint64
}

// DefaultCacheSize bounds a Cache built with NewCache(0).
const DefaultCacheSize = 64

// NewCache returns a cache holding at most maxEntries graphs (least
// recently used evicted first); maxEntries <= 0 selects
// DefaultCacheSize.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheSize
	}
	return &Cache{max: maxEntries, entries: make(map[uint64]*cacheEntry)}
}

// CacheStats reports cache effectiveness counters.
type CacheStats struct {
	// Hits counts lookups served from the cache, including refreshed
	// ones.
	Hits uint64
	// Misses counts lookups that built a graph.
	Misses uint64
	// Refreshes counts hits that re-annotated edge QoS in place after a
	// bandwidth-only network change.
	Refreshes uint64
	// Repairs is always 0: every refresh re-annotates every edge. It
	// stays only because perfbench still reports it
	// (graph.repairs_per_op).
	Repairs uint64
	// Entries is the current number of cached graphs.
	Entries int
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Refreshes: c.refreshes, Entries: len(c.entries)}
}

// Reset drops every cached graph.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
}

// Invalidate drops the cached graph for the given input, if present.
func (c *Cache) Invalidate(in Input) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, fingerprintInput(&in))
}

// BuildOutcome reports how a cache lookup was served: a plain hit, a
// hit that refreshed edge QoS in place, or a miss that built the graph.
type BuildOutcome string

const (
	OutcomeHit     BuildOutcome = "hit"
	OutcomeRefresh BuildOutcome = "refresh"
	OutcomeMiss    BuildOutcome = "miss"
)

// Build returns the adaptation graph for the input, reusing a cached one
// when the structural inputs are unchanged. See the type comment for the
// network-change rules.
func (c *Cache) Build(in Input) (*Graph, error) {
	g, _, err := c.BuildEx(in)
	return g, err
}

// BuildEx is Build plus the exact cache outcome, for instrumentation.
func (c *Cache) BuildEx(in Input) (*Graph, BuildOutcome, error) {
	key := fingerprintInput(&in)
	var gen uint64
	if in.Net != nil {
		gen = in.Net.Generation()
	}

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if in.Net == nil || gen == e.netGen {
			c.hits++
			c.touch(e)
			g := e.g
			c.mu.Unlock()
			return g, OutcomeHit, nil
		}
		connSig, valueSig := networkSignatures(in.Net.Snapshot())
		if connSig == e.connSig {
			if valueSig != e.valueSig && !refreshEdgeQoS(e.g, &e.in) {
				// A host pair lost connectivity despite an unchanged
				// link set — fall through to a rebuild.
				delete(c.entries, key)
			} else {
				e.valueSig = valueSig
				e.netGen = gen
				c.hits++
				c.refreshes++
				c.touch(e)
				g := e.g
				c.mu.Unlock()
				return g, OutcomeRefresh, nil
			}
		} else {
			delete(c.entries, key)
		}
	}
	c.misses++
	c.mu.Unlock()

	g, err := Build(in)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	e := &cacheEntry{g: g, in: in, netGen: gen}
	if in.Net != nil {
		e.connSig, e.valueSig = networkSignatures(in.Net.Snapshot())
	}
	c.mu.Lock()
	c.touch(e)
	c.entries[key] = e
	c.evictLocked()
	c.mu.Unlock()
	return g, OutcomeMiss, nil
}

// BuildFromSet returns the graph for a full profile set, cached on a
// fingerprint of the set itself (including its static network links) —
// two calls with equal sets share one graph and skip both overlay and
// graph construction.
func (c *Cache) BuildFromSet(set *profile.Set) (*Graph, error) {
	g, _, err := c.BuildFromSetEx(set)
	return g, err
}

// BuildFromSetEx is BuildFromSet plus the exact cache outcome, for
// instrumentation.
func (c *Cache) BuildFromSetEx(set *profile.Set) (*Graph, BuildOutcome, error) {
	// Validate first: it stamps each service's Host from its
	// intermediary, which the fingerprint must see so that the first and
	// subsequent calls hash identically.
	if err := set.Validate(); err != nil {
		return nil, OutcomeMiss, err
	}
	key := fingerprintSet(set)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.touch(e)
		g := e.g
		c.mu.Unlock()
		return g, OutcomeHit, nil
	}
	c.misses++
	c.mu.Unlock()

	g, err := BuildFromSet(set)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	e := &cacheEntry{g: g}
	c.mu.Lock()
	c.touch(e)
	c.entries[key] = e
	c.evictLocked()
	c.mu.Unlock()
	return g, OutcomeMiss, nil
}

func (c *Cache) touch(e *cacheEntry) {
	c.tick++
	e.lastUsed = c.tick
}

func (c *Cache) evictLocked() {
	for len(c.entries) > c.max {
		var oldestKey uint64
		var oldest *cacheEntry
		for k, e := range c.entries {
			if oldest == nil || e.lastUsed < oldest.lastUsed {
				oldestKey, oldest = k, e
			}
		}
		delete(c.entries, oldestKey)
	}
}

// refreshEdgeQoS re-annotates every edge of a cached graph with the
// network's current bandwidth/delay/loss, leaving the topology alone.
// It reports false when some edge's host pair is no longer connected —
// the caller must rebuild.
func refreshEdgeQoS(g *Graph, in *Input) bool {
	for i := 0; i < g.NodeIndexCount(); i++ {
		fromNode, ok := g.Node(g.NodeIDAt(i))
		if !ok {
			continue // pruned vertex
		}
		for _, e := range g.OutAt(i) {
			toNode, ok := g.Node(e.To)
			if !ok {
				continue
			}
			kbps, delay, loss, connected := linkQoS(in.Net, fromNode.Host, toNode.Host)
			if !connected {
				return false
			}
			e.BandwidthKbps = kbps
			e.DelayMs = delay
			e.LossRate = loss
		}
	}
	return true
}

// networkSignatures hashes a network snapshot into the connectivity
// signature (link endpoints and bandwidth positivity) and the value
// signature (exact QoS figures). Snapshot links are sorted, so the
// hashes are deterministic.
func networkSignatures(p profile.Network) (connSig, valueSig uint64) {
	ch, vh := newFnv(), newFnv()
	for _, l := range p.Links {
		ch.str(l.From)
		ch.str(l.To)
		ch.bool(l.BandwidthKbps > 0)
		vh.str(l.From)
		vh.str(l.To)
		vh.f64(l.BandwidthKbps)
		vh.f64(l.DelayMs)
		vh.f64(l.LossRate)
	}
	return ch.sum, vh.sum
}

// fnv is a tiny FNV-1a stream hasher over the canonical byte encodings
// of the fingerprinted fields. 64 bits is plenty for a cache bounded at
// tens of entries; a collision costs correctness only if two different
// deployments are composed through one cache in one process, which the
// structural fields make astronomically unlikely.
type fnv struct{ sum uint64 }

func newFnv() *fnv { return &fnv{sum: 1469598103934665603} }

func (h *fnv) byte(b byte) {
	h.sum ^= uint64(b)
	h.sum *= 1099511628211
}

// u64 folds a whole word per step instead of running the byte loop
// eight times. Fingerprints live only in this process's cache map, so
// the exact bit pattern is free to change; the word-at-a-time variant
// mixes less per bit than true FNV-1a but far more than the cache's
// tens of entries need, and it makes fingerprinting the numeric-heavy
// network signatures ~8x cheaper on the warm-hit path.
func (h *fnv) u64(v uint64) {
	h.sum ^= v
	h.sum *= 1099511628211
}

func (h *fnv) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fnv) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *fnv) bool(b bool) {
	if b {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

func (h *fnv) format(f media.Format) {
	h.u64(uint64(f.Kind))
	h.str(f.Encoding)
	h.str(f.Profile)
}

func (h *fnv) params(p media.Params) {
	names := p.Names()
	h.u64(uint64(len(names)))
	for _, name := range names {
		h.str(string(name))
		h.f64(p[name])
	}
}

func (h *fnv) domains(d map[media.Param]satisfaction.Domain) {
	names := make([]string, 0, len(d))
	for k := range d {
		names = append(names, string(k))
	}
	sort.Strings(names)
	h.u64(uint64(len(names)))
	for _, name := range names {
		h.str(name)
		dom := d[media.Param(name)]
		h.u64(uint64(len(dom.Values)))
		for _, v := range dom.Values {
			h.f64(v)
		}
	}
}

func (h *fnv) service(s *service.Service) {
	h.str(string(s.ID))
	h.str(s.Host)
	h.u64(uint64(len(s.Inputs)))
	for _, f := range s.Inputs {
		h.format(f)
	}
	h.u64(uint64(len(s.Outputs)))
	for _, f := range s.Outputs {
		h.format(f)
	}
	h.params(s.Caps)
	h.domains(s.Domains)
	h.f64(s.CPUPerKbps)
	h.f64(s.MemoryMB)
	h.f64(s.Cost)
}

func (h *fnv) content(cnt *profile.Content) {
	h.str(cnt.ID)
	h.u64(uint64(len(cnt.Variants)))
	for _, v := range cnt.Variants {
		h.format(v.Format)
		h.params(v.Params)
	}
}

func (h *fnv) device(dev *profile.Device) {
	h.str(dev.ID)
	h.u64(uint64(len(dev.Software.Decoders)))
	for _, f := range dev.Software.Decoders {
		h.format(f)
	}
}

// fingerprintInput keys a live-network build: every structural input plus
// the network's identity (not its state — that is the generation
// counter's job).
func fingerprintInput(in *Input) uint64 {
	h := newFnv()
	if in.Content != nil {
		h.content(in.Content)
	}
	if in.Device != nil {
		h.device(in.Device)
	}
	h.u64(uint64(len(in.Services)))
	for _, s := range in.Services {
		h.service(s)
	}
	h.str(in.SenderHost)
	h.str(in.ReceiverHost)
	h.u64(uint64(len(in.Intermediaries)))
	for i := range in.Intermediaries {
		inter := &in.Intermediaries[i]
		h.str(inter.Host)
		h.f64(inter.CPUMips)
		h.f64(inter.MemoryMB)
	}
	h.str(fmt.Sprintf("%p", in.Net))
	return h.sum
}

// fingerprintSet keys a static-profile build on the set's contents,
// including the network link table.
func fingerprintSet(set *profile.Set) uint64 {
	h := newFnv()
	h.content(&set.Content)
	h.device(&set.Device)
	h.u64(uint64(len(set.Intermediaries)))
	for i := range set.Intermediaries {
		inter := &set.Intermediaries[i]
		h.str(inter.Host)
		h.f64(inter.CPUMips)
		h.f64(inter.MemoryMB)
		h.u64(uint64(len(inter.Services)))
		for _, s := range inter.Services {
			h.service(s)
		}
	}
	h.u64(uint64(len(set.Network.Links)))
	for _, l := range set.Network.Links {
		h.str(l.From)
		h.str(l.To)
		h.f64(l.BandwidthKbps)
		h.f64(l.DelayMs)
		h.f64(l.LossRate)
	}
	return h.sum
}
