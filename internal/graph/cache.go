package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"qoschain/internal/media"
	"qoschain/internal/overlay"
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
// whose entry was built at an older generation, the cache compares the
// network's value signature (overlay.Network.Signature, hashed from the
// live link state: every usable link's exact available bandwidth, delay
// and loss). When it moved, the cached graph is refreshed in place:
// every edge, masked ones included, is re-annotated from the overlay;
// an edge whose host pair lost or regained connectivity flips its mask;
// and when a mask flipped the live adjacency is rebuilt in insertion
// order, reusing its slices. The graph's structure depends only on the
// keyed inputs, so an overlay change never rebuilds: a refreshed graph
// reads exactly like a cold Build of the overlay at that generation —
// same edges, adjacency order and annotations — and a warm refresh
// allocates nothing. A graph is built only on a first lookup of a key,
// after eviction, or after Invalidate and Reset.
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
	netGen   uint64
	sig      uint64 // the network's value signature the graph was annotated at
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
	// Refreshes counts hits on an entry built at an older network
	// generation: the graph was brought up to the overlay in place.
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
	delete(c.entries, InputKey(&in))
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
	g, _, err := c.BuildKeyed(InputKey(&in), in)
	return g, err
}

// BuildKeyed is Build for a caller that holds the input's key —
// InputKey(&in), computed once while the input's structure stays put —
// and reports the exact cache outcome, for instrumentation. A warm hit
// and an in-place refresh allocate nothing.
func (c *Cache) BuildKeyed(key uint64, in Input) (*Graph, BuildOutcome, error) {
	var gen uint64
	if in.Net != nil {
		gen = in.Net.Generation()
	}

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		outcome := OutcomeHit
		if in.Net != nil && gen != e.netGen {
			if sig := in.Net.Signature(); sig != e.sig {
				refreshEdgeQoS(e.g, in.Net)
				e.sig = sig
			}
			e.netGen = gen
			c.refreshes++
			outcome = OutcomeRefresh
		}
		c.hits++
		c.touch(e)
		g := e.g
		c.mu.Unlock()
		return g, outcome, nil
	}
	c.misses++
	c.mu.Unlock()

	g, err := Build(in)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	e := &cacheEntry{g: g, netGen: gen}
	if in.Net != nil {
		e.sig = in.Net.Signature()
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

// refreshEdgeQoS brings a cached graph up to the network as it is now:
// it re-annotates every edge, masked ones included, flips the mask of
// each edge whose host pair gained or lost connectivity, and rebuilds
// the live adjacency when a mask flipped.
func refreshEdgeQoS(g *Graph, net *overlay.Network) {
	flipped := false
	for _, e := range g.all {
		kbps, delay, loss, connected := linkQoS(net, g.hostList[e.fromIdx], g.hostList[e.toIdx])
		e.BandwidthKbps, e.DelayMs, e.LossRate = kbps, delay, loss
		if e.down == connected {
			e.down = !connected
			flipped = true
		}
	}
	if flipped {
		g.relink()
	}
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

// InputKey is the cache key of a live-network build: every structural
// input plus the network's identity (not its state — that is the
// generation counter's job).
func InputKey(in *Input) uint64 {
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
