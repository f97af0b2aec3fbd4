// Package overlay simulates the delivery network the paper assumes: the
// sender, the receiver and the intermediaries (proxies) hosting
// trans-coding services, connected by links with available bandwidth,
// delay and loss.
//
// The paper's selection algorithm consumes exactly one quantity from the
// network: the available bandwidth between the hosts of two chained
// services (Section 4.3), with co-located services seeing unlimited
// bandwidth. The simulator supplies that quantity, supports dynamic
// fluctuation for the re-composition experiments, and offers topology
// generators for scalability workloads.
package overlay

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"qoschain/internal/profile"
)

// Network is a mutable, concurrency-safe directed overlay network.
type Network struct {
	mu    sync.RWMutex
	nodes map[string]bool
	down  map[string]bool // crashed hosts (fault injection)
	links map[edge]*linkState
	gen   uint64 // bumped on every mutation; see Generation

	// ordered is links in (from, to) order for Signature and Snapshot.
	// It is built on first use and dropped when a link is added or
	// removed, so an overlay that is never hashed never builds it.
	ordered []orderedLink
	orderOK bool
}

type edge struct{ from, to string }

type orderedLink struct {
	e edge
	l *linkState
}

type linkState struct {
	bandwidthKbps float64 // capacity
	reservedKbps  float64 // held by admitted sessions
	delayMs       float64
	lossRate      float64
	down          bool // failed link (fault injection); state retained for recovery
}

// available returns the unreserved capacity, clamped at zero when
// fluctuation pushed capacity below the reservations.
func (l *linkState) available() float64 {
	a := l.bandwidthKbps - l.reservedKbps
	if a < 0 {
		return 0
	}
	return a
}

// New returns an empty overlay network.
func New() *Network {
	return &Network{
		nodes: make(map[string]bool),
		down:  make(map[string]bool),
		links: make(map[edge]*linkState),
	}
}

// usableLocked reports whether a link currently carries traffic: neither
// the link itself nor either endpoint may be failed. Callers must hold at
// least a read lock.
func (n *Network) usableLocked(e edge, l *linkState) bool {
	return !l.down && !n.down[e.from] && !n.down[e.to]
}

// FromProfile builds an overlay from a static network profile.
func FromProfile(p profile.Network) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := New()
	for _, l := range p.Links {
		n.AddLink(l.From, l.To, l.BandwidthKbps, l.DelayMs, l.LossRate)
	}
	return n, nil
}

// AddNode declares a host. Adding a link declares its endpoints
// implicitly; AddNode matters only for isolated hosts.
func (n *Network) AddNode(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[id] = true
	n.gen++
}

// Generation returns a counter that increases on every mutation of the
// network (nodes, links, bandwidth, reservations). Consumers such as
// graph.Cache use it to detect that a network is unchanged without
// diffing its state.
func (n *Network) Generation() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.gen
}

// AddLink installs (or replaces) the directed link from→to.
func (n *Network) AddLink(from, to string, bandwidthKbps, delayMs, lossRate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[from] = true
	n.nodes[to] = true
	n.gen++
	n.orderOK = false
	n.links[edge{from, to}] = &linkState{
		bandwidthKbps: bandwidthKbps,
		delayMs:       delayMs,
		lossRate:      lossRate,
	}
}

// AddDuplexLink installs the link in both directions with identical
// characteristics.
func (n *Network) AddDuplexLink(a, b string, bandwidthKbps, delayMs, lossRate float64) {
	n.AddLink(a, b, bandwidthKbps, delayMs, lossRate)
	n.AddLink(b, a, bandwidthKbps, delayMs, lossRate)
}

// RemoveLink deletes the directed link.
func (n *Network) RemoveLink(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, existed := n.links[edge{from, to}]; existed {
		delete(n.links, edge{from, to})
		n.gen++
		n.orderOK = false
	}
}

// HasNode reports whether the host exists.
func (n *Network) HasNode(id string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.nodes[id]
}

// Nodes returns the sorted host IDs.
func (n *Network) Nodes() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// LinkCount returns the number of directed links.
func (n *Network) LinkCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.links)
}

// Link returns the directed link's characteristics. The bandwidth
// reported is the *available* (capacity minus reserved) bandwidth. A
// failed link, or one touching a failed host, reports ok == false.
func (n *Network) Link(from, to string) (bandwidthKbps, delayMs, lossRate float64, ok bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l, ok := n.links[edge{from, to}]
	if !ok || !n.usableLocked(edge{from, to}, l) {
		return 0, 0, 0, false
	}
	return l.available(), l.delayMs, l.lossRate, true
}

// Capacity returns the link's raw capacity and current reservation.
func (n *Network) Capacity(from, to string) (capacityKbps, reservedKbps float64, ok bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l, ok := n.links[edge{from, to}]
	if !ok {
		return 0, 0, false
	}
	return l.bandwidthKbps, l.reservedKbps, true
}

// Reserve admits kbps of traffic on the directed link, reducing the
// bandwidth later queries observe. It fails when the link is unknown or
// the unreserved capacity is insufficient.
func (n *Network) Reserve(from, to string, kbps float64) error {
	if kbps <= 0 {
		return fmt.Errorf("overlay: reservation must be positive, got %v", kbps)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[edge{from, to}]
	if !ok {
		return fmt.Errorf("overlay: no link %s->%s", from, to)
	}
	if !n.usableLocked(edge{from, to}, l) {
		return fmt.Errorf("overlay: link %s->%s is down", from, to)
	}
	if l.available() < kbps-1e-9 {
		return fmt.Errorf("overlay: link %s->%s has %.1f kbps available, need %.1f", from, to, l.available(), kbps)
	}
	l.reservedKbps += kbps
	n.gen++
	return nil
}

// Release returns previously reserved bandwidth. Over-releasing clamps
// the reservation at zero.
func (n *Network) Release(from, to string, kbps float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[edge{from, to}]; ok {
		l.reservedKbps -= kbps
		if l.reservedKbps < 0 {
			l.reservedKbps = 0
		}
		n.gen++
	}
}

// SetBandwidth updates the capacity of an existing link. It returns an
// error for unknown links.
func (n *Network) SetBandwidth(from, to string, kbps float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[edge{from, to}]
	if !ok {
		return fmt.Errorf("overlay: no link %s->%s", from, to)
	}
	l.bandwidthKbps = kbps
	n.gen++
	return nil
}

// ScaleBandwidth multiplies an existing link's bandwidth by factor.
func (n *Network) ScaleBandwidth(from, to string, factor float64) error {
	n.mu.RLock()
	l, ok := n.links[edge{from, to}]
	var kbps float64
	if ok {
		kbps = l.bandwidthKbps * factor
	}
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("overlay: no link %s->%s", from, to)
	}
	return n.SetBandwidth(from, to, kbps)
}

// AvailableBandwidth returns the bandwidth usable between two hosts per
// the paper's model: unlimited (+Inf) for co-located hosts, the link
// bandwidth for directly connected hosts, and otherwise the best
// bottleneck over any routed path (widest path). Returns 0 when the hosts
// are not connected at all.
func (n *Network) AvailableBandwidth(from, to string) float64 {
	if from == to {
		return math.Inf(1)
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.down[from] || n.down[to] {
		return 0
	}
	if l, ok := n.links[edge{from, to}]; ok && n.usableLocked(edge{from, to}, l) {
		return l.available()
	}
	return n.widestLocked(from, to)
}

// lockOrdered takes a lock under which n.ordered is current: the read
// lock when the order is already built, otherwise the write lock after
// building it. Release with unlockOrdered(write).
func (n *Network) lockOrdered() (write bool) {
	n.mu.RLock()
	if n.orderOK {
		return false
	}
	n.mu.RUnlock()
	n.mu.Lock()
	if !n.orderOK {
		n.ordered = n.ordered[:0]
		for e, l := range n.links {
			n.ordered = append(n.ordered, orderedLink{e, l})
		}
		slices.SortFunc(n.ordered, func(a, b orderedLink) int {
			if c := strings.Compare(a.e.from, b.e.from); c != 0 {
				return c
			}
			return strings.Compare(a.e.to, b.e.to)
		})
		n.orderOK = true
	}
	return true
}

func (n *Network) unlockOrdered(write bool) {
	if write {
		n.mu.Unlock()
	} else {
		n.mu.RUnlock()
	}
}

// Signature hashes the usable links, in (from, to) order, with their
// exact available bandwidth, delay and loss: the hash of Snapshot's
// links, read straight from the live link state without copying it.
// graph.Cache compares it to tell whether a cached graph's annotations
// and masks must be refreshed.
func (n *Network) Signature() uint64 {
	w := n.lockOrdered()
	defer n.unlockOrdered(w)
	h := newSigHash()
	for _, o := range n.ordered {
		if !n.usableLocked(o.e, o.l) {
			continue
		}
		h.str(o.e.from)
		h.str(o.e.to)
		h.f64(o.l.available())
		h.f64(o.l.delayMs)
		h.f64(o.l.lossRate)
	}
	return h.sum
}

// sigHash is the FNV-1a stream hasher Signature folds links into; u64
// folds a whole word per step.
type sigHash struct{ sum uint64 }

func newSigHash() sigHash { return sigHash{sum: 1469598103934665603} }

func (h *sigHash) byte(b byte) {
	h.sum ^= uint64(b)
	h.sum *= 1099511628211
}

func (h *sigHash) u64(v uint64) {
	h.sum ^= v
	h.sum *= 1099511628211
}

func (h *sigHash) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *sigHash) f64(v float64) { h.u64(math.Float64bits(v)) }

// Snapshot exports the current state as a static network profile, its
// links in (from, to) order. Failed links and links touching failed
// hosts are excluded — they carry no traffic until recovered.
func (n *Network) Snapshot() profile.Network {
	w := n.lockOrdered()
	defer n.unlockOrdered(w)
	links := make([]profile.Link, 0, len(n.ordered))
	for _, o := range n.ordered {
		if !n.usableLocked(o.e, o.l) {
			continue
		}
		links = append(links, profile.Link{
			From: o.e.from, To: o.e.to,
			BandwidthKbps: o.l.available(),
			DelayMs:       o.l.delayMs,
			LossRate:      o.l.lossRate,
		})
	}
	return profile.Network{Links: links}
}
