package overlay

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"qoschain/internal/profile"
)

// refFnv is the graph cache's FNV-1a stream hasher, kept here so that
// the reference below does not share code with Signature.
type refFnv struct{ sum uint64 }

func (h *refFnv) byte(b byte) {
	h.sum ^= uint64(b)
	h.sum *= 1099511628211
}

func (h *refFnv) u64(v uint64) {
	h.sum ^= v
	h.sum *= 1099511628211
}

func (h *refFnv) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *refFnv) f64(v float64) { h.u64(math.Float64bits(v)) }

// snapshotSignature is the signature hash as the graph cache first
// computed it: hash a sorted Snapshot's links. Signature must equal it
// on every network state.
func snapshotSignature(p profile.Network) uint64 {
	h := refFnv{1469598103934665603}
	for _, l := range p.Links {
		h.str(l.From)
		h.str(l.To)
		h.f64(l.BandwidthKbps)
		h.f64(l.DelayMs)
		h.f64(l.LossRate)
	}
	return h.sum
}

// sortedSnapshot is Snapshot as it was before the links were kept in
// order: walk the link map, then sort.
func sortedSnapshot(n *Network) profile.Network {
	n.mu.RLock()
	defer n.mu.RUnlock()
	links := make([]profile.Link, 0, len(n.links))
	for e, l := range n.links {
		if !n.usableLocked(e, l) {
			continue
		}
		links = append(links, profile.Link{
			From: e.from, To: e.to,
			BandwidthKbps: l.available(),
			DelayMs:       l.delayMs,
			LossRate:      l.lossRate,
		})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	return profile.Network{Links: links}
}

// mutate applies one random mutation: add or remove a link, fail or
// recover a host or link, reserve or release (single links and chains),
// or set bandwidth, delay or loss. Errors are expected (a host already
// down, a reservation that does not fit) and ignored: the state after a
// refused call is as valid a probe as any other.
func mutate(rng *rand.Rand, n *Network, hosts []string) string {
	a, b := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
	kbps := float64(rng.Intn(4)) * 500 // 0 kbps crosses connectivity
	switch op := rng.Intn(12); op {
	case 0:
		n.AddLink(a, b, kbps+float64(rng.Intn(500)), float64(rng.Intn(50)), rng.Float64()*0.1)
		return fmt.Sprintf("add %s->%s", a, b)
	case 1:
		n.RemoveLink(a, b)
		return fmt.Sprintf("remove %s->%s", a, b)
	case 2:
		_ = n.FailHost(a)
		return "failhost " + a
	case 3:
		_ = n.RecoverHost(a)
		return "recoverhost " + a
	case 4:
		_ = n.FailLink(a, b)
		return fmt.Sprintf("faillink %s->%s", a, b)
	case 5:
		_ = n.RecoverLink(a, b)
		return fmt.Sprintf("recoverlink %s->%s", a, b)
	case 6:
		_ = n.Reserve(a, b, 1+float64(rng.Intn(800)))
		return fmt.Sprintf("reserve %s->%s", a, b)
	case 7:
		n.Release(a, b, float64(rng.Intn(800)))
		return fmt.Sprintf("release %s->%s", a, b)
	case 8:
		_ = n.SetBandwidth(a, b, kbps)
		return fmt.Sprintf("bandwidth %s->%s %g", a, b, kbps)
	case 9:
		_ = n.SetDelay(a, b, float64(rng.Intn(80)))
		return fmt.Sprintf("delay %s->%s", a, b)
	case 10:
		_ = n.SetLoss(a, b, rng.Float64()*0.2)
		return fmt.Sprintf("loss %s->%s", a, b)
	default:
		c := hosts[rng.Intn(len(hosts))]
		rs := []Reservation{{From: a, To: b, Kbps: 100}, {From: b, To: c, Kbps: 100}}
		switch rng.Intn(3) {
		case 0:
			_, _ = n.ReserveChainN(rs, 1+rng.Intn(4))
		case 1:
			n.ReleaseChainN(rs, 1+rng.Intn(4))
		default:
			_, _ = n.SwapChainN(rs[:1], rs[1:], 1+rng.Intn(4))
		}
		return fmt.Sprintf("chain %s->%s->%s", a, b, c)
	}
}

// TestSignaturesMatchSnapshotHash: over seeded random mutation
// sequences, the signature hashed from the live link state equals the
// hash of a sorted Snapshot after every step, and Snapshot, which no
// longer sorts, equals the walk-and-sort export.
func TestSignaturesMatchSnapshotHash(t *testing.T) {
	hosts := []string{"sender", "p1", "p2", "p3", "p10", "recv"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := New()
		for i := 0; i < 6; i++ {
			n.AddLink(hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))], 1000, 10, 0)
		}
		for step := 0; step < 150; step++ {
			what := mutate(rng, n, hosts)
			if rng.Intn(4) == 0 {
				continue // let mutations pile up between hashes
			}
			want := sortedSnapshot(n)
			if got, wantSig := n.Signature(), snapshotSignature(want); got != wantSig {
				t.Fatalf("seed %d step %d (%s): Signature = %x, snapshot hash %x", seed, step, what, got, wantSig)
			}
			if got := n.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): Snapshot = %v, want %v", seed, step, what, got.Links, want.Links)
			}
		}
	}
}

// TestSignatureTracksLinkValues: the signature moves on every change a
// cached graph must see — a new delay, a link whose available bandwidth
// reaches zero, a failed link, a removed link — and returns to its old
// value when the state it hashed comes back.
func TestSignatureTracksLinkValues(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 10, 0)
	n.AddLink("b", "c", 1000, 10, 0)
	sig0 := n.Signature()
	_ = n.SetDelay("a", "b", 20)
	sig1 := n.Signature()
	if sig1 == sig0 {
		t.Fatal("a delay change left the signature unchanged")
	}
	_ = n.Reserve("a", "b", 1000)
	if n.Signature() == sig1 {
		t.Fatal("a fully reserved link left the signature unchanged")
	}
	n.Release("a", "b", 1000)
	_ = n.SetDelay("a", "b", 10)
	if n.Signature() != sig0 {
		t.Fatal("restoring the first state did not restore its signature")
	}
	_ = n.FailLink("b", "c")
	if n.Signature() == sig0 {
		t.Fatal("a failed link left the signature unchanged")
	}
	_ = n.RecoverLink("b", "c")
	if n.Signature() != sig0 {
		t.Fatal("recovering the link did not restore the signature")
	}
	n.RemoveLink("b", "c")
	if n.Signature() == sig0 {
		t.Fatal("a removed link left the signature unchanged")
	}
}

// TestSignaturesAllocateNothing: once the link order is built, hashing
// the live state allocates nothing, value changes included.
func TestSignaturesAllocateNothing(t *testing.T) {
	n := New()
	for i := 0; i < 32; i++ {
		n.AddLink(fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", (i+1)%32), 1000, 5, 0)
	}
	kbps := 1000.0
	allocs := testing.AllocsPerRun(200, func() {
		kbps = 3000 - kbps
		_ = n.SetBandwidth("h3", "h4", kbps)
		n.Signature()
	})
	if allocs != 0 {
		t.Fatalf("Signature allocates %.1f times per call, want 0", allocs)
	}
}

// TestSignaturesConcurrentWithTopologyChanges races hashing, exports
// and the lazy order rebuild against links coming and going (run under
// -race).
func TestSignaturesConcurrentWithTopologyChanges(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 5, 0)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n.Signature()
				if links := n.Snapshot().Links; !sort.SliceIsSorted(links, func(i, j int) bool {
					return links[i].From < links[j].From || links[i].From == links[j].From && links[i].To < links[j].To
				}) {
					t.Errorf("Snapshot out of order: %v", links)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		to := fmt.Sprintf("h%d", i%7)
		n.AddLink("a", to, float64(i), 5, 0)
		if i%3 == 0 {
			n.RemoveLink("a", to)
		}
		_ = n.SetBandwidth("a", "b", math.Mod(float64(i), 5)*100)
	}
	wg.Wait()
}
