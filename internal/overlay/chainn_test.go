package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// chainNet builds a seeded random overlay over hosts h0..h5: random
// capacities with odd fractions (so sums round), random standing
// reservations, and an occasional failed link or host. Two calls with
// the same seed build identical networks.
func chainNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := New()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j || rng.Intn(4) == 0 {
				continue
			}
			from, to := fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", j)
			n.AddLink(from, to, 50+rng.Float64()*2000, 1, 0)
			if rng.Intn(3) == 0 {
				n.Reserve(from, to, rng.Float64()*40) //nolint:errcheck
			}
			if rng.Intn(12) == 0 {
				n.FailLink(from, to) //nolint:errcheck
			}
		}
	}
	if rng.Intn(6) == 0 {
		n.FailHost(fmt.Sprintf("h%d", rng.Intn(6))) //nolint:errcheck
	}
	return n
}

// randomChain draws a chain hold: mostly known links at one bitrate,
// sometimes a repeated link, a co-located pair, a non-positive share or
// an unknown host.
func randomChain(rng *rand.Rand) []Reservation {
	kbps := 1 + rng.Float64()*300
	if rng.Intn(10) == 0 {
		kbps = 0
	}
	var rs []Reservation
	hops := 1 + rng.Intn(4)
	for i := 0; i < hops; i++ {
		from, to := fmt.Sprintf("h%d", rng.Intn(6)), fmt.Sprintf("h%d", rng.Intn(6))
		if rng.Intn(20) == 0 {
			to = "nowhere"
		}
		rs = append(rs, Reservation{From: from, To: to, Kbps: kbps})
		if rng.Intn(8) == 0 {
			rs = append(rs, rs[len(rs)-1]) // a chain crossing a link twice
		}
	}
	return rs
}

// sameLedger fails unless every link of a and b carries bit-identical
// capacity and reservation (==, not a tolerance).
func sameLedger(t *testing.T, label string, a, b *Network) {
	t.Helper()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			from, to := fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", j)
			ac, ar, aok := a.Capacity(from, to)
			bc, br, bok := b.Capacity(from, to)
			if ac != bc || ar != br || aok != bok {
				t.Fatalf("%s: %s->%s run (%v, %v, %v) vs serial (%v, %v, %v)",
					label, from, to, ac, ar, aok, bc, br, bok)
			}
		}
	}
	if a.Generation() != b.Generation() {
		t.Fatalf("%s: generation %d vs serial %d", label, a.Generation(), b.Generation())
	}
}

// TestChainNMatchesSerialCalls is the run oracle: on random capacities,
// each *N call must leave every link bit-identical to n back-to-back
// single calls and report the same number of successes.
func TestChainNMatchesSerialCalls(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		run, serial := chainNet(seed), chainNet(seed)
		for op := 0; op < 12; op++ {
			count := 1 + rng.Intn(40)
			a, b := randomChain(rng), randomChain(rng)
			label := fmt.Sprintf("seed %d op %d", seed, op)
			switch rng.Intn(3) {
			case 0:
				got, _ := run.ReserveChainN(a, count)
				want := 0
				for i := 0; i < count; i++ {
					if serial.ReserveChain(a) == nil {
						want++
					}
				}
				if got != want {
					t.Fatalf("%s: ReserveChainN = %d, serial %d", label, got, want)
				}
			case 1:
				if got := run.ReleaseChainN(a, count); got != count {
					t.Fatalf("%s: ReleaseChainN = %d, want %d", label, got, count)
				}
				for i := 0; i < count; i++ {
					serial.ReleaseChain(a)
				}
			case 2:
				got, _ := run.SwapChainN(a, b, count)
				want := 0
				for i := 0; i < count; i++ {
					if serial.SwapChain(a, b) == nil {
						want++
					}
				}
				if got != want {
					t.Fatalf("%s: SwapChainN = %d, serial %d", label, got, want)
				}
			}
			sameLedger(t, label, run, serial)
		}
	}
}

// TestChainNStopsAtFirstFailure pins the run contract on a link that
// fits exactly k of n holds: k commit, the rest are refused whole, and
// the error names the full link.
func TestChainNStopsAtFirstFailure(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	n.AddLink("b", "c", 350, 0, 0)
	rs := []Reservation{{From: "a", To: "b", Kbps: 100}, {From: "b", To: "c", Kbps: 100}}
	got, err := n.ReserveChainN(rs, 5)
	var ce *CapacityError
	if got != 3 || !errors.As(err, &ce) || ce.From != "b" || ce.To != "c" {
		t.Fatalf("ReserveChainN = %d, %v; want 3 and b->c full", got, err)
	}
	if _, reserved, _ := n.Capacity("a", "b"); reserved != 300 {
		t.Fatalf("a->b reserves %v, want 300 (no partial hold from the refused admissions)", reserved)
	}
	next := []Reservation{{From: "a", To: "b", Kbps: 125}, {From: "b", To: "c", Kbps: 125}}
	got, err = n.SwapChainN(rs, next, 3)
	if got != 2 || err == nil {
		t.Fatalf("SwapChainN = %d, %v; want 2 and a refusal", got, err)
	}
	if _, reserved, _ := n.Capacity("b", "c"); reserved != 2*125+100 {
		t.Fatalf("b->c reserves %v, want 350: two moved, one left on the old hold", reserved)
	}
}

// TestChainNAllocatesNothing holds the run calls to zero allocations:
// links resolve into a stack buffer.
func TestChainNAllocatesNothing(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 0, 0)
	n.AddLink("b", "c", 1e9, 0, 0)
	n.AddLink("a", "c", 1e9, 0, 0)
	old := []Reservation{{From: "a", To: "b", Kbps: 10}, {From: "b", To: "c", Kbps: 10}}
	next := []Reservation{{From: "a", To: "c", Kbps: 10}}
	allocs := testing.AllocsPerRun(100, func() {
		n.ReserveChainN(old, 64)    //nolint:errcheck
		n.SwapChainN(old, next, 64) //nolint:errcheck
		n.ReleaseChainN(next, 64)
	})
	if allocs != 0 {
		t.Fatalf("run calls allocate %v times per round, want 0", allocs)
	}
}
