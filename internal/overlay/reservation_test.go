package overlay

import (
	"errors"
	"sync"
	"testing"
)

func TestReserveChainAllOrNothing(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	n.AddLink("b", "c", 300, 0, 0)
	err := n.ReserveChain([]Reservation{
		{From: "a", To: "b", Kbps: 500},
		{From: "b", To: "c", Kbps: 500}, // exceeds b->c
	})
	if !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("err = %v, want ErrInsufficientCapacity", err)
	}
	var ce *CapacityError
	if !errors.As(err, &ce) || ce.From != "b" || ce.To != "c" || ce.AvailableKbps != 300 || ce.NeedKbps != 500 {
		t.Errorf("CapacityError = %+v", ce)
	}
	// The rejection left nothing held: the first link is untouched.
	if got := n.AvailableBandwidth("a", "b"); got != 1000 {
		t.Errorf("a->b available after rejected chain = %v, want 1000 (no partial hold)", got)
	}
	if n.TotalReservedKbps() != 0 {
		t.Errorf("total reserved = %v, want 0", n.TotalReservedKbps())
	}
}

func TestReserveChainCommitsAtomically(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	n.AddLink("b", "c", 1000, 0, 0)
	rs := []Reservation{
		{From: "a", To: "b", Kbps: 400},
		{From: "b", To: "c", Kbps: 400},
	}
	if err := n.ReserveChain(rs); err != nil {
		t.Fatal(err)
	}
	if got := n.AvailableBandwidth("a", "b"); got != 600 {
		t.Errorf("a->b available = %v", got)
	}
	if n.TotalReservedKbps() != 800 {
		t.Errorf("total reserved = %v, want 800", n.TotalReservedKbps())
	}
	n.ReleaseChain(rs)
	if n.TotalReservedKbps() != 0 {
		t.Errorf("total after release = %v", n.TotalReservedKbps())
	}
}

func TestReserveChainAggregatesRepeatedLinks(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	// A chain crossing the same link twice needs the summed share — two
	// 600s on a 1000 link must be rejected even though each fits alone.
	err := n.ReserveChain([]Reservation{
		{From: "a", To: "b", Kbps: 600},
		{From: "a", To: "b", Kbps: 600},
	})
	if !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("aggregated oversubscription must be rejected, got %v", err)
	}
	if err := n.ReserveChain([]Reservation{
		{From: "a", To: "b", Kbps: 400},
		{From: "a", To: "b", Kbps: 400},
	}); err != nil {
		t.Fatal(err)
	}
	if got := n.AvailableBandwidth("a", "b"); got != 200 {
		t.Errorf("available = %v, want 200", got)
	}
}

func TestReserveChainSkipsColocatedAndNonPositive(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 100, 0, 0)
	if err := n.ReserveChain([]Reservation{
		{From: "h", To: "h", Kbps: 1e9}, // co-located: infinite intra-host bandwidth
		{From: "a", To: "b", Kbps: 0},
		{From: "a", To: "b", Kbps: -5},
	}); err != nil {
		t.Fatalf("co-located and non-positive shares must be ignored: %v", err)
	}
	if n.TotalReservedKbps() != 0 {
		t.Errorf("nothing should be held, got %v", n.TotalReservedKbps())
	}
}

func TestReserveChainRejectsDownAndMissingLinks(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	err := n.ReserveChain([]Reservation{{From: "x", To: "y", Kbps: 10}})
	var ce *CapacityError
	if !errors.As(err, &ce) || !ce.Down {
		t.Fatalf("missing link must reject with Down, got %v", err)
	}
	if err := n.FailLink("a", "b"); err != nil {
		t.Fatal(err)
	}
	err = n.ReserveChain([]Reservation{{From: "a", To: "b", Kbps: 10}})
	if !errors.As(err, &ce) || !ce.Down || !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("failed link must reject with Down, got %v", err)
	}
}

func TestReserveChainBumpsGeneration(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1000, 0, 0)
	before := n.Generation()
	rs := []Reservation{{From: "a", To: "b", Kbps: 250}}
	if err := n.ReserveChain(rs); err != nil {
		t.Fatal(err)
	}
	if got := n.AvailableBandwidth("a", "b"); got != 750 {
		t.Errorf("available after reserve = %v, want 750", got)
	}
	if n.Generation() == before {
		t.Error("reserve must bump the generation (graph caches must invalidate)")
	}
	before = n.Generation()
	n.ReleaseChain(rs)
	if got := n.AvailableBandwidth("a", "b"); got != 1000 {
		t.Errorf("available after release = %v, want 1000", got)
	}
	if n.Generation() == before {
		t.Error("release must bump the generation")
	}
}

// TestReserveChainConcurrentAdmission races two chains over a shared
// bottleneck that can hold only one of them: exactly one must win, and
// the loser must leave no partial holds.
func TestReserveChainConcurrentAdmission(t *testing.T) {
	for round := 0; round < 50; round++ {
		n := New()
		n.AddLink("a", "b", 1000, 0, 0)
		n.AddLink("b", "c", 600, 0, 0)
		chain := []Reservation{
			{From: "a", To: "b", Kbps: 500},
			{From: "b", To: "c", Kbps: 500},
		}
		var wg sync.WaitGroup
		results := make([]error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = n.ReserveChain(chain)
			}(i)
		}
		wg.Wait()
		wins := 0
		for _, err := range results {
			if err == nil {
				wins++
			} else if !errors.Is(err, ErrInsufficientCapacity) {
				t.Fatalf("loser error = %v", err)
			}
		}
		if wins != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", round, wins)
		}
		if n.TotalReservedKbps() != 1000 {
			t.Fatalf("round %d: total reserved = %v, want 1000 (one full chain)", round, n.TotalReservedKbps())
		}
	}
}
