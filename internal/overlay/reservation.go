package overlay

import (
	"errors"
	"fmt"
)

// Capacity admission: before a composed chain is activated, its
// bandwidth is reserved on every inter-host link it crosses —
// atomically, so two concurrent admissions can never each pass a check
// the other invalidates. A chain that would oversubscribe any live
// reservation is rejected whole, with no partial holds to unwind.
// Co-located services (From == To) need no reservation, per the paper's
// model of infinite intra-host bandwidth.

// ErrInsufficientCapacity is the typed rejection of a chain admission:
// at least one link lacks the unreserved bandwidth the chain needs.
var ErrInsufficientCapacity = errors.New("overlay: insufficient link capacity")

// CapacityError reports the first link that could not take a chain's
// reservation. It wraps ErrInsufficientCapacity.
type CapacityError struct {
	From, To                string
	AvailableKbps, NeedKbps float64
	// Down marks a link (or endpoint) that is failed rather than
	// merely full.
	Down bool
}

// Error implements error.
func (e *CapacityError) Error() string {
	if e.Down {
		return fmt.Sprintf("overlay: link %s->%s is down", e.From, e.To)
	}
	return fmt.Sprintf("overlay: link %s->%s has %.1f kbps available, need %.1f",
		e.From, e.To, e.AvailableKbps, e.NeedKbps)
}

// Unwrap ties the error to ErrInsufficientCapacity for errors.Is.
func (e *CapacityError) Unwrap() error { return ErrInsufficientCapacity }

// Reservation is one directed-link share of a chain admission.
type Reservation struct {
	From, To string
	Kbps     float64
}

// ReserveChain atomically admits every reservation or none: all links
// are checked under one lock before any is mutated, so a rejected chain
// leaves the overlay untouched and a concurrent admission can never
// interleave between check and commit. Reservations on the same link
// are summed before checking (a chain may cross a link twice);
// co-located pairs (From == To) and non-positive shares are skipped.
// On failure it returns a *CapacityError naming the first offending
// link in chain order. It is ReserveChainN with count 1.
func (n *Network) ReserveChain(rs []Reservation) error {
	_, err := n.ReserveChainN(rs, 1)
	return err
}

// ReserveChainN admits the same chain count times under one lock — the
// float operations of count back-to-back ReserveChain calls, with each
// link resolved once. A rejected admission leaves the overlay untouched,
// so every later one would be rejected too: the first rejection ends
// the run. It returns how many admissions committed and, when fewer
// than count did, the rejection's *CapacityError.
func (n *Network) ReserveChainN(rs []Reservation, count int) (int, error) {
	if count <= 0 {
		return 0, nil
	}
	var buf [8]linkShare
	n.mu.Lock()
	need := n.sumSharesLocked(rs, buf[:0])
	done := 0
	var err error
	for ; done < count; done++ {
		// Check phase: nothing is mutated until every link clears.
		if err = checkShares(need); err != nil {
			break
		}
		for _, s := range need {
			s.l.reservedKbps += s.kbps
		}
	}
	if len(need) > 0 {
		n.gen += uint64(done)
	}
	n.mu.Unlock()
	return done, err
}

// ReleaseChain returns a chain's reservations in one mutation,
// clamping each link's reservation at zero. Unknown links and
// co-located pairs are ignored. It is ReleaseChainN with count 1.
func (n *Network) ReleaseChain(rs []Reservation) {
	n.ReleaseChainN(rs, 1)
}

// ReleaseChainN returns the same chain's reservations count times under
// one lock — the float operations of count back-to-back ReleaseChain
// calls, with each link resolved once. A release cannot fail, so it
// returns count.
func (n *Network) ReleaseChainN(rs []Reservation, count int) int {
	if count <= 0 {
		return 0
	}
	var buf [8]linkShare
	n.mu.Lock()
	shares := n.sharesLocked(rs, buf[:0])
	for range count {
		releaseShares(shares)
	}
	if len(shares) > 0 {
		n.gen += uint64(count)
	}
	n.mu.Unlock()
	return count
}

// SwapChain atomically moves a session from one chain hold to another:
// the old reservations are released and the new ones acquired under one
// lock, so a concurrent admission can never observe the session holding
// both chains, half a chain, or neither. The release is visible to the
// acquire check, which is what lets a storm re-plan succeed on links
// that are full only because of the holds being replaced. On failure
// every touched reservation is restored to its exact prior value and a
// *CapacityError names the first offending link — the session keeps its
// old hold untouched. It is SwapChainN with count 1.
func (n *Network) SwapChain(release, acquire []Reservation) error {
	_, err := n.SwapChainN(release, acquire, 1)
	return err
}

// SwapChainN moves count sessions holding the same chain to the same new
// chain under one lock — the float operations of count back-to-back
// SwapChain calls, with each link resolved once. A failed swap restores
// every touched link to its exact prior value, so every later swap would
// fail too: the first failure ends the run. It returns how many swaps
// committed and, when fewer than count did, the failure's
// *CapacityError.
func (n *Network) SwapChainN(release, acquire []Reservation, count int) (int, error) {
	if count <= 0 {
		return 0, nil
	}
	var relBuf, acqBuf [8]linkShare
	n.mu.Lock()
	rel := n.sharesLocked(release, relBuf[:0])
	acq := n.sumSharesLocked(acquire, acqBuf[:0])
	done := 0
	var err error
	for ; done < count; done++ {
		// Remember every link's prior reservation so a failed acquire
		// can restore the overlay byte-for-byte.
		saveShares(rel)
		saveShares(acq)
		releaseShares(rel)
		// Check phase: nothing further is mutated until every link
		// clears.
		if err = checkShares(acq); err != nil {
			restoreShares(rel)
			restoreShares(acq)
			break
		}
		for _, s := range acq {
			s.l.reservedKbps += s.kbps
		}
	}
	if len(rel)+len(acq) > 0 {
		n.gen += uint64(done)
	}
	n.mu.Unlock()
	return done, err
}

// linkShare is one chain reservation resolved against the link table
// once, so a run of identical chains touches each link by pointer.
type linkShare struct {
	e    edge
	l    *linkState // nil when the link is unknown
	kbps float64
	// usable records whether the link carries traffic; failures cannot
	// change under the lock, so it is read once per call.
	usable bool
	// prior is the link's reservation before the current swap.
	prior float64
}

// sharesLocked resolves a chain's reservations one by one, as a release
// walks them: co-located pairs, non-positive shares and unknown links
// are skipped.
func (n *Network) sharesLocked(rs []Reservation, out []linkShare) []linkShare {
	for _, r := range rs {
		if r.From == r.To || r.Kbps <= 0 {
			continue
		}
		e := edge{r.From, r.To}
		if l, ok := n.links[e]; ok {
			out = append(out, linkShare{e: e, l: l, kbps: r.Kbps})
		}
	}
	return out
}

// sumSharesLocked resolves a chain's reservations as an admission needs
// them: summed per link in first-touch order (a chain may cross a link
// twice, and errors name the first offending link in chain order),
// co-located pairs and non-positive shares skipped. An unknown link
// stays in the list, unusable.
func (n *Network) sumSharesLocked(rs []Reservation, out []linkShare) []linkShare {
	for _, r := range rs {
		if r.From == r.To || r.Kbps <= 0 {
			continue
		}
		e := edge{r.From, r.To}
		i := 0
		for i < len(out) && out[i].e != e {
			i++
		}
		if i == len(out) {
			l := n.links[e]
			out = append(out, linkShare{e: e, l: l, usable: l != nil && n.usableLocked(e, l)})
		}
		out[i].kbps += r.Kbps
	}
	return out
}

// checkShares returns the rejection of the first share its link cannot
// take now — failed, unknown or short of unreserved bandwidth — or nil
// when every link clears.
func checkShares(need []linkShare) error {
	for _, s := range need {
		if !s.usable {
			return &CapacityError{From: s.e.from, To: s.e.to, NeedKbps: s.kbps, Down: true}
		}
		if avail := s.l.available(); avail < s.kbps-1e-9 {
			return &CapacityError{From: s.e.from, To: s.e.to, AvailableKbps: avail, NeedKbps: s.kbps}
		}
	}
	return nil
}

// releaseShares subtracts each share from its link, clamping at zero.
func releaseShares(shares []linkShare) {
	for _, s := range shares {
		s.l.reservedKbps -= s.kbps
		if s.l.reservedKbps < 0 {
			s.l.reservedKbps = 0
		}
	}
}

func saveShares(shares []linkShare) {
	for i := range shares {
		if l := shares[i].l; l != nil {
			shares[i].prior = l.reservedKbps
		}
	}
}

func restoreShares(shares []linkShare) {
	for _, s := range shares {
		if s.l != nil {
			s.l.reservedKbps = s.prior
		}
	}
}

// TotalReservedKbps sums the live reservations across all links — the
// admission layer's "how much of the overlay is spoken for" gauge.
func (n *Network) TotalReservedKbps() float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	total := 0.0
	for _, l := range n.links {
		total += l.reservedKbps
	}
	return total
}
