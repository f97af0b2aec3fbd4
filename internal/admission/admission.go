// Package admission is the serving layer's overload protection: the
// request-admission discipline that keeps a burst of compose/session
// traffic from oversubscribing overlay links or piling onto the
// planner. The paper composes each chain under per-link bandwidth and
// cost budgets (Section 4.3); this package applies the same budget
// thinking at the boundary where requests enter the system, in three
// layers:
//
//  1. Limiter — a deadline-aware concurrency limiter with a bounded
//     FIFO queue. Requests beyond the in-flight cap wait in arrival
//     order up to their context deadline, then are shed with
//     ErrOverloaded; a full queue sheds immediately.
//  2. RateLimiter — per-client token buckets, so one hot client cannot
//     starve the rest of the queue.
//  3. Capacity admission — overlay.Network.ReserveChain atomically
//     holds a chain's per-edge bandwidth before activation and rejects
//     compositions that would oversubscribe live reservations
//     (internal/overlay; sessions wire it through Config.ReserveBandwidth).
//
// Everything is deterministic under an injected Clock: tests and the
// adaptsim -overload scenario drive a VirtualClock step by step and get
// an exact, replayable admitted/queued/shed breakdown. All components
// report through metrics.Counters (the admission.* names in
// internal/metrics); a nil counter sink is a valid no-op.
package admission

import (
	"errors"
	"sync"
	"time"
)

// ErrOverloaded is the typed shed signal: the system refused work to
// protect itself. Wrapping errors say why (queue full, deadline expired
// while queued, rate limited). HTTP layers map it to 429/503 with a
// Retry-After hint.
var ErrOverloaded = errors.New("admission: overloaded")

// ErrRateLimited is returned when a client exhausted its token bucket.
// It wraps ErrOverloaded so a single errors.Is covers every shed path.
var ErrRateLimited = &wrappedErr{msg: "admission: client rate limited", wraps: ErrOverloaded}

// wrappedErr is a sentinel error that also matches a broader sentinel.
type wrappedErr struct {
	msg   string
	wraps error
}

func (e *wrappedErr) Error() string { return e.msg }
func (e *wrappedErr) Unwrap() error { return e.wraps }

// Clock abstracts time so overload behavior replays exactly in tests
// and simulations.
type Clock interface {
	Now() time.Time
}

// SystemClock is the wall clock.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// VirtualClock is a manually advanced clock: nothing moves unless the
// driver moves it, which is what makes overload experiments replayable.
type VirtualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewVirtualClock starts at the given instant (a zero start uses a
// fixed arbitrary epoch so durations stay positive).
func NewVirtualClock(start time.Time) *VirtualClock {
	if start.IsZero() {
		start = time.Date(2007, 4, 15, 0, 0, 0, 0, time.UTC)
	}
	return &VirtualClock{t: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}
