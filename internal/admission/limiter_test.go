package admission

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"qoschain/internal/metrics"
)

func virtualLimiter(capacity, maxQueue int) (*Limiter, *VirtualClock, *metrics.Counters) {
	clock := NewVirtualClock(time.Time{})
	counters := metrics.NewCounters()
	lim := NewLimiter(LimiterConfig{
		Capacity: capacity,
		MaxQueue: maxQueue,
		Clock:    clock,
		Metrics:  counters,
	})
	return lim, clock, counters
}

func TestOfferAdmitsUpToCapacity(t *testing.T) {
	lim, clock, _ := virtualLimiter(2, 4)
	a := lim.Offer(clock.Now().Add(time.Second))
	b := lim.Offer(clock.Now().Add(time.Second))
	c := lim.Offer(clock.Now().Add(time.Second))
	if !a.Admitted() || !b.Admitted() {
		t.Fatal("first two offers must be admitted directly")
	}
	if c.Admitted() || c.Shed() {
		t.Fatal("third offer must queue")
	}
	st := lim.Stats()
	if st.InFlight != 2 || st.QueueLen != 1 || st.Admitted != 2 || st.Queued != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOfferShedsWhenQueueFull(t *testing.T) {
	lim, clock, counters := virtualLimiter(1, 1)
	lim.Offer(time.Time{})
	lim.Offer(time.Time{}) // fills the queue
	shed := lim.Offer(clock.Now().Add(time.Second))
	if !shed.Shed() {
		t.Fatal("arrival past the queue bound must shed")
	}
	if !errors.Is(shed.Err(), ErrOverloaded) {
		t.Errorf("shed error %v must wrap ErrOverloaded", shed.Err())
	}
	if counters.Get(metrics.CounterAdmissionShedQueueFull) != 1 {
		t.Errorf("shed_queue_full counter = %d", counters.Get(metrics.CounterAdmissionShedQueueFull))
	}
}

func TestZeroQueueShedsEverythingOverCapacity(t *testing.T) {
	lim, _, _ := virtualLimiter(1, -1)
	lim.Offer(time.Time{})
	if !lim.Offer(time.Time{}).Shed() {
		t.Fatal("MaxQueue -1 must shed every arrival over capacity")
	}
}

func TestExpireShedsQueuedPastDeadline(t *testing.T) {
	lim, clock, counters := virtualLimiter(1, 4)
	held := lim.Offer(time.Time{})
	short := lim.Offer(clock.Now().Add(50 * time.Millisecond))
	long := lim.Offer(clock.Now().Add(500 * time.Millisecond))
	clock.Advance(100 * time.Millisecond)
	if n := lim.Expire(); n != 1 {
		t.Fatalf("Expire = %d, want 1", n)
	}
	if !short.Shed() || !errors.Is(short.Err(), ErrOverloaded) {
		t.Errorf("short-deadline ticket: shed=%v err=%v", short.Shed(), short.Err())
	}
	if long.Shed() || long.Admitted() {
		t.Error("long-deadline ticket must stay queued")
	}
	if counters.Get(metrics.CounterAdmissionShedExpired) != 1 {
		t.Errorf("shed_deadline counter = %d", counters.Get(metrics.CounterAdmissionShedExpired))
	}
	held.Release()
	if !long.Admitted() {
		t.Error("release must promote the surviving waiter")
	}
}

func TestReleasePromotesFIFO(t *testing.T) {
	lim, _, _ := virtualLimiter(1, 4)
	first := lim.Offer(time.Time{})
	q1 := lim.Offer(time.Time{})
	q2 := lim.Offer(time.Time{})
	first.Release()
	if !q1.Admitted() || q2.Admitted() {
		t.Fatal("release must promote the queue head, in arrival order")
	}
	// The slot transferred: in-flight stays at capacity.
	if st := lim.Stats(); st.InFlight != 1 || st.QueueLen != 1 {
		t.Errorf("stats after promotion = %+v", st)
	}
	q1.Release()
	if !q2.Admitted() {
		t.Fatal("second release must promote the next waiter")
	}
	q2.Release()
	if st := lim.Stats(); st.InFlight != 0 {
		t.Errorf("in flight after drain = %d", st.InFlight)
	}
}

func TestReleaseSkipsExpiredHeads(t *testing.T) {
	lim, clock, _ := virtualLimiter(1, 4)
	held := lim.Offer(time.Time{})
	expired := lim.Offer(clock.Now().Add(10 * time.Millisecond))
	live := lim.Offer(clock.Now().Add(time.Minute))
	clock.Advance(time.Second)
	held.Release()
	if !expired.Shed() {
		t.Error("expired head must be shed during promotion")
	}
	if !live.Admitted() {
		t.Error("first live waiter must take the slot")
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	lim, _, _ := virtualLimiter(1, 2)
	a := lim.Offer(time.Time{})
	b := lim.Offer(time.Time{})
	a.Release()
	a.Release() // double release must not free a second slot
	if st := lim.Stats(); st.InFlight != 1 {
		t.Errorf("in flight = %d after double release, want 1", st.InFlight)
	}
	if !b.Admitted() {
		t.Error("waiter must hold the transferred slot")
	}
}

// TestDeterministicTenXBurst replays the acceptance scenario: a 10x
// burst against capacity N under a virtual clock yields an exact,
// replayable admitted/queued/shed breakdown.
func TestDeterministicTenXBurst(t *testing.T) {
	run := func() LimiterStats {
		lim, clock, _ := virtualLimiter(4, 8)
		const n = 40 // 10x capacity
		tickets := make([]*Ticket, 0, n)
		for i := 0; i < n; i++ {
			tickets = append(tickets, lim.Offer(clock.Now().Add(100*time.Millisecond)))
		}
		// Service takes 60ms per admitted request; tick in 20ms steps
		// until everything resolves.
		type running struct {
			t      *Ticket
			finish time.Time
		}
		var active []running
		collect := func(now time.Time) {
			for _, tk := range tickets {
				already := false
				for _, r := range active {
					if r.t == tk {
						already = true
						break
					}
				}
				if tk.Admitted() && !already {
					active = append(active, running{tk, now.Add(60 * time.Millisecond)})
				}
			}
		}
		collect(clock.Now())
		for step := 0; step < 50; step++ {
			clock.Advance(20 * time.Millisecond)
			now := clock.Now()
			keep := active[:0]
			for _, r := range active {
				if !now.Before(r.finish) {
					r.t.Release()
					continue
				}
				keep = append(keep, r)
			}
			active = keep
			lim.Expire()
			collect(now)
			st := lim.Stats()
			if st.InFlight == 0 && st.QueueLen == 0 && len(active) == 0 {
				break
			}
		}
		return lim.Stats()
	}

	first := run()
	second := run()
	if first != second {
		t.Fatalf("burst not replayable: %+v vs %+v", first, second)
	}
	// Exact breakdown: 4 admitted directly; 8 queue, of which the first 4
	// are promoted at t=60ms (within their 100ms deadline) and the last 4
	// expire before the second wave of slots frees at t=120ms; 28 shed at
	// the full queue. Every request accounted once.
	if first.Admitted != 8 || first.Queued != 8 || first.ShedQueueFull != 28 || first.ShedExpired != 4 {
		t.Errorf("breakdown = %+v", first)
	}
	if first.Admitted+first.ShedQueueFull+first.ShedExpired != 40 {
		t.Errorf("requests unaccounted: %+v", first)
	}
}

func TestAcquireImmediateAndQueueFull(t *testing.T) {
	lim := NewLimiter(LimiterConfig{Capacity: 1, MaxQueue: -1})
	release, err := lim.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lim.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated zero-queue Acquire err = %v", err)
	}
	release()
	release2, err := lim.Acquire(context.Background())
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	release2()
}

func TestAcquireDeadlineExpiresWhileQueued(t *testing.T) {
	lim := NewLimiter(LimiterConfig{Capacity: 1, MaxQueue: 4})
	release, err := lim.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := lim.Acquire(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued Acquire past deadline err = %v", err)
	}
	if st := lim.Stats(); st.ShedExpired != 1 || st.QueueLen != 0 {
		t.Errorf("stats = %+v", st)
	}
	release()
	if st := lim.Stats(); st.InFlight != 0 {
		t.Errorf("in flight = %d after drain", st.InFlight)
	}
}

func TestAcquireCancelWhileQueued(t *testing.T) {
	lim := NewLimiter(LimiterConfig{Capacity: 1, MaxQueue: 4})
	release, err := lim.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := lim.Acquire(ctx)
		errc <- err
	}()
	// Wait until the goroutine is queued, then cancel.
	for lim.Stats().QueueLen == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cancelled Acquire err = %v", err)
	}
}

// TestConcurrentAcquireNoLeaks saturates the limiter from many
// goroutines and verifies the books balance and no goroutine outlives
// the burst.
func TestConcurrentAcquireNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	lim := NewLimiter(LimiterConfig{Capacity: 4, MaxQueue: 8})
	const n = 64
	var wg sync.WaitGroup
	var mu sync.Mutex
	granted, refused := 0, 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			release, err := lim.Acquire(ctx)
			mu.Lock()
			if err != nil {
				refused++
			} else {
				granted++
			}
			mu.Unlock()
			if err == nil {
				time.Sleep(time.Millisecond)
				release()
			}
		}()
	}
	wg.Wait()
	if granted+refused != n {
		t.Fatalf("granted %d + refused %d != %d", granted, refused, n)
	}
	st := lim.Stats()
	if st.InFlight != 0 || st.QueueLen != 0 {
		t.Errorf("limiter not drained: %+v", st)
	}
	if int(st.Admitted) != granted || int(st.ShedQueueFull+st.ShedExpired) != refused {
		t.Errorf("stats disagree with outcomes: %+v vs granted=%d refused=%d", st, granted, refused)
	}
	// The limiter runs no background goroutines; allow the runtime a
	// moment to retire the workers.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock(time.Time{})
	start := c.Now()
	c.Advance(3 * time.Second)
	if got := c.Now().Sub(start); got != 3*time.Second {
		t.Errorf("Advance moved %v, want 3s", got)
	}
}
