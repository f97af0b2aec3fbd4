package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"qoschain/internal/metrics"
	"qoschain/internal/transcode"
)

// sliceBatches is how many source batches one scheduling turn processes
// before a chain yields its worker. Small enough that a slow chain
// cannot starve the run queue, large enough to amortize the queue
// round-trip.
const sliceBatches = 4

// Executor multiplexes many concurrent chains over a fixed worker pool
// instead of spawning goroutines-per-stage-per-session: with S sessions
// of k-element chains, the process runs W ≈ GOMAXPROCS goroutines, not
// S·(k+2). Each chain is scheduled cooperatively — a worker pulls it
// from the FIFO run queue, pushes a bounded slice of batches through
// every element inline, and requeues it — so a slow link stalls only
// its own chain while others keep flowing, and live payload memory is
// bounded by O(workers · batch), not by session count.
//
// A turn is runSlice, the loop Pipeline.Run drives to completion on
// its caller's goroutine, so a chain on the Executor and a chain under
// Run share everything — stage code, token buckets, seeded loss draws,
// fault hooks, typed failures — and a given seed yields identical
// Stats.
type Executor struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*job
	closed bool
	wg     sync.WaitGroup

	active atomic.Int64
}

// job is one chain's scheduling state. It is owned by the run queue,
// by exactly one worker, or by Run's caller, so its fields need no
// locking.
type job struct {
	p    *Pipeline
	rc   *runCtx
	cur  *transcode.Cursor
	bufA []transcode.Frame
	bufB []transcode.Frame
	acc  deliveryAccumulator
	n    int
	h    *Handle
	ex   *Executor
}

// Handle tracks one submitted chain.
type Handle struct {
	done     chan struct{}
	stats    Stats
	canceled atomic.Bool
}

// Wait blocks until the chain drains, fails, or is canceled, and
// returns its statistics. A canceled chain reports the partial delivery
// up to the cancellation point.
func (h *Handle) Wait() Stats {
	<-h.done
	return h.stats
}

// Cancel asks the chain to stop at its next scheduling turn. It never
// blocks; Wait still returns (with partial Stats).
func (h *Handle) Cancel() { h.canceled.Store(true) }

// Canceled reports whether Cancel was called (or the executor closed)
// before the chain drained.
func (h *Handle) Canceled() bool { return h.canceled.Load() }

// NewExecutor starts a worker pool. workers <= 0 sizes the pool to
// GOMAXPROCS. Close must be called to release the workers.
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Executor{workers: workers}
	e.cond = sync.NewCond(&e.mu)
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers reports the pool size.
func (e *Executor) Workers() int { return e.workers }

// Active reports how many submitted chains have not yet finished.
func (e *Executor) Active() int { return int(e.active.Load()) }

// Submit schedules a pipeline to stream n source frames. The pipeline
// must be freshly built (FromResult) and must not be run by any other
// means. Submit never blocks on chain execution; backpressure is
// per-chain (one slice of batches in flight each turn).
func (e *Executor) Submit(p *Pipeline, n int) (*Handle, error) {
	j := newJob(p, n)
	j.ex = e
	h := j.h
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("pipeline: executor is closed")
	}
	e.active.Add(1)
	e.queue = append(e.queue, j)
	e.cond.Signal()
	e.mu.Unlock()
	return h, nil
}

// Close stops the pool: chains still queued or mid-stream are canceled
// (their Wait returns partial Stats), and Close blocks until every
// worker has exited. Submitting after Close fails.
func (e *Executor) Close() {
	e.mu.Lock()
	e.closed = true
	pending := e.queue
	e.queue = nil
	e.cond.Broadcast()
	e.mu.Unlock()
	for _, j := range pending {
		j.h.canceled.Store(true)
		j.finish()
	}
	e.wg.Wait()
}

func (e *Executor) worker() {
	defer e.wg.Done()
	// The worker lends its shelves to each chain it runs, so a chain's
	// payload cache costs no memory of its own and holds nothing while
	// the chain is parked.
	var shelves transcode.PayloadShelves
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 {
			// closed and drained
			e.mu.Unlock()
			return
		}
		j := e.queue[0]
		e.queue[0] = nil
		e.queue = e.queue[1:]
		depth := len(e.queue)
		e.mu.Unlock()

		if s := j.p.sink; s != nil {
			s.Observe(metrics.SamplePipelineQueueDepth, float64(depth))
		}
		if j.runSlice(sliceBatches, &shelves) {
			j.finish()
			continue
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			j.h.canceled.Store(true)
			j.finish()
			continue
		}
		e.queue = append(e.queue, j)
		e.cond.Signal()
		e.mu.Unlock()
	}
}

// newJob prepares p to stream n source frames through runSlice.
func newJob(p *Pipeline, n int) *job {
	return &job{
		p:    p,
		rc:   newRunCtx(),
		cur:  p.source.Cursor(n, p.cache),
		bufA: make([]transcode.Frame, 0, p.batch),
		bufB: make([]transcode.Frame, 0, p.batch),
		n:    n,
		h:    &Handle{done: make(chan struct{})},
	}
}

// runSlice pushes up to k source batches through the whole chain
// inline. It returns true when the chain is finished — drained, failed,
// or canceled.
//
// For the turn, the chain's payload cache is bound to shelves (the
// worker's, or Run's own), so what the sink returns feeds the cursor
// without touching the pool's locks; every exit flushes it. No batch
// is in flight between turns either, so no payload stays checked out of
// the pool while the chain is parked.
func (j *job) runSlice(k int, shelves *transcode.PayloadShelves) bool {
	j.p.cache.Bind(shelves, j.p.batch)
	defer j.p.cache.Flush()
	for s := 0; s < k; s++ {
		if j.h.canceled.Load() {
			return true
		}
		in := j.cur.Next(j.bufA[:0])
		if len(in) == 0 {
			return true
		}
		spare := j.bufB
		for _, st := range j.p.stages {
			next, ok := st.process(j.rc, in, spare[:0])
			if !ok {
				// The element recycled its unconsumed input; the partial
				// output batch is ours to return to the pool.
				recycleFrames(j.p.cache, next)
				return true
			}
			spare, in = in, next
		}
		j.acc.take(in, j.p.cache)
		// Keep whatever capacities the turn ended up with.
		j.bufA, j.bufB = in, spare
	}
	return j.cur.Remaining() == 0
}

// finish publishes the job's Stats exactly once and releases waiters.
func (j *job) finish() {
	j.h.stats = j.p.finish(j.n, j.rc, &j.acc)
	j.ex.active.Add(-1)
	close(j.h.done)
}
