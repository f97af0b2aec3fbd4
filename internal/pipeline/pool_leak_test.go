package pipeline

import (
	"errors"
	"fmt"
	"testing"

	"qoschain/internal/transcode"
)

// The tests in this file audit the pool ownership discipline of DESIGN
// §12: after any run — clean, failed mid-batch, or canceled — every
// payload buffer taken from the pool must have been returned, so a
// private pool's Outstanding() reads zero. They run under -race in CI,
// which also exercises the shutdown paths for ordering bugs.

// leakPipeline builds a pooled pipeline over the failGraph chain with a
// private pool so the audit is not polluted by concurrent tests using
// the process-shared pool.
func leakPipeline(t *testing.T, pool *transcode.PayloadPool, hook FaultHook) *Pipeline {
	t.Helper()
	g, res := failGraph(t)
	p, err := FromResult(g, res, Options{
		Batch:     8,
		Pool:      pool,
		FaultHook: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func auditPool(t *testing.T, pool *transcode.PayloadPool, when string) {
	t.Helper()
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%s: %d pooled payload buffers leaked", when, n)
	}
}

func TestRunCleanLeaksNoPoolBuffers(t *testing.T) {
	pool := transcode.NewPayloadPool()
	p := leakPipeline(t, pool, nil)
	if stats := p.Run(200); stats.Failure != nil {
		t.Fatalf("unexpected failure: %v", stats.Failure)
	}
	auditPool(t, pool, "clean run")
}

// TestRunFailureLeaksNoPoolBuffers kills the chain at every element and
// at several frame offsets (start of a batch, mid-batch, deep into the
// stream) and asserts the pool balances each time. Mid-batch failures
// are the interesting case: the failing element holds a half-consumed
// input batch and a half-built output batch, and the chain cache still
// shelves the buffers earlier batches recycled.
func TestRunFailureLeaksNoPoolBuffers(t *testing.T) {
	stages := []string{"shaper:sender", "link:sender->conv", "conv", "link:conv->receiver"}
	for _, stage := range stages {
		for _, at := range []int{0, 3, 13, 100} {
			t.Run(fmt.Sprintf("%s@%d", stage, at), func(t *testing.T) {
				pool := transcode.NewPayloadPool()
				p := leakPipeline(t, pool, func(s string, frame int) error {
					if s == stage && frame >= at {
						return errors.New("injected crash")
					}
					return nil
				})
				if stats := p.Run(400); stats.Failure == nil {
					t.Fatal("expected a failure")
				}
				auditPool(t, pool, "failed run")
			})
		}
	}
}

// TestExecutorFailureLeaksNoPoolBuffers drives the same mid-batch
// failures through a shared executor, whose workers lend their own
// shelves to the chain for each turn.
func TestExecutorFailureLeaksNoPoolBuffers(t *testing.T) {
	ex := NewExecutor(2)
	defer ex.Close()
	for _, at := range []int{0, 5, 50} {
		pool := transcode.NewPayloadPool()
		p := leakPipeline(t, pool, func(s string, frame int) error {
			if s == "conv" && frame >= at {
				return errors.New("injected crash")
			}
			return nil
		})
		h, err := ex.Submit(p, 300)
		if err != nil {
			t.Fatal(err)
		}
		if stats := h.Wait(); stats.Failure == nil {
			t.Fatalf("at=%d: expected a failure", at)
		}
		auditPool(t, pool, fmt.Sprintf("executor failure at %d", at))
	}
}

// TestExecutorCancelLeaksNoPoolBuffers cancels chains mid-stream — and
// closes the executor with chains still queued — and asserts the pool
// balances. Cancellation lands at slice boundaries, so the audit proves
// no slice leaves payloads checked out between scheduling turns.
func TestExecutorCancelLeaksNoPoolBuffers(t *testing.T) {
	pool := transcode.NewPayloadPool()
	ex := NewExecutor(2)
	const chains = 8
	handles := make([]*Handle, 0, chains)
	for i := 0; i < chains; i++ {
		p := leakPipeline(t, pool, nil)
		h, err := ex.Submit(p, 100_000) // long enough to be mid-stream when canceled
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Cancel half explicitly; Close cancels the rest wherever they are.
	for _, h := range handles[:chains/2] {
		h.Cancel()
	}
	ex.Close()
	for i, h := range handles {
		stats := h.Wait()
		if !h.Canceled() {
			t.Fatalf("chain %d: expected cancellation, got %d/%d frames",
				i, stats.FramesOut, stats.FramesIn)
		}
	}
	auditPool(t, pool, "cancel + close")
}

// TestExecutorTurnsLeaveNothingCheckedOut drives chains through runSlice
// one scheduling turn at a time, as a worker would, and audits between
// turns: the chain's payload cache must have flushed every buffer back
// to the pool, so a parked chain holds none.
func TestExecutorTurnsLeaveNothingCheckedOut(t *testing.T) {
	hooks := map[string]FaultHook{
		"clean": nil,
		"failing": func(s string, frame int) error {
			if s == "conv" && frame >= 150 {
				return errors.New("injected crash")
			}
			return nil
		},
	}
	for name, hook := range hooks {
		t.Run(name, func(t *testing.T) {
			pool := transcode.NewPayloadPool()
			j := newJob(leakPipeline(t, pool, hook), 300)
			var shelves transcode.PayloadShelves
			turns := 0
			for done := false; !done; turns++ {
				done = j.runSlice(sliceBatches, &shelves)
				auditPool(t, pool, fmt.Sprintf("after turn %d", turns))
				if n := shelves.Len(); n != 0 {
					t.Fatalf("after turn %d: %d buffers left on the chain cache's shelves", turns, n)
				}
			}
			if turns < 2 {
				t.Fatalf("the stream finished in %d turn; no turn boundary was audited", turns)
			}
			stats := j.p.finish(j.n, j.rc, &j.acc)
			if (stats.Failure != nil) != (hook != nil) {
				t.Fatalf("failure %v, want one only when a hook injects it", stats.Failure)
			}
			if stats.FramesOut == 0 {
				t.Fatal("no frames delivered")
			}
		})
	}
}

// TestExecutorWaitLeaksNoPoolBuffers audits a clean drain at Wait, with
// the executor still open: every chain's cache has flushed by the time
// its Stats are published.
func TestExecutorWaitLeaksNoPoolBuffers(t *testing.T) {
	pool := transcode.NewPayloadPool()
	ex := NewExecutor(2)
	defer ex.Close()
	handles := make([]*Handle, 8)
	for i := range handles {
		h, err := ex.Submit(leakPipeline(t, pool, nil), 500)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		if stats := h.Wait(); stats.Failure != nil || stats.FramesOut == 0 {
			t.Fatalf("chain %d: failure %v, %d frames out", i, stats.Failure, stats.FramesOut)
		}
	}
	auditPool(t, pool, "clean drain at Wait")
}
