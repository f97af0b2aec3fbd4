package pipeline

import (
	"fmt"
	"sync"

	"qoschain/internal/transcode"
)

// StageFailure is the typed error a failing chain element raises: which
// stage broke, at which source frame, and why. A failed pipeline stops
// cleanly — the inline loop returns at the failing element, its
// unconsumed payloads go back to the pool, and the run reports the
// failure with its partial delivery — rather than silently stalling the
// stream.
type StageFailure struct {
	// Stage is the failing element's ID (service ID, "link:a->b", or
	// "shaper:sender").
	Stage string
	// Frame is the source sequence number being processed when the
	// stage failed.
	Frame int
	// Err is the underlying cause.
	Err error
}

func (f *StageFailure) Error() string {
	return fmt.Sprintf("pipeline: stage %s failed at frame %d: %v", f.Stage, f.Frame, f.Err)
}

func (f *StageFailure) Unwrap() error { return f.Err }

// FaultHook is consulted before each frame a chain element handles.
// Returning a non-nil error fails that stage — the injection point the
// fault layer uses to kill a live chain mid-stream.
type FaultHook func(stage string, frame int) error

// runCtx records a run's first StageFailure. Closing stop on that
// failure unwinds RunReference's element goroutines, each blocked in a
// send or receive; the inline loop returns at the failing element and
// never waits on it.
type runCtx struct {
	stop chan struct{}
	once sync.Once

	mu      sync.Mutex
	failure *StageFailure
}

func newRunCtx() *runCtx {
	return &runCtx{stop: make(chan struct{})}
}

// fail records the first failure and signals shutdown.
func (rc *runCtx) fail(stage string, frame int, err error) {
	rc.once.Do(func() {
		rc.mu.Lock()
		rc.failure = &StageFailure{Stage: stage, Frame: frame, Err: err}
		rc.mu.Unlock()
		close(rc.stop)
	})
}

// Failure returns the recorded failure, if any.
func (rc *runCtx) Failure() *StageFailure {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.failure
}

// recv receives the next frame, aborting if the run is shutting down.
// Used by the frame-at-a-time reference path.
func (rc *runCtx) recv(in <-chan transcode.Frame) (transcode.Frame, bool) {
	select {
	case <-rc.stop:
		return transcode.Frame{}, false
	case f, ok := <-in:
		return f, ok
	}
}

// send forwards a frame downstream, aborting if the run is shutting down.
// Used by the frame-at-a-time reference path.
func (rc *runCtx) send(out chan<- transcode.Frame, f transcode.Frame) bool {
	select {
	case <-rc.stop:
		return false
	case out <- f:
		return true
	}
}
