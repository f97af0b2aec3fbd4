package pipeline

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/satisfaction"
	"qoschain/internal/service"
)

// failGraph builds a minimal sender -> conv -> receiver chain and selects
// it, returning the graph and result ready for FromResult.
func failGraph(t *testing.T) (*graph.Graph, *core.Result) {
	t.Helper()
	conv := service.FormatConverter("conv", media.Opaque(1), media.Opaque(2))
	g := graph.NewGraph("s", "r")
	if err := g.AddService(conv); err != nil {
		t.Fatal(err)
	}
	edges := []*graph.Edge{
		{From: graph.SenderID, To: "conv", Format: media.Opaque(1), BandwidthKbps: 10000,
			SourceParams: media.Params{media.ParamFrameRate: 30}},
		{From: "conv", To: graph.ReceiverID, Format: media.Opaque(2), BandwidthKbps: 10000},
	}
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := core.Select(g, core.Config{
		Profile: satisfaction.NewProfile(map[media.Param]satisfaction.Function{
			media.ParamFrameRate: satisfaction.Linear{M: 1, I: 30},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func TestStageFailurePropagates(t *testing.T) {
	g, res := failGraph(t)
	boom := errors.New("injected crash")
	p, err := FromResult(g, res, Options{
		FaultHook: func(stage string, frame int) error {
			if stage == "conv" && frame >= 10 {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(100)
	if stats.Failure == nil {
		t.Fatal("expected a stage failure")
	}
	if stats.Failure.Stage != "conv" || stats.Failure.Frame != 10 {
		t.Errorf("failure = %+v", stats.Failure)
	}
	if !errors.Is(stats.Failure, boom) {
		t.Error("failure must unwrap to the injected cause")
	}
	if stats.FramesOut >= 100 {
		t.Errorf("failed run delivered %d frames", stats.FramesOut)
	}
}

func TestLinkFailurePropagates(t *testing.T) {
	g, res := failGraph(t)
	p, err := FromResult(g, res, Options{
		FaultHook: func(stage string, frame int) error {
			if stage == "link:conv->receiver" && frame >= 5 {
				return errors.New("link severed")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(50)
	if stats.Failure == nil || stats.Failure.Stage != "link:conv->receiver" {
		t.Fatalf("failure = %+v", stats.Failure)
	}
}

func TestCleanRunHasNoFailure(t *testing.T) {
	g, res := failGraph(t)
	p, err := FromResult(g, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(30)
	if stats.Failure != nil {
		t.Fatalf("unexpected failure: %v", stats.Failure)
	}
	if stats.FramesOut == 0 {
		t.Fatal("clean run delivered nothing")
	}
}

// TestFailureShutdownLeaksNoGoroutines kills a RunReference chain —
// the one path that still runs a goroutine per element — mid-stream
// many times and checks the goroutine count settles back to the
// baseline, i.e. failure shutdown unwinds every element goroutine
// instead of stranding it on a channel operation.
func TestFailureShutdownLeaksNoGoroutines(t *testing.T) {
	g, res := failGraph(t)
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		p, err := FromResult(g, res, Options{
			NoPool: true,
			FaultHook: func(stage string, frame int) error {
				if stage == "conv" && frame >= 3 {
					return errors.New("crash")
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats := p.RunReference(500); stats.Failure == nil {
			t.Fatal("expected failure")
		}
	}
	// Allow exiting goroutines to be reaped before counting.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", base, runtime.NumGoroutine())
}

// TestRunStaysOnCallerGoroutine checks that Run starts no goroutine of
// its own: a fault hook sees every frame at every element, and the
// goroutine count it observes never rises above the count taken just
// before Run.
func TestRunStaysOnCallerGoroutine(t *testing.T) {
	g, res := failGraph(t)
	var mu sync.Mutex
	peak := 0
	p, err := FromResult(g, res, Options{
		Batch: 8,
		FaultHook: func(string, int) error {
			n := runtime.NumGoroutine()
			mu.Lock()
			peak = max(peak, n)
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	stats := p.Run(200)
	if stats.Failure != nil || stats.FramesOut != 200 {
		t.Fatalf("failure %v, %d of 200 frames delivered", stats.Failure, stats.FramesOut)
	}
	if peak > base {
		t.Fatalf("Run ran its chain on %d goroutines beyond the caller's (baseline %d, peak %d)",
			peak-base, base, peak)
	}
}
