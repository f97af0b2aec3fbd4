// Data-plane regression guard: the batched pooled Run must stay at
// least 9.9x faster than the seed-protocol reference on the 5-stage
// chain, and must allocate less than one heap object per source frame
// in steady state, both alone and as a fleet of 16 chains on one shared
// Executor. Run is the inline loop on the caller's goroutine; it
// records 23.5x in BENCH_pipeline.json (batch-64 median throughput) and
// ~30x here (per-variant minimums), on a 2-vCPU Xeon. The floor is
// 90% of the 11x the earlier goroutine-per-element Run recorded. Opt-in via PIPELINE_PERF_GUARD=1 (CI
// runs it in a dedicated step) because micro-benchmark timing is too
// noisy for the default test matrix.
package qoschain

import (
	"fmt"
	"os"
	"testing"

	"qoschain/internal/core"
	"qoschain/internal/pipeline"
)

// Floors: 9.9x is 90% of the 11x the goroutine-per-element Run once
// recorded; the inline Run now clears it by more than 2x.
const (
	guardSpeedupFloor    = 9.9
	guardAllocsPerFrame  = 1.0
	guardFramesPerStream = 2000
	guardFleetChains     = 16
)

func TestPipelinePerfGuard(t *testing.T) {
	if os.Getenv("PIPELINE_PERF_GUARD") == "" {
		t.Skip("set PIPELINE_PERF_GUARD=1 to run the data-plane regression guard")
	}
	sc := lineScenario(5)
	res, err := core.Select(sc.Graph, sc.Config)
	if err != nil || !res.Found {
		t.Fatal("5-stage selection failed")
	}
	refBench := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := pipeline.FromResult(sc.Graph, res, pipeline.Options{NoPool: true})
			if err != nil {
				b.Fatal(err)
			}
			if p.RunReference(guardFramesPerStream).FramesOut == 0 {
				b.Fatal("no frames delivered")
			}
		}
	}
	batchBench := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := pipeline.FromResult(sc.Graph, res, pipeline.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if p.Run(guardFramesPerStream).FramesOut == 0 {
				b.Fatal("no frames delivered")
			}
		}
	}

	// Interleave several runs of each variant and compare the per-variant
	// minimums — the least scheduler-disturbed measurement of each — so
	// the ratio reflects the protocols, not which run drew the noisier
	// time slice. The allocation count comes from the batched runs (it is
	// deterministic across them).
	const runs = 5
	var refNs, batchNs int64
	var batchAllocs int64
	for i := 0; i < runs; i++ {
		if ns := testing.Benchmark(refBench).NsPerOp(); refNs == 0 || ns < refNs {
			refNs = ns
		}
		r := testing.Benchmark(batchBench)
		if ns := r.NsPerOp(); batchNs == 0 || ns < batchNs {
			batchNs = ns
		}
		batchAllocs = r.AllocsPerOp()
	}

	// The fleet: chains sharing one executor run inline on its workers,
	// drawing payloads through their chain caches. A cache that fell
	// back to allocating would show here, not in the single-chain Run.
	ex := pipeline.NewExecutor(0)
	defer ex.Close()
	fleet := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		handles := make([]*pipeline.Handle, guardFleetChains)
		for i := 0; i < b.N; i++ {
			for c := range handles {
				p, err := pipeline.FromResult(sc.Graph, res, pipeline.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if handles[c], err = ex.Submit(p, guardFramesPerStream); err != nil {
					b.Fatal(err)
				}
			}
			for _, h := range handles {
				if h.Wait().FramesOut == 0 {
					b.Fatal("no frames delivered")
				}
			}
		}
	})

	speedup := float64(refNs) / float64(batchNs)
	perFrame := float64(batchAllocs) / float64(guardFramesPerStream)
	fleetPerFrame := float64(fleet.AllocsPerOp()) / float64(guardFleetChains*guardFramesPerStream)
	msg := fmt.Sprintf("reference %d ns/op, batched %d ns/op, speedup %.2fx, %.3f allocs/frame; %d-chain executor fleet %.3f allocs/frame",
		refNs, batchNs, speedup, perFrame, guardFleetChains, fleetPerFrame)
	if speedup < guardSpeedupFloor {
		t.Fatalf("data-plane speedup below the %.1fx floor: %s", guardSpeedupFloor, msg)
	}
	if perFrame >= guardAllocsPerFrame {
		t.Fatalf("steady-state allocations at or above %.0f/frame: %s", guardAllocsPerFrame, msg)
	}
	if fleetPerFrame >= guardAllocsPerFrame {
		t.Fatalf("executor fleet allocations at or above %.0f/frame: %s", guardAllocsPerFrame, msg)
	}
	t.Log(msg)
}
