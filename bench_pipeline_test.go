// Data-plane benchmarks (EXT-M in EXPERIMENTS.md): the batched,
// pooled inline loop against the seed implementation's frame-at-a-time
// protocol, plus the shared-executor scaling sweep. Results are pinned in BENCH_pipeline.json; the
// regression guard (pipeline_perf_guard_test.go) re-measures the
// speedup in CI.
package qoschain

import (
	"fmt"
	"testing"

	"qoschain/internal/core"
	"qoschain/internal/pipeline"
	"qoschain/internal/workload"
)

const benchFrames = 2000

// dataPlaneChain selects a 5-service backbone chain — the shape the
// ISSUE's acceptance numbers are defined on.
func dataPlaneChain(b *testing.B) (workload.Scenario, *core.Result) {
	b.Helper()
	sc := lineScenario(5)
	res, err := core.Select(sc.Graph, sc.Config)
	if err != nil || !res.Found {
		b.Fatal("5-stage selection failed")
	}
	return sc, res
}

// BenchmarkDataPlaneReference is the "before" side: the seed protocol —
// whole stream materialized up front, goroutine per element, one channel
// operation per frame, no payload recycling.
func BenchmarkDataPlaneReference(b *testing.B) {
	sc, res := dataPlaneChain(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := pipeline.FromResult(sc.Graph, res, pipeline.Options{NoPool: true})
		if err != nil {
			b.Fatal(err)
		}
		stats := p.RunReference(benchFrames)
		if stats.FramesOut == 0 {
			b.Fatal("no frames delivered")
		}
	}
	reportFrameRate(b)
}

// BenchmarkDataPlaneBatched sweeps the batch size through the batched,
// pooled Run — the executor's inline loop driven to completion on the
// benchmark goroutine. batch=1 isolates the per-batch overhead (element
// dispatch, counter folds); batch=64 is the default the acceptance
// numbers are pinned at.
func BenchmarkDataPlaneBatched(b *testing.B) {
	sc, res := dataPlaneChain(b)
	for _, batch := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := pipeline.FromResult(sc.Graph, res, pipeline.Options{Batch: batch})
				if err != nil {
					b.Fatal(err)
				}
				stats := p.Run(benchFrames)
				if stats.FramesOut == 0 {
					b.Fatal("no frames delivered")
				}
			}
			reportFrameRate(b)
		})
	}
}

// BenchmarkDataPlaneExecutor drives fleets of concurrent chains through
// one shared worker pool — the daemon deployment shape. Sessions share
// the payload pool, so the steady state allocates almost nothing no
// matter how many chains are in flight.
func BenchmarkDataPlaneExecutor(b *testing.B) {
	sc, res := dataPlaneChain(b)
	for _, sessions := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex := pipeline.NewExecutor(0)
				handles := make([]*pipeline.Handle, sessions)
				for s := range handles {
					p, err := pipeline.FromResult(sc.Graph, res, pipeline.Options{})
					if err != nil {
						b.Fatal(err)
					}
					h, err := ex.Submit(p, benchFrames/4)
					if err != nil {
						b.Fatal(err)
					}
					handles[s] = h
				}
				for _, h := range handles {
					if st := h.Wait(); st.FramesOut == 0 {
						b.Fatal("no frames delivered")
					}
				}
				ex.Close()
			}
			b.ReportMetric(
				float64(sessions)*float64(benchFrames/4)*float64(b.N)/b.Elapsed().Seconds(),
				"frames/sec")
		})
	}
}

// reportFrameRate converts ns/op into the source-frame throughput the
// acceptance criteria are phrased in.
func reportFrameRate(b *testing.B) {
	b.ReportMetric(float64(benchFrames)*float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
}
