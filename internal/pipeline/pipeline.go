// Package pipeline executes a selected adaptation chain over a synthetic
// media stream. It is the runtime that turns a core.Result into flowing
// frames — the "self-organizing data distribution" role the paper's
// framework delegates to the intermediaries — and it is built to sustain
// the rates the planner negotiates: one inline loop pushes frame
// batches through every chain element in turn, payload buffers recycle
// through a pool with zero-copy handoff between stages that don't
// re-encode, and a shared Executor multiplexes thousands of concurrent
// chains over a fixed worker pool, one bounded slice of batches per
// scheduling turn. Run is the same loop driven to completion on the
// caller's goroutine.
//
// Ownership rules (DESIGN §12): a frame belongs to exactly one chain
// element at a time. An element that consumes a frame either hands its
// payload downstream (links, zero-copy rewrites), recycles it to the
// pool (drops, re-encodes), or leaves it to the garbage collector when
// no pool is attached. Frame Params are shared read-only and must never
// be mutated in flight.
package pipeline

import (
	"fmt"
	"math"
	"math/rand"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/transcode"
)

// DefaultBatch is the number of frames each element handles per call
// when Options.Batch is unset. Per-batch overhead (element dispatch,
// counter folds, scheduling turns) amortizes roughly batch-fold, so the
// default is large enough to make it negligible while keeping per-chain
// memory small.
const DefaultBatch = 64

// sharedPool recycles payload buffers across every pooled pipeline in
// the process, so concurrent chains under one Executor feed each other's
// steady state instead of allocating privately.
var sharedPool = transcode.NewPayloadPool()

// StageStats reports one stage's frame accounting.
type StageStats struct {
	// ID names the stage (service ID, or "link:a->b" for links).
	ID string
	// Consumed/Emitted/Dropped count frames.
	Consumed int
	Emitted  int
	Dropped  int
}

// Stats summarizes one pipeline run.
type Stats struct {
	// FramesIn is the number of source frames fed in.
	FramesIn int
	// FramesOut is the number delivered to the receiver.
	FramesOut int
	// BytesOut is the delivered payload volume.
	BytesOut int
	// DeliveredFPS is the average delivered frame rate over the
	// stream's duration (virtual time).
	DeliveredFPS float64
	// ChainDelayMs is the static end-to-end network latency of the
	// chain: the sum of the link delays along the path.
	ChainDelayMs float64
	// Stages lists per-stage accounting in chain order (links
	// interleaved with services).
	Stages []StageStats
	// Failure is the first stage failure of the run, nil on a clean
	// drain. A failed run still reports the frames delivered before the
	// chain went down.
	Failure *StageFailure
}

// Pipeline is a runnable chain instance. A Pipeline carries per-run
// stage state (counters, token buckets, decimation accumulators), so
// each instance must be run exactly once — build a fresh one per run
// with FromResult.
type Pipeline struct {
	source  transcode.Source
	stages  []runner
	batch   int
	cache   *transcode.PayloadCache
	sink    *metrics.Counters
	delayMs float64
}

// runner is one chain element: a trans-coding stage or a link. It
// consumes one input batch and appends survivors to out; returning
// false aborts the run (the element has recorded a StageFailure).
type runner interface {
	process(rc *runCtx, in, out []transcode.Frame) ([]transcode.Frame, bool)
	stats() StageStats
}

// stageRunner wraps a transcode stage.
type stageRunner struct {
	id    string
	p     processor
	hook  FaultHook
	cache *transcode.PayloadCache
}

// recycleFrames returns the payloads of an abandoned batch to the pool
// — the cleanup every failure and cancellation path owes the pool so
// its outstanding-buffer accounting returns to zero.
func recycleFrames(cache *transcode.PayloadCache, frames []transcode.Frame) {
	for i := range frames {
		cache.Put(frames[i].Payload)
	}
}

// processor is the subset of transcode stages the pipeline drives.
type processor interface {
	ProcessAppend(*transcode.Frame, []transcode.Frame) []transcode.Frame
	UseCache(*transcode.PayloadCache)
	Counters() (consumed, emitted, dropped int)
}

func (s *stageRunner) process(rc *runCtx, in, out []transcode.Frame) ([]transcode.Frame, bool) {
	for i := range in {
		f := &in[i]
		if s.hook != nil {
			if err := s.hook(s.id, f.Seq); err != nil {
				rc.fail(s.id, f.Seq, err)
				// The failing frame and everything behind it were never
				// consumed; their payloads go back to the pool here (the
				// caller recycles the partial output batch).
				recycleFrames(s.cache, in[i:])
				return out, false
			}
		}
		out = s.p.ProcessAppend(f, out)
	}
	return out, true
}

func (s *stageRunner) stats() StageStats {
	c, e, d := s.p.Counters()
	return StageStats{ID: s.id, Consumed: c, Emitted: e, Dropped: d}
}

// linkRunner enforces a link's bandwidth over virtual time with a
// continuous token bucket: tokens accrue at kbps*1000/8 bytes per virtual
// second (burst capacity of one second) and a frame passes only when the
// bucket holds its payload. Oversubscribed frames are dropped — the loss
// a real network would impose when the negotiated rate is exceeded.
type linkRunner struct {
	id    string
	loss  float64
	rng   *rand.Rand
	hook  FaultHook
	cache *transcode.PayloadCache

	// token-bucket state and counters, touched only by the goroutine
	// driving this chain (Run's caller, an executor worker's turn, or
	// RunReference's element goroutine); stats() reads the counters once
	// the run is over.
	rate    float64
	burst   float64
	tokens  float64
	lastPTS float64
	limited bool

	consumed, emitted, dropped int
}

func newLinkRunner(id string, kbps, loss float64, rng *rand.Rand, hook FaultHook, cache *transcode.PayloadCache) *linkRunner {
	rate := kbps * 1000 / 8 // bytes per virtual second
	return &linkRunner{
		id: id, loss: loss, rng: rng, hook: hook, cache: cache,
		rate: rate, burst: rate, tokens: rate,
		limited: !math.IsInf(kbps, 1) && kbps > 0,
	}
}

func (l *linkRunner) process(rc *runCtx, in, out []transcode.Frame) ([]transcode.Frame, bool) {
	ok := true
	for i := range in {
		f := &in[i]
		if l.hook != nil {
			if err := l.hook(l.id, f.Seq); err != nil {
				rc.fail(l.id, f.Seq, err)
				// Unconsumed frames (this one included) return to the
				// pool; the caller recycles the partial output batch.
				recycleFrames(l.cache, in[i:])
				ok = false
				break
			}
		}
		l.consumed++
		if l.loss > 0 && l.rng != nil && l.rng.Float64() < l.loss {
			l.dropped++
			l.cache.Put(f.Payload)
			continue
		}
		if l.limited {
			if f.PTS > l.lastPTS {
				l.tokens += (f.PTS - l.lastPTS) * l.rate
				if l.tokens > l.burst {
					l.tokens = l.burst
				}
				l.lastPTS = f.PTS
			}
			need := float64(len(f.Payload))
			if need > l.tokens+1e-6 {
				l.dropped++
				l.cache.Put(f.Payload)
				continue
			}
			l.tokens -= need
		}
		l.emitted++
		out = append(out, *f)
	}
	return out, ok
}

func (l *linkRunner) stats() StageStats {
	return StageStats{
		ID:       l.id,
		Consumed: l.consumed,
		Emitted:  l.emitted,
		Dropped:  l.dropped,
	}
}

// Options tunes pipeline construction.
type Options struct {
	// Batch is the number of frames generated per source step and
	// handed to each element per call (default DefaultBatch). A partial
	// batch moves on at once — no element holds frames back to fill one.
	Batch int
	// NoPool disables payload-buffer pooling and zero-copy handoff,
	// reverting to a fresh allocation per re-encoded frame. Used by the
	// reference path and by callers that retain delivered frames.
	NoPool bool
	// Pool, when set (and NoPool is false), replaces the process-shared
	// payload pool for this pipeline. Leak audits use a private pool so
	// Outstanding() reflects one run rather than every concurrent chain.
	Pool *transcode.PayloadPool
	// Bitrate sizes synthetic payloads; nil uses media.DefaultBitrate.
	Bitrate media.BitrateModel
	// GOP is the source keyframe interval (default 10).
	GOP int
	// LossSeed seeds the per-link packet-loss draws so lossy runs are
	// reproducible (0 uses seed 1).
	LossSeed int64
	// FaultHook, when set, is consulted by every chain element before
	// each frame; a non-nil return fails that stage with a typed
	// StageFailure and shuts the whole pipeline down.
	FaultHook FaultHook
	// Metrics, when set, receives the pipeline.* series (frame/byte/
	// drop totals, batch occupancy) folded in when the run finishes. A
	// nil sink is a no-op.
	Metrics *metrics.Counters
}

func (o Options) batch() int {
	if o.Batch > 0 {
		return o.Batch
	}
	return DefaultBatch
}

// FromResult assembles a runnable pipeline from a selection result: the
// source emits the first edge's variant, each service on the path becomes
// a stage emitting the negotiated downstream parameters, and each edge
// becomes a bandwidth-limited link.
//
// Stage targets: the final delivered parameters (res.Params) bound every
// stage — a stage never has to emit more than the chain ultimately
// delivers, which matches the optimizer's choice of per-edge parameters.
//
// A chain whose service does not accept the format its upstream sends
// fails the build: the stages' per-frame path does not check formats.
func FromResult(g *graph.Graph, res *core.Result, opts Options) (*Pipeline, error) {
	if res == nil || !res.Found {
		return nil, fmt.Errorf("pipeline: no chain to instantiate")
	}
	if len(res.Path) < 2 || len(res.Formats) != len(res.Path)-1 {
		return nil, fmt.Errorf("pipeline: malformed result path")
	}

	// Source parameters come from the sender's outgoing edge.
	sourceEdge := g.EdgeBetween(graph.SenderID, res.Path[1], res.Formats[0])
	if sourceEdge == nil {
		return nil, fmt.Errorf("pipeline: result path's first edge not in graph")
	}

	p := &Pipeline{
		source: transcode.Source{
			Format:  res.Formats[0],
			Params:  sourceEdge.SourceParams,
			Bitrate: opts.Bitrate,
			GOP:     opts.GOP,
		},
		batch: opts.batch(),
		sink:  opts.Metrics,
	}
	if !opts.NoPool {
		pool := opts.Pool
		if pool == nil {
			pool = sharedPool
		}
		p.cache = transcode.NewPayloadCache(pool)
	}

	// The sender shapes the stream down to the negotiated delivery
	// parameters before the first link, mirroring the optimizer's
	// per-edge parameter choice.
	shaper := transcode.NewShaper(res.Params, opts.Bitrate)
	shaper.UseCache(p.cache)
	p.stages = append(p.stages, &stageRunner{
		id:    "shaper:sender",
		p:     shaper,
		hook:  opts.FaultHook,
		cache: p.cache,
	})

	// Walk the path: link to node i, then (if a service) its stage.
	for i := 1; i < len(res.Path); i++ {
		edge := g.EdgeBetween(res.Path[i-1], res.Path[i], res.Formats[i-1])
		if edge == nil {
			return nil, fmt.Errorf("pipeline: missing edge %s->%s", res.Path[i-1], res.Path[i])
		}
		seed := opts.LossSeed
		if seed == 0 {
			seed = 1
		}
		var lossRNG *rand.Rand
		if edge.LossRate > 0 {
			lossRNG = rand.New(rand.NewSource(seed + int64(i)))
		}
		p.stages = append(p.stages, newLinkRunner(
			fmt.Sprintf("link:%s->%s", edge.From, edge.To),
			edge.BandwidthKbps, edge.LossRate, lossRNG, opts.FaultHook, p.cache,
		))
		p.delayMs += edge.DelayMs
		node, _ := g.Node(res.Path[i])
		if node == nil || node.Service == nil {
			continue // receiver
		}
		// A stage's batched path trusts its input format; check the
		// wiring here, once per chain, instead of once per frame.
		if inFormat := res.Formats[i-1]; !node.Service.Accepts(inFormat) {
			return nil, fmt.Errorf("pipeline: mis-wired chain: service %s does not accept %s", node.Service.ID, inFormat)
		}
		outFormat := res.Formats[i] // format leaving this service
		target := res.Params.Min(node.Service.Caps)
		stage, err := transcode.NewStage(node.Service, outFormat, target, opts.Bitrate)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		stage.UseCache(p.cache)
		p.stages = append(p.stages, &stageRunner{
			id:    string(node.Service.ID),
			p:     stage,
			hook:  opts.FaultHook,
			cache: p.cache,
		})
	}
	return p, nil
}

// Run pushes n source frames through the chain on the calling
// goroutine and returns the delivery statistics once the stream drains
// or a stage fails.
//
// It is the Executor's loop run to completion: the source generates
// frames lazily (O(batch), not O(n), memory), each batch passes through
// every element inline, and payload buffers recycle through the chain's
// cache, bound for the run to shelves of its own. On stage failure the
// run stops at once, the partial delivery is reported, and
// Stats.Failure carries the typed error.
func (p *Pipeline) Run(n int) Stats {
	j := newJob(p, n)
	var shelves transcode.PayloadShelves
	j.runSlice(math.MaxInt, &shelves)
	return p.finish(n, j.rc, &j.acc)
}

// deliveryAccumulator gathers sink-side totals shared by the inline
// loop and RunReference.
type deliveryAccumulator struct {
	framesOut int
	bytesOut  int
	lastPTS   float64
	batches   int64
	occupied  int64
}

func (a *deliveryAccumulator) take(b []transcode.Frame, cache *transcode.PayloadCache) {
	a.batches++
	a.occupied += int64(len(b))
	for i := range b {
		f := &b[i]
		a.framesOut++
		a.bytesOut += len(f.Payload)
		a.lastPTS = f.PTS
		cache.Put(f.Payload)
	}
}

// finish assembles Stats from a completed run and folds the pipeline.*
// series into the metrics sink.
func (p *Pipeline) finish(n int, rc *runCtx, acc *deliveryAccumulator) Stats {
	stats := Stats{
		FramesIn:     n,
		FramesOut:    acc.framesOut,
		BytesOut:     acc.bytesOut,
		ChainDelayMs: p.delayMs,
		Failure:      rc.Failure(),
	}
	if stats.FramesOut > 1 && acc.lastPTS > 0 {
		stats.DeliveredFPS = float64(stats.FramesOut-1) / acc.lastPTS
	} else {
		stats.DeliveredFPS = float64(stats.FramesOut)
	}
	dropped := 0
	for _, st := range p.stages {
		ss := st.stats()
		dropped += ss.Dropped
		stats.Stages = append(stats.Stages, ss)
	}

	if s := p.sink; s != nil {
		s.Add(metrics.CounterPipelineFramesIn, int64(stats.FramesIn))
		s.Add(metrics.CounterPipelineFramesOut, int64(stats.FramesOut))
		s.Add(metrics.CounterPipelineBytesOut, int64(stats.BytesOut))
		s.Add(metrics.CounterPipelineDropped, int64(dropped))
		s.Add(metrics.CounterPipelineBatches, acc.batches)
		s.Inc(metrics.CounterPipelineChains)
		if stats.Failure != nil {
			s.Inc(metrics.CounterPipelineFailures)
		}
		if acc.batches > 0 {
			s.Observe(metrics.SamplePipelineBatchOccupancy,
				float64(acc.occupied)/float64(acc.batches*int64(p.batch)))
		}
	}
	return stats
}

// StageCount returns the number of chain elements (stages + links).
func (p *Pipeline) StageCount() int { return len(p.stages) }
