package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/pipeline"
	"qoschain/internal/profile"
	"qoschain/internal/satisfaction"
	"qoschain/internal/service"
	"qoschain/internal/session"
)

// streamConfig sizes the stream workload.
type streamConfig struct {
	sessions int // sessions per chain kind
	frames   int // source frames per stream
	ops      int // measured streams per trial, across all clients
	clients  int // concurrent closed-loop clients (0: one per CPU)
}

var defaultStream = streamConfig{sessions: 16, frames: 2000, ops: 960}

// Chain kinds: the Figure 6 deployment (a one-service chain) and a
// five-service line like the data-plane microbenchmarks' backbone.
const (
	kindFigure6 = iota
	kindLine
)

// streamOp is one scheduled stream: a session of one chain kind.
type streamOp struct{ kind, session int }

// streamSchedule draws the measured streams from the seed: exactly
// three in eight on Figure 6 chains, the rest on the five-service
// line, in seeded order. The fixed, uneven split keeps the median
// inside the longer chain's mode instead of on the gap between the two
// chains' latencies, where it would jump from run to run.
func streamSchedule(seed int64, cfg streamConfig) []streamOp {
	rng := rand.New(rand.NewSource(seed))
	out := make([]streamOp, cfg.ops)
	nFig := cfg.ops * 3 / 8
	for i := range out {
		kind := kindLine
		if i < nFig {
			kind = kindFigure6
		}
		out[i] = streamOp{kind: kind, session: rng.Intn(cfg.sessions)}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// streamSession is one composed session and the inputs StreamOn builds
// its pipeline from.
type streamSession struct {
	s   *session.Session
	cfg session.Config
}

func (ss *streamSession) input() graph.Input {
	return graph.Input{
		Content: ss.cfg.Content, Device: ss.cfg.Device, Services: ss.cfg.Services, Net: ss.cfg.Net,
		SenderHost: ss.cfg.SenderHost, ReceiverHost: ss.cfg.ReceiverHost,
	}
}

func figure6Config(sink *metrics.Counters) (session.Config, error) {
	set := scaledFigure6(2000)
	net, err := overlay.FromProfile(set.Network)
	if err != nil {
		return session.Config{}, err
	}
	prof, err := set.User.SatisfactionProfile("")
	if err != nil {
		return session.Config{}, err
	}
	return session.Config{
		Content: &set.Content, Device: &set.Device, Services: graph.CollectServices(set.Intermediaries),
		Net: net, SenderHost: "sender", ReceiverHost: set.Device.ID,
		Select:   core.Config{Profile: prof, ReceiverCaps: set.Device.RenderCaps()},
		Failover: session.FailoverConfig{Metrics: sink},
	}, nil
}

// lineConfig is a five-service line sender→h1→…→h5→receiver, each
// service converting format 500+i-1 to 500+i, over links wide enough
// for the full 30 fps.
func lineConfig(sink *metrics.Counters) session.Config {
	const stages = 5
	net := overlay.New()
	var svcs []*service.Service
	prev := "sender"
	for i := 1; i <= stages; i++ {
		host := fmt.Sprintf("h%d", i)
		svcs = append(svcs, &service.Service{
			ID:      service.ID(fmt.Sprintf("l%d", i)),
			Inputs:  []media.Format{media.Opaque(500 + i - 1)},
			Outputs: []media.Format{media.Opaque(500 + i)},
			Host:    host,
		})
		net.AddLink(prev, host, 4000, 10, 0)
		prev = host
	}
	net.AddLink(prev, "receiver", 4000, 10, 0)
	content := &profile.Content{ID: "line-content", Variants: []media.Descriptor{
		{Format: media.Opaque(500), Params: media.Params{media.ParamFrameRate: 30}},
	}}
	device := &profile.Device{ID: "receiver", Class: profile.ClassDesktop,
		Software: profile.Software{Decoders: []media.Format{media.Opaque(500 + stages)}}}
	return session.Config{
		Content: content, Device: device, Services: svcs, Net: net,
		SenderHost: "sender", ReceiverHost: "receiver",
		Select: core.Config{Profile: satisfaction.NewProfile(map[media.Param]satisfaction.Function{
			media.ParamFrameRate: satisfaction.Linear{M: 0, I: 30},
		})},
		Failover: session.FailoverConfig{Metrics: sink},
	}
}

// composeStreams builds every stream session: half on Figure 6, half
// on the line.
func composeStreams(cfg streamConfig, sink *metrics.Counters) ([2][]*streamSession, error) {
	var out [2][]*streamSession
	for kind := range out {
		for i := 0; i < cfg.sessions; i++ {
			var sc session.Config
			if kind == kindFigure6 {
				var err error
				if sc, err = figure6Config(sink); err != nil {
					return out, err
				}
			} else {
				sc = lineConfig(sink)
			}
			s, err := session.New(sc)
			if err != nil {
				return out, fmt.Errorf("composing stream session: %w", err)
			}
			out[kind] = append(out[kind], &streamSession{s: s, cfg: sc})
		}
	}
	return out, nil
}

// checkStream verifies one stream delivered every source frame with no
// stage failure.
func checkStream(st pipeline.Stats, frames int) error {
	if st.Failure != nil {
		return fmt.Errorf("stream failed: %v", st.Failure)
	}
	if st.FramesIn != frames || st.FramesOut != frames {
		return fmt.Errorf("stream delivered %d of %d frames (%d fed)", st.FramesOut, frames, st.FramesIn)
	}
	return nil
}

// runStream is one stream trial: compose the sessions and warm the
// executor and payload pool with one stream per chain kind, then run
// the closed-loop clients on one shared executor. Its restart time is
// re-composing every session.
func runStream(cfg streamConfig, seed int64, traced bool) (*trialResult, error) {
	res := newTrialResult()
	reg := metrics.NewRegistry()
	sink := metrics.CountersOn(reg)
	setupStart := time.Now()
	ex := pipeline.NewExecutor(0)
	defer ex.Close()
	sessions, err := composeStreams(cfg, sink)
	if err != nil {
		return nil, err
	}
	for kind := range sessions {
		st, err := sessions[kind][0].s.StreamOn(ex, cfg.frames, pipeline.Options{})
		if err == nil {
			err = checkStream(st, cfg.frames)
		}
		if err != nil {
			return nil, err
		}
	}
	res.setupS = time.Since(setupStart).Seconds()

	clients := cfg.clients
	if clients <= 0 {
		clients = runtime.NumCPU()
	}
	sched := streamSchedule(seed, cfg)
	type clientOut struct {
		lat, build, run []float64
		err             error
	}
	outs := make([]clientOut, clients)
	queue0 := reg.SampleSummary(metrics.SamplePipelineQueueDepth)
	occ0 := reg.SampleSummary(metrics.SamplePipelineBatchOccupancy)
	in0, out0 := reg.CounterValue(metrics.CounterPipelineFramesIn), reg.CounterValue(metrics.CounterPipelineFramesOut)
	mem := startMem()
	phaseStart := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for i := c; i < len(sched) && o.err == nil; i += clients {
				ss := sessions[sched[i].kind][sched[i].session]
				var st pipeline.Stats
				start := time.Now()
				if traced {
					var buildMs, runMs float64
					st, buildMs, runMs, o.err = streamTimed(ex, ss, cfg.frames, sink)
					o.build = append(o.build, buildMs)
					o.run = append(o.run, runMs)
				} else {
					st, o.err = ss.s.StreamOn(ex, cfg.frames, pipeline.Options{})
				}
				o.lat = append(o.lat, float64(time.Since(start))/1e6)
				if o.err == nil {
					o.err = checkStream(st, cfg.frames)
				}
			}
		}(c)
	}
	wg.Wait()
	res.phaseS = time.Since(phaseStart).Seconds()
	mallocs, bytes, gcs, pauseMs := mem.done()
	var build, run []float64
	for _, o := range outs {
		for range o.lat {
			res.ops.note("stream", false)
		}
		if o.err != nil {
			res.ops.failures["stream"]++
			return res, o.err
		}
		res.lat = append(res.lat, o.lat...)
		build = append(build, o.build...)
		run = append(run, o.run...)
	}
	res.headline = len(res.lat)
	res.heapMB = liveHeapMB()
	if traced {
		frames := int(reg.CounterValue(metrics.CounterPipelineFramesIn) - in0)
		delivered := float64(reg.CounterValue(metrics.CounterPipelineFramesOut) - out0)
		res.layers.set("pipeline.build_ms", "ms", mean(build))
		res.layers.set("pipeline.run_ms", "ms", mean(run))
		res.layers.set("pipeline.queue_depth", "count", meanSince(reg, metrics.SamplePipelineQueueDepth, queue0))
		res.layers.set("pipeline.batch_occupancy", "ratio", meanSince(reg, metrics.SamplePipelineBatchOccupancy, occ0))
		res.layers.set("pipeline.delivered_ratio", "ratio", ratio(delivered, float64(frames)))
		g, err := graph.Build(sessions[kindLine][0].input())
		if err != nil {
			return res, err
		}
		res.layers.set("core.select_ms", "ms", timeSelect(g, sessions[kindLine][0].cfg.Select))
		reportRuntime(res.layers, mallocs, bytes, gcs, pauseMs, res.headline, frames)
	}
	// A data-plane restart re-composes every session. It takes a few
	// milliseconds, so the trial reports the median of 25.
	var restarts []float64
	for i := 0; i < 25; i++ {
		start := time.Now()
		if _, err := composeStreams(cfg, sink); err != nil {
			return res, err
		}
		restarts = append(restarts, time.Since(start).Seconds())
	}
	res.recoverS = median(restarts)
	return res, nil
}

// streamTimed is Session.StreamOn taken apart so its two steps can be
// timed: build the pipeline (graph.Build + pipeline.FromResult, with
// the options StreamOn applies), then Submit and Wait.
func streamTimed(ex *pipeline.Executor, ss *streamSession, frames int, sink *metrics.Counters) (pipeline.Stats, float64, float64, error) {
	start := time.Now()
	g, err := graph.Build(ss.input())
	if err != nil {
		return pipeline.Stats{}, 0, 0, err
	}
	p, err := pipeline.FromResult(g, ss.s.Result(), pipeline.Options{Bitrate: ss.cfg.Select.Bitrate, Metrics: sink})
	if err != nil {
		return pipeline.Stats{}, 0, 0, err
	}
	built := time.Now()
	h, err := ex.Submit(p, frames)
	if err != nil {
		return pipeline.Stats{}, 0, 0, err
	}
	st := h.Wait()
	return st, float64(built.Sub(start)) / 1e6, float64(time.Since(built)) / 1e6, nil
}

// meanSince is the mean of a histogram's observations since the
// summary before was taken (count and mean stay exact past the raw
// window).
func meanSince(reg *metrics.Registry, name string, before metrics.Summary) float64 {
	now := reg.SampleSummary(name)
	n := now.Count - before.Count
	if n <= 0 {
		return 0
	}
	return (now.Mean*float64(now.Count) - before.Mean*float64(before.Count)) / float64(n)
}
