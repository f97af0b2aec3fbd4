// Package qoschain is a QoS-driven service-composition framework for
// multimedia content adaptation, reproducing "A QoS-based Service
// Composition for Content Adaptation" (El-Khatib, Bochmann, El-Saddik,
// ICDE 2007).
//
// Given the six profiles of the paper's Section 3 — user, content,
// context, device, network and intermediaries — the framework builds a
// directed graph of trans-coding services (Section 4.2), then runs the
// greedy QoS selection algorithm (Section 4.4, Figure 4) to find the
// chain of services that maximizes the user's satisfaction with the
// delivered content, subject to per-link bandwidth and the user's budget.
//
// The high-level entry point is Compose:
//
//	set := &profile.Set{ ... }
//	comp, err := qoschain.Compose(set, qoschain.Options{})
//	fmt.Println(comp.Result.Summary())
//	stats, _ := comp.Stream(900) // run the chain over a synthetic stream
//
// The underlying pieces (graph construction, the selection algorithm and
// its baselines, the overlay simulator, the streaming pipeline and the
// session manager) live in internal/ packages; the examples/ directory
// shows each of them in use.
package qoschain

import (
	"context"
	"fmt"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/pipeline"
	"qoschain/internal/profile"
	"qoschain/internal/satisfaction"
	"qoschain/internal/trace"
)

// buildGraph builds (or fetches) the adaptation graph for a compose
// call, recording a "graph.build" span with the cache outcome when the
// context carries a trace.
func buildGraph(ctx context.Context, set *profile.Set, opts Options) (*graph.Graph, error) {
	sp := trace.FromContext(ctx).StartSpan("graph.build")
	var (
		g       *graph.Graph
		outcome graph.BuildOutcome
		err     error
	)
	if opts.Cache != nil && !opts.Prune {
		g, outcome, err = opts.Cache.BuildFromSetEx(set)
	} else {
		g, err = graph.BuildFromSet(set)
		outcome = "uncached"
	}
	if err != nil {
		sp.End(trace.Str("cache", string(outcome)), trace.Str("outcome", "error"))
		return nil, err
	}
	if opts.Prune {
		g.Prune()
	}
	sp.End(trace.Str("cache", string(outcome)), trace.Int("nodes", g.NodeIndexCount()))
	return g, nil
}

// Options tunes a composition.
type Options struct {
	// Contact selects the user's per-contact preference overrides
	// (profile.ContactAny uses the defaults).
	Contact profile.ContactClass
	// Trace records the per-round Table 1 style trace on the result.
	Trace bool
	// Prune removes useless vertices/edges before selection.
	Prune bool
	// Bitrate overrides the bandwidth-requirement model of Equation 2
	// (nil uses media.DefaultBitrate: 100 kbit/s per frame per second).
	Bitrate media.BitrateModel
	// UseContext adjusts the satisfaction profile to the context
	// profile: audio-hostile contexts (meetings, loud surroundings)
	// stop scoring audio parameters; video-hostile contexts (driving)
	// stop scoring visual ones.
	UseContext bool
	// Cache, when set, memoizes built adaptation graphs keyed by the
	// profile set's contents: repeated compositions over an unchanged
	// deployment skip graph construction. Ignored when Prune is set
	// (pruning mutates the graph, so a pruned graph must stay private
	// to its composition).
	Cache *graph.Cache
}

// Composition is the outcome of a Compose call.
type Composition struct {
	// Result is the selected chain with satisfaction, parameters, cost
	// and (when requested) the round-by-round trace.
	Result *core.Result
	// Graph is the adaptation graph the chain was selected from.
	Graph *graph.Graph
	// Config is the selection configuration derived from the profiles.
	Config core.Config
}

// Compose builds the adaptation graph from a full profile set and runs
// the QoS selection algorithm. It derives the optimization objective from
// the user profile (satisfaction functions and budget) and the receiver
// caps from the device hardware.
func Compose(set *profile.Set, opts Options) (*Composition, error) {
	return ComposeCtx(context.Background(), set, opts)
}

// ComposeCtx is Compose under a context: the selection loop observes
// the context's deadline/cancellation (core.SelectCtx) so a request
// whose budget ran out stops consuming planner time. Serving layers
// pass their per-request context here.
func ComposeCtx(ctx context.Context, set *profile.Set, opts Options) (*Composition, error) {
	if set == nil {
		return nil, fmt.Errorf("qoschain: nil profile set")
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	satProfile, err := set.User.SatisfactionProfile(opts.Contact)
	if err != nil {
		return nil, err
	}
	if err := satProfile.Validate(); err != nil {
		return nil, err
	}
	if opts.UseContext {
		satProfile = profile.ApplyContext(satProfile, &set.Context)
	}
	g, err := buildGraph(ctx, set, opts)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Profile:      satProfile,
		Bitrate:      opts.Bitrate,
		Budget:       set.User.Budget,
		ReceiverCaps: set.Device.RenderCaps(),
		Trace:        opts.Trace,
	}
	res, err := core.SelectCtx(ctx, g, cfg)
	if err != nil {
		return &Composition{Result: res, Graph: g, Config: cfg}, err
	}
	return &Composition{Result: res, Graph: g, Config: cfg}, nil
}

// BatchComposition is one receiver's outcome of a ComposeBatch call.
type BatchComposition struct {
	// Result is the selected chain; nil when Err is a profile error.
	Result *core.Result
	// Config is the selection configuration derived for this receiver.
	Config core.Config
	// Err reports a per-receiver failure (invalid user profile, or
	// core.ErrNoChain); other receivers are unaffected.
	Err error
}

// ComposeBatch plans one adaptation chain per user profile against a
// single shared adaptation graph: the graph is built (or fetched from
// opts.Cache) once, then the selections fan out over a
// runtime.GOMAXPROCS-bounded worker pool (core.SelectBatch). All users
// share the set's content, device, context and network; each brings its
// own satisfaction functions and budget. An empty users slice plans just
// the set's own user. Results are in input order; the shared graph is
// returned for inspection.
func ComposeBatch(set *profile.Set, users []profile.User, opts Options) ([]BatchComposition, *graph.Graph, error) {
	return ComposeBatchCtx(context.Background(), set, users, opts)
}

// ComposeBatchCtx is ComposeBatch under a context: users not yet
// planned when the deadline passes are marked aborted, and in-flight
// selections stop at their next round check (core.SelectBatchCtx).
func ComposeBatchCtx(ctx context.Context, set *profile.Set, users []profile.User, opts Options) ([]BatchComposition, *graph.Graph, error) {
	if set == nil {
		return nil, nil, fmt.Errorf("qoschain: nil profile set")
	}
	if err := set.Validate(); err != nil {
		return nil, nil, err
	}
	if len(users) == 0 {
		users = []profile.User{set.User}
	}

	g, err := buildGraph(ctx, set, opts)
	if err != nil {
		return nil, nil, err
	}

	out := make([]BatchComposition, len(users))
	idx := make([]int, 0, len(users)) // positions with a valid config
	cfgs := make([]core.Config, 0, len(users))
	receiverCaps := set.Device.RenderCaps()
	for i := range users {
		satProfile, err := users[i].SatisfactionProfile(opts.Contact)
		if err == nil {
			err = satProfile.Validate()
		}
		if err != nil {
			out[i].Err = err
			continue
		}
		if opts.UseContext {
			satProfile = profile.ApplyContext(satProfile, &set.Context)
		}
		cfg := core.Config{
			Profile:      satProfile,
			Bitrate:      opts.Bitrate,
			Budget:       users[i].Budget,
			ReceiverCaps: receiverCaps,
			Trace:        opts.Trace,
		}
		out[i].Config = cfg
		idx = append(idx, i)
		cfgs = append(cfgs, cfg)
	}

	for j, br := range core.SelectBatchCtx(ctx, g, cfgs) {
		out[idx[j]].Result = br.Result
		out[idx[j]].Err = br.Err
	}
	return out, g, nil
}

// Stream instantiates the composed chain as a trans-coding pipeline and
// pushes n synthetic source frames through it on the calling goroutine,
// returning the delivery statistics.
func (c *Composition) Stream(n int) (pipeline.Stats, error) {
	p, err := pipeline.FromResult(c.Graph, c.Result, pipeline.Options{Bitrate: c.Config.Bitrate})
	if err != nil {
		return pipeline.Stats{}, err
	}
	return p.Run(n), nil
}

// Explain returns the per-parameter satisfactions of the delivered
// stream, for user-facing reporting.
func (c *Composition) Explain() map[string]float64 {
	each := c.Config.Profile.EvaluateEach(c.Result.Params)
	out := make(map[string]float64, len(each))
	for k, v := range each {
		out[string(k)] = v
	}
	return out
}

// Satisfaction is a convenience re-export: the combined satisfaction
// function of Equation 1 over individual parameter satisfactions.
func Satisfaction(individual []float64) float64 {
	return satisfaction.Combine(individual)
}
