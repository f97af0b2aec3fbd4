package core_test

// Tests for the pooled Select scratch: a run on reused working memory
// must return exactly what a run on fresh memory returns, whatever ran
// on that memory before, and nothing a Result holds may alias it.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/paperexample"
	"qoschain/internal/satisfaction"
	"qoschain/internal/service"
	"qoschain/internal/workload"
)

// cancelAfter is a bitrate model that cancels a context on its n-th
// evaluation: a deterministic mid-run cancellation, since Select polls
// the context once per round and evaluates edges within rounds.
type cancelAfter struct {
	n      *int
	cancel context.CancelFunc
}

func (c cancelAfter) RequiredKbps(p media.Params) float64 {
	if *c.n--; *c.n == 0 {
		c.cancel()
	}
	return media.DefaultBitrate.RequiredKbps(p)
}

// fpsAudioBitrate charges 100 kbps per frame per second plus 10 per
// kHz of audio, summed in that order (a two-entry LinearBitrate sums in
// map order, which can move the last bit between two runs).
type fpsAudioBitrate struct{}

func (fpsAudioBitrate) RequiredKbps(p media.Params) float64 {
	return 100*p.Get(media.ParamFrameRate) + 10*p.Get(media.ParamAudioRate)
}

// scratchCase is one Select to run: a graph, a configuration, and
// optionally the evaluation count after which its context is
// cancelled.
type scratchCase struct {
	name        string
	g           *graph.Graph
	cfg         core.Config
	cancelAfter int
}

func (c scratchCase) run(sel func(context.Context, *graph.Graph, core.Config) (*core.Result, error)) (*core.Result, error) {
	ctx := context.Background()
	cfg := c.cfg
	if c.cancelAfter > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		n := c.cancelAfter
		cfg.Bitrate = cancelAfter{n: &n, cancel: cancel}
	}
	return sel(ctx, c.g, cfg)
}

// scratchCases spans what a scratch carries between runs: graphs from
// 12 to 302 vertices (a run past labelChunkSize labels takes a second
// chunk), format counts past 64 (the overflow-word arena), the trace,
// the scan variant, a two-parameter profile (the optimizer's ladder
// path), no-chain and below-floor outcomes and a run cancelled
// mid-expansion.
func scratchCases(t *testing.T) []scratchCase {
	t.Helper()
	twoParams := satisfaction.Profile{
		Functions: map[media.Param]satisfaction.Function{
			media.ParamFrameRate: satisfaction.Linear{M: 0, I: 30},
			media.ParamAudioRate: satisfaction.Linear{M: 0, I: 48},
		},
		Weights: map[media.Param]float64{media.ParamFrameRate: 2, media.ParamAudioRate: 1},
	}
	var out []scratchCase
	for i, services := range []int{10, 50, 300, 12, 120} {
		sc := workload.Generate(rand.New(rand.NewSource(int64(7+i))), workload.Spec{Services: services})
		name := fmt.Sprintf("services=%d", services)
		traced := sc.Config
		traced.Trace = true
		scan := sc.Config
		scan.Scan = true
		budget := sc.Config
		budget.Budget = 1e-9 // no chain fits
		floor := sc.Config
		floor.SatisfactionFloor = 1.5 // nothing reaches it
		multi := sc.Config
		multi.Profile = twoParams
		multi.Bitrate = fpsAudioBitrate{}
		out = append(out,
			scratchCase{name: name, g: sc.Graph, cfg: sc.Config},
			scratchCase{name: name + "/trace", g: sc.Graph, cfg: traced},
			scratchCase{name: name + "/scan", g: sc.Graph, cfg: scan},
			scratchCase{name: name + "/no-chain", g: sc.Graph, cfg: budget},
			scratchCase{name: name + "/below-floor", g: sc.Graph, cfg: floor},
			scratchCase{name: name + "/two-params", g: sc.Graph, cfg: multi},
			scratchCase{name: name + "/cancelled", g: sc.Graph, cfg: traced, cancelAfter: 3 + services/4},
		)
	}
	g, err := paperexample.Table1Graph(true)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, scratchCase{name: "table1", g: g, cfg: paperexample.Table1Config()})
	for _, swapped := range []bool{false, true} {
		out = append(out, scratchCase{name: fmt.Sprintf("overflow/swapped=%v", swapped),
			g: overflowGraph(t, swapped), cfg: fpsOnlyConfig()})
	}
	return out
}

func fpsOnlyConfig() core.Config {
	return core.Config{Profile: satisfaction.NewProfile(map[media.Param]satisfaction.Function{
		media.ParamFrameRate: satisfaction.Linear{M: 0, I: 30},
	})}
}

// overflowGraph is sender -> s -> receiver over formats interned past
// 64, so both labels keep their format sets in overflow words: 70
// edges between two unreachable services intern formats 0..69 first.
// The chain's formats are Opaque(70) then Opaque(71); swapped interns
// them in the other order, so its first overflow word holds the bit
// the unswapped graph's receiver label set in its first word. A
// scratch that handed out a used word without zeroing it would block
// the swapped graph's only chain.
func overflowGraph(t *testing.T, swapped bool) *graph.Graph {
	t.Helper()
	g := graph.NewGraph("sender", "receiver")
	for _, svc := range []*service.Service{
		service.FormatConverter("x", media.Opaque(0), media.Opaque(1)),
		service.FormatConverter("y", media.Opaque(0), media.Opaque(1)),
		service.FormatConverter("s", media.Opaque(70), media.Opaque(71)),
	} {
		if err := g.AddService(svc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 70; i++ {
		mustAddEdge(t, g, &graph.Edge{From: "x", To: "y", Format: media.Opaque(i), BandwidthKbps: 1e6})
	}
	in := &graph.Edge{From: graph.SenderID, To: "s", Format: media.Opaque(70), BandwidthKbps: 1e6,
		SourceParams: media.Params{media.ParamFrameRate: 30}}
	out := &graph.Edge{From: "s", To: graph.ReceiverID, Format: media.Opaque(71), BandwidthKbps: 1e6}
	if swapped {
		in.Format, out.Format = out.Format, in.Format
		mustAddEdge(t, g, out)
		mustAddEdge(t, g, in)
	} else {
		mustAddEdge(t, g, in)
		mustAddEdge(t, g, out)
	}
	return g
}

func mustAddEdge(t *testing.T, g *graph.Graph, e *graph.Edge) {
	t.Helper()
	if err := g.AddEdge(e); err != nil {
		t.Fatal(err)
	}
}

// sameOutcome requires two runs to agree on the error text and on
// every field of the result, float bits and trace rounds included.
func sameOutcome(t *testing.T, name string, want, got *core.Result, wantErr, gotErr error) {
	t.Helper()
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: err = %v, want %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: result on a reused scratch differs from a fresh one\n got %+v\nwant %+v", name, got, want)
	}
}

// TestSelectReusedScratchMatchesFresh interleaves every case in three
// orders on the pooled scratch; each result must equal the case's run
// on a fresh scratch.
func TestSelectReusedScratchMatchesFresh(t *testing.T) {
	cases := scratchCases(t)
	type outcome struct {
		res *core.Result
		err error
	}
	want := make([]outcome, len(cases))
	sawCancel, sawNoChain, sawFloor := false, false, false
	for i, c := range cases {
		res, err := c.run(core.SelectOnFreshScratch)
		want[i] = outcome{res, err}
		sawCancel = sawCancel || errors.Is(err, core.ErrAborted)
		sawNoChain = sawNoChain || errors.Is(err, core.ErrNoChain)
		sawFloor = sawFloor || errors.Is(err, core.ErrBelowFloor)
	}
	if !sawCancel || !sawNoChain || !sawFloor {
		t.Fatalf("cases cover aborted=%v no-chain=%v below-floor=%v; want all three", sawCancel, sawNoChain, sawFloor)
	}
	rng := rand.New(rand.NewSource(1))
	for pass := 0; pass < 3; pass++ {
		for _, i := range rng.Perm(len(cases)) {
			res, err := cases[i].run(core.SelectCtx)
			sameOutcome(t, fmt.Sprintf("pass %d %s", pass, cases[i].name), want[i].res, res, want[i].err, err)
		}
	}
}

// TestSelectResultParamsSurviveLaterSelects keeps a returned Result and
// runs more Selects on the pooled scratch: the Result's params — and
// its trace rounds' — must not move.
func TestSelectResultParamsSurviveLaterSelects(t *testing.T) {
	cases := scratchCases(t)
	res, err := core.Select(cases[1].g, cases[1].cfg)
	if err != nil || !res.Found {
		t.Fatalf("Select = %v, %v", res, err)
	}
	keep := res.Params.Clone()
	var rounds []media.Params
	for _, r := range res.Rounds {
		rounds = append(rounds, r.Params.Clone())
	}
	for _, c := range cases {
		c.run(core.SelectCtx) //nolint:errcheck // only the scratch's reuse matters here
	}
	if !reflect.DeepEqual(res.Params, keep) {
		t.Fatalf("Result.Params moved after later Selects: %v, was %v", res.Params, keep)
	}
	for i, r := range res.Rounds {
		if !reflect.DeepEqual(r.Params, rounds[i]) {
			t.Fatalf("round %d params moved after later Selects: %v, was %v", i+1, r.Params, rounds[i])
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// resultSink keeps the allocation guard's Result copy on the heap.
var resultSink *core.Result

// TestSelectWarmAllocatesOnlyItsResult is the allocation guard: a warm
// Table 1 Select without the trace allocates no more than building a
// copy of its Result does — the Result, its path, formats and params.
func TestSelectWarmAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratches at random")
	}
	g, err := paperexample.Table1Graph(true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := paperexample.Table1Config()
	cfg.Trace = false
	res, err := core.Select(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultAllocs := testing.AllocsPerRun(100, func() {
		resultSink = &core.Result{
			Found:   res.Found,
			Path:    append([]graph.NodeID(nil), res.Path...),
			Formats: append([]media.Format(nil), res.Formats...),
			Params:  res.Params.Clone(),
		}
	})
	selectAllocs := testing.AllocsPerRun(100, func() {
		if _, err := core.Select(g, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if selectAllocs > resultAllocs {
		t.Fatalf("warm Table 1 Select allocates %.0f times; its Result takes %.0f", selectAllocs, resultAllocs)
	}
}

// TestSelectConcurrentScratches runs every case from several
// goroutines at once (meant for -race): the pool hands each run its own
// scratch, so every result still equals the fresh-scratch one.
func TestSelectConcurrentScratches(t *testing.T) {
	cases := scratchCases(t)
	want := make([]*core.Result, len(cases))
	wantErr := make([]error, len(cases))
	for i, c := range cases {
		want[i], wantErr[i] = c.run(core.SelectOnFreshScratch)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < 2*len(cases); k++ {
				i := rng.Intn(len(cases))
				res, err := cases[i].run(core.SelectCtx)
				if fmt.Sprint(err) != fmt.Sprint(wantErr[i]) || !reflect.DeepEqual(res, want[i]) {
					errs <- fmt.Sprintf("worker %d: %s differs from its fresh-scratch run", w, cases[i].name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
