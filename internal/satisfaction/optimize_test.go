package satisfaction

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"qoschain/internal/media"
)

func frameRateProfile() Profile {
	return NewProfile(map[media.Param]Function{
		media.ParamFrameRate: Linear{M: 0, I: 30},
	})
}

func TestOptimizeUnconstrainedHitsIdeal(t *testing.T) {
	p := frameRateProfile()
	got, sat, ok := p.Optimize(Request{Caps: media.Params{media.ParamFrameRate: 60}})
	if !ok {
		t.Fatal("unconstrained optimize should succeed")
	}
	if got[media.ParamFrameRate] != 30 {
		t.Errorf("should stop at the ideal (30), got %v", got[media.ParamFrameRate])
	}
	if sat != 1 {
		t.Errorf("sat = %v, want 1", sat)
	}
}

func TestOptimizeRespectsCap(t *testing.T) {
	p := frameRateProfile()
	got, sat, ok := p.Optimize(Request{Caps: media.Params{media.ParamFrameRate: 20}})
	if !ok || got[media.ParamFrameRate] != 20 {
		t.Fatalf("cap should bind: got %v ok=%v", got, ok)
	}
	if math.Abs(sat-20.0/30.0) > 1e-12 {
		t.Errorf("sat = %v, want 2/3", sat)
	}
}

func TestOptimizeSingleParamBandwidthExact(t *testing.T) {
	// Default bitrate model: 100 kbps per fps. 1985 kbps → 19.85 fps.
	p := frameRateProfile()
	got, sat, ok := p.Optimize(Request{
		Caps:      media.Params{media.ParamFrameRate: 30},
		Bandwidth: 1985,
	})
	if !ok {
		t.Fatal("optimize should succeed")
	}
	if math.Abs(got[media.ParamFrameRate]-19.85) > 1e-6 {
		t.Errorf("framerate = %v, want 19.85", got[media.ParamFrameRate])
	}
	if math.Abs(sat-19.85/30.0) > 1e-6 {
		t.Errorf("sat = %v, want %v", sat, 19.85/30.0)
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	p := frameRateProfile()
	_, _, ok := p.Optimize(Request{
		Caps:      media.Params{media.ParamFrameRate: 30},
		Bitrate:   media.LinearBitrate{PerUnit: map[media.Param]float64{media.ParamFrameRate: 100}, Overhead: 500},
		Bandwidth: 100, // below even the overhead
	})
	if ok {
		t.Error("overhead above bandwidth must be infeasible")
	}
}

func TestOptimizeDiscreteDomain(t *testing.T) {
	p := frameRateProfile()
	got, _, ok := p.Optimize(Request{
		Caps:      media.Params{media.ParamFrameRate: 30},
		Domains:   map[media.Param]Domain{media.ParamFrameRate: {Values: []float64{5, 10, 15, 25, 30}}},
		Bandwidth: 1700, // affords 17 fps → ladder snaps to 15
	})
	if !ok {
		t.Fatal("optimize should succeed")
	}
	if got[media.ParamFrameRate] != 15 {
		t.Errorf("discrete framerate = %v, want 15", got[media.ParamFrameRate])
	}
}

func TestOptimizeDiscreteCapSnapsDown(t *testing.T) {
	p := frameRateProfile()
	got, _, ok := p.Optimize(Request{
		Caps:    media.Params{media.ParamFrameRate: 24},
		Domains: map[media.Param]Domain{media.ParamFrameRate: {Values: []float64{30, 10, 20}}}, // unsorted on purpose
	})
	if !ok || got[media.ParamFrameRate] != 20 {
		t.Fatalf("cap 24 over ladder {10,20,30} should give 20, got %v", got)
	}
}

func TestOptimizeMultiParamFeasibleSplit(t *testing.T) {
	p := NewProfile(map[media.Param]Function{
		media.ParamFrameRate: Linear{M: 0, I: 30},
		media.ParamAudioRate: Linear{M: 0, I: 44.1},
	})
	bitrate := media.LinearBitrate{PerUnit: map[media.Param]float64{
		media.ParamFrameRate: 100,
		media.ParamAudioRate: 10,
	}}
	got, sat, ok := p.Optimize(Request{
		Caps:      media.Params{media.ParamFrameRate: 30, media.ParamAudioRate: 44.1},
		Bitrate:   bitrate,
		Bandwidth: 2000,
	})
	if !ok {
		t.Fatal("optimize should succeed")
	}
	if bitrate.RequiredKbps(got) > 2000+1e-6 {
		t.Errorf("result exceeds bandwidth: %v kbps", bitrate.RequiredKbps(got))
	}
	if sat <= 0 {
		t.Error("a 2 Mbps edge should produce positive satisfaction")
	}
	// The greedy result should be close to the exhaustive optimum.
	_, exSat, exOK := p.OptimizeExhaustive(Request{
		Caps:      media.Params{media.ParamFrameRate: 30, media.ParamAudioRate: 44.1},
		Bitrate:   bitrate,
		Bandwidth: 2000,
	})
	if !exOK {
		t.Fatal("exhaustive optimize should succeed")
	}
	if sat < exSat-0.05 {
		t.Errorf("greedy sat %v too far below exhaustive %v", sat, exSat)
	}
}

func TestOptimizeZeroBandwidthMeansUnlimited(t *testing.T) {
	p := frameRateProfile()
	got, _, ok := p.Optimize(Request{Caps: media.Params{media.ParamFrameRate: 30}, Bandwidth: 0})
	if !ok || got[media.ParamFrameRate] != 30 {
		t.Fatalf("bandwidth<=0 should mean unlimited, got %v ok=%v", got, ok)
	}
}

func TestOptimizeExhaustiveInfeasible(t *testing.T) {
	p := frameRateProfile()
	_, _, ok := p.OptimizeExhaustive(Request{
		Caps:      media.Params{media.ParamFrameRate: 30},
		Bitrate:   media.LinearBitrate{Overhead: 10},
		Bandwidth: 5,
	})
	if ok {
		t.Error("exhaustive should also report infeasibility")
	}
}

// Property: Optimize never violates the bandwidth constraint and never
// exceeds caps or ideals.
func TestOptimizeFeasibilityQuick(t *testing.T) {
	p := NewProfile(map[media.Param]Function{
		media.ParamFrameRate:  Linear{M: 0, I: 30},
		media.ParamResolution: Linear{M: 0, I: 300},
	})
	bitrate := media.LinearBitrate{PerUnit: map[media.Param]float64{
		media.ParamFrameRate:  100,
		media.ParamResolution: 5,
	}}
	prop := func(bwRaw, capF, capR uint16) bool {
		req := Request{
			Caps: media.Params{
				media.ParamFrameRate:  float64(capF % 40),
				media.ParamResolution: float64(capR % 400),
			},
			Bitrate:   bitrate,
			Bandwidth: float64(bwRaw%5000) + 1,
		}
		got, sat, ok := p.Optimize(req)
		if !ok {
			// Linear model with zero overhead is always feasible at 0.
			return false
		}
		if bitrate.RequiredKbps(got) > req.Bandwidth+1e-6 {
			return false
		}
		if got[media.ParamFrameRate] > math.Min(30, req.Caps[media.ParamFrameRate])+1e-9 {
			return false
		}
		if got[media.ParamResolution] > math.Min(300, req.Caps[media.ParamResolution])+1e-9 {
			return false
		}
		return sat >= 0 && sat <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the greedy optimizer is never much worse than exhaustive
// enumeration on two-parameter problems.
func TestOptimizeGreedyGapQuick(t *testing.T) {
	p := NewProfile(map[media.Param]Function{
		media.ParamFrameRate:  Linear{M: 0, I: 30},
		media.ParamResolution: SCurve{M: 0, I: 300},
	})
	bitrate := media.LinearBitrate{PerUnit: map[media.Param]float64{
		media.ParamFrameRate:  100,
		media.ParamResolution: 5,
	}}
	prop := func(bwRaw uint16) bool {
		req := Request{
			Caps:      media.Params{media.ParamFrameRate: 30, media.ParamResolution: 300},
			Bitrate:   bitrate,
			Bandwidth: float64(bwRaw%4500) + 50,
		}
		_, greedy, ok1 := p.Optimize(req)
		_, exact, ok2 := p.OptimizeExhaustive(req)
		if ok1 != ok2 {
			return false
		}
		return greedy >= exact-0.08
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: more bandwidth never lowers the achieved satisfaction.
func TestOptimizeMonotoneInBandwidthQuick(t *testing.T) {
	p := frameRateProfile()
	prop := func(a, b uint16) bool {
		lo, hi := float64(a%3000)+1, float64(b%3000)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		_, sLo, _ := p.Optimize(Request{Caps: media.Params{media.ParamFrameRate: 30}, Bandwidth: lo})
		_, sHi, _ := p.Optimize(Request{Caps: media.Params{media.ParamFrameRate: 30}, Bandwidth: hi})
		return sHi >= sLo-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// fixedOrderBitrate charges 20 + 100 kbps per frame per second + 5
// per kilopixel, summed in that order.
type fixedOrderBitrate struct{}

func (fixedOrderBitrate) RequiredKbps(p media.Params) float64 {
	return 20 + 100*p.Get(media.ParamFrameRate) + 5*p.Get(media.ParamResolution)
}

// TestOptimizerResetMatchesProfileOptimize runs one Optimizer through
// random requests over profiles of one and two parameters, weighted and
// not, with continuous and discrete domains, switching profiles with
// Reset between calls. Every answer must equal Profile.Optimize's, bit
// for bit: the reused maps and ladders carry nothing between calls.
func TestOptimizerResetMatchesProfileOptimize(t *testing.T) {
	fps := Linear{M: 0, I: 30}
	res := Linear{M: 0, I: 300}
	profiles := []Profile{
		NewProfile(map[media.Param]Function{media.ParamFrameRate: fps}),
		NewProfile(map[media.Param]Function{media.ParamFrameRate: fps, media.ParamResolution: res}),
		{
			Functions: map[media.Param]Function{media.ParamFrameRate: fps, media.ParamResolution: res},
			Weights:   map[media.Param]float64{media.ParamFrameRate: 3, media.ParamResolution: 1},
		},
	}
	// A LinearBitrate of two entries sums in map order, which can move
	// the last bit between two calls; this model sums in one order.
	bitrate := fixedOrderBitrate{}
	domains := []map[media.Param]Domain{
		nil,
		{media.ParamResolution: {Values: []float64{320, 40, 160, 80}}},
		{media.ParamFrameRate: {Values: []float64{5, 30, 15, 10, 15}}},
	}
	rng := rand.New(rand.NewSource(3))
	o := &Optimizer{}
	for i := 0; i < 2000; i++ {
		p := profiles[rng.Intn(len(profiles))]
		o.Reset(p)
		req := Request{
			Caps: media.Params{
				media.ParamFrameRate:  float64(rng.Intn(40)),
				media.ParamResolution: float64(rng.Intn(400)),
			},
			Domains:   domains[rng.Intn(len(domains))],
			Bitrate:   bitrate,
			Bandwidth: float64(rng.Intn(5000)),
		}
		want, wantSat, wantOK := p.Optimize(req)
		got, gotSat, gotOK := o.Optimize(req)
		if gotOK != wantOK || gotSat != wantSat || !reflect.DeepEqual(map[media.Param]float64(got), map[media.Param]float64(want)) {
			t.Fatalf("call %d: Optimizer = %v %v %v, Profile.Optimize = %v %v %v", i, got, gotSat, gotOK, want, wantSat, wantOK)
		}
	}
}
