package satisfaction

import (
	"math"
	"slices"

	"qoschain/internal/media"
)

// Optimizer runs the per-candidate optimization of Profile.Optimize with
// all scratch state (parameter maps, ladders, satisfaction buffers)
// reused across calls. The selection algorithm performs one
// optimization per edge relaxation, and the per-call map allocations of
// Profile.Optimize dominate its allocation profile on large graphs; an
// Optimizer amortizes them to zero, and Reset carries that scratch over
// to the next profile.
//
// The arithmetic is identical to Profile.Optimize — same evaluation
// order, same ladders, same binary search — so results are bit-identical
// (the equivalence tests in internal/core assert this end to end).
//
// An Optimizer is not safe for concurrent use; each goroutine needs its
// own.
type Optimizer struct {
	p       Profile
	names   []media.Param
	weights []float64 // aligned with names; nil when the profile is unweighted

	// Scratch, reused across Optimize calls and profiles.
	assign  media.Params
	upper   media.Params
	zero    media.Params
	trial   media.Params
	sbuf    []float64
	wbuf    []float64
	ladders map[media.Param][]float64
	idx     map[media.Param]int
}

// Reset prepares the optimizer for a profile, keeping its scratch maps
// and buffers from the profile before. The zero Optimizer is ready for
// Reset. The profile's Functions and Weights maps must not change while
// the optimizer uses them.
func (o *Optimizer) Reset(p Profile) {
	o.p = p
	o.names = o.names[:0]
	for name := range p.Functions {
		o.names = append(o.names, name)
	}
	slices.Sort(o.names)
	if o.assign == nil {
		o.assign = make(media.Params, len(o.names))
		o.upper = make(media.Params, len(o.names))
		o.zero = make(media.Params, len(o.names))
		o.trial = make(media.Params, len(o.names))
		o.ladders = make(map[media.Param][]float64, len(o.names))
		o.idx = make(map[media.Param]int, len(o.names))
	}
	o.sbuf = slices.Grow(o.sbuf[:0], len(o.names))[:len(o.names)]
	o.weights = nil
	if p.Weights != nil {
		o.wbuf = slices.Grow(o.wbuf[:0], len(o.names))[:len(o.names)]
		for i, name := range o.names {
			o.wbuf[i] = p.Weights[name]
		}
		o.weights = o.wbuf
	}
}

// Params returns the profile's scored parameter names in sorted order.
// The caller must not modify the returned slice.
func (o *Optimizer) Params() []media.Param { return o.names }

// Evaluate scores a parameter assignment exactly like Profile.Evaluate,
// without allocating.
func (o *Optimizer) Evaluate(vals media.Params) float64 {
	if len(o.names) == 0 {
		return 1
	}
	s := o.sbuf
	for i, name := range o.names {
		s[i] = o.p.Functions[name].Eval(vals.Get(name))
	}
	if o.weights == nil {
		return Combine(s)
	}
	return WeightedCombine(s, o.weights)
}

// copyInto replaces dst's contents with src's.
func copyInto(dst, src media.Params) {
	clear(dst)
	for k, v := range src {
		dst[k] = v
	}
}

// Optimize is Profile.Optimize with scratch reuse. The returned Params
// aliases the optimizer's internal scratch and is only valid until the
// next call — Clone it to keep it.
func (o *Optimizer) Optimize(req Request) (best media.Params, sat float64, ok bool) {
	names := o.names
	assign := o.assign
	clear(assign)

	// Upper bound per parameter: cap ∧ ideal, snapped into the domain.
	upper := o.upper
	clear(upper)
	for _, name := range names {
		u := o.p.Functions[name].Ideal()
		if c, has := req.Caps[name]; has && c < u {
			u = c
		}
		if u < 0 {
			u = 0
		}
		if d, has := req.Domains[name]; has && !d.Continuous() {
			u = snapDown(d.Values, u)
		}
		upper[name] = u
		assign[name] = u
	}

	if req.feasible(assign) {
		return assign, o.Evaluate(assign), true
	}

	// The all-zero assignment is the floor; if even that does not fit,
	// the edge is unusable.
	zero := o.zero
	clear(zero)
	for _, name := range names {
		zero[name] = lowestValue(req.Domains[name])
	}
	if !req.feasible(zero) {
		return nil, 0, false
	}

	if len(names) == 1 {
		name := names[0]
		d := req.Domains[name]
		if d.Continuous() {
			v := o.maxFeasibleValue(req, zero, name, upper[name])
			assign[name] = v
			return assign, o.Evaluate(assign), true
		}
	}

	// Multi-parameter (or discrete) case: greedy marginal descent over
	// ladders, then continuous refinement. Each name's ladder is
	// rebuilt into the slice it had last time, holding the values
	// continuousLadder and ladderUpTo return.
	ladders, idx := o.ladders, o.idx
	clear(idx)
	for _, name := range names {
		d := req.Domains[name]
		lad := ladders[name][:0]
		if d.Continuous() {
			lad = appendContinuousLadder(lad, upper[name])
		} else {
			lad = appendLadderUpTo(lad, d.Values, upper[name])
		}
		ladders[name] = lad
		idx[name] = len(lad) - 1
		assign[name] = lad[len(lad)-1]
	}

	model := req.model()
	for !req.feasible(assign) {
		// Pick the parameter whose one-rung reduction loses the least
		// satisfaction per kbit/s saved.
		bestName := media.Param("")
		bestScore := math.Inf(-1)
		curSat := o.Evaluate(assign)
		for _, name := range names {
			i := idx[name]
			if i == 0 {
				continue
			}
			copyInto(o.trial, assign)
			o.trial[name] = ladders[name][i-1]
			saved := model.RequiredKbps(assign) - model.RequiredKbps(o.trial)
			if saved <= 0 {
				// Lowering this parameter does not save bandwidth;
				// skip it (it would only hurt satisfaction).
				continue
			}
			lost := curSat - o.Evaluate(o.trial)
			score := -lost / saved
			if score > bestScore {
				bestScore = score
				bestName = name
			}
		}
		if bestName == "" {
			// No parameter can be reduced further; fall back to the
			// floor, which was verified feasible above.
			for _, name := range names {
				idx[name] = 0
				assign[name] = ladders[name][0]
			}
			break
		}
		idx[bestName]--
		assign[bestName] = ladders[bestName][idx[bestName]]
	}

	// Continuous refinement: raise each continuous parameter as far as
	// the residual bandwidth allows. Two passes are enough in practice
	// because raising one parameter only shrinks the slack for others.
	for pass := 0; pass < 2; pass++ {
		for _, name := range names {
			if !req.Domains[name].Continuous() {
				continue
			}
			assign[name] = o.maxFeasibleValue(req, assign, name, upper[name])
		}
	}

	return assign, o.Evaluate(assign), true
}

// maxFeasibleValue is the binary search of the package-level
// maxFeasibleValue, using the optimizer's trial scratch instead of
// cloning base.
func (o *Optimizer) maxFeasibleValue(req Request, base media.Params, name media.Param, hi float64) float64 {
	copyInto(o.trial, base)
	trial := o.trial
	trial[name] = hi
	if req.feasible(trial) {
		return hi
	}
	lo := 0.0

	// Fast path for the single-entry LinearBitrate model (the package
	// default): RequiredKbps(trial) is Overhead + PerUnit[k]*trial[k],
	// the exact expression the generic loop evaluates for a one-entry
	// map, so the search below is bit-identical to the generic one while
	// touching no maps in its 64 iterations.
	if lb, isLinear := req.model().(media.LinearBitrate); isLinear && len(lb.PerUnit) == 1 {
		var k media.Param
		var per float64
		for kk, vv := range lb.PerUnit {
			k, per = kk, vv
		}
		if k != name {
			// The required bitrate does not depend on name, and it
			// already exceeded the bandwidth at hi above: every probe is
			// infeasible and the generic search returns the untouched lo.
			return 0
		}
		limit := req.Bandwidth + 1e-9
		for i := 0; i < 64; i++ {
			mid := (lo + hi) / 2
			if lb.Overhead+per*mid <= limit {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}

	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		trial[name] = mid
		if req.feasible(trial) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
