package satisfaction

import (
	"math"

	"qoschain/internal/media"
)

// Domain restricts the values a QoS parameter may take. A nil or empty
// Values slice means the parameter is continuous over [0, cap]; otherwise
// the parameter must take one of the listed values (a "ladder", e.g. the
// resolution steps a scaler supports). Values need not be sorted.
type Domain struct {
	Values []float64
}

// Continuous reports whether the domain allows any value in [0, cap].
func (d Domain) Continuous() bool { return len(d.Values) == 0 }

// Request describes one constrained parameter-optimization problem: the
// per-candidate subproblem of Step 2/Step 8 in Figure 4. The optimizer
// maximizes Profile.Evaluate subject to
//
//	bitrate(x_1..x_n) <= Bandwidth            (Equation 2)
//	x_i <= Caps[i]  and  x_i ∈ Domains[i]
type Request struct {
	// Caps bounds each parameter from above: the element-wise minimum
	// of what the upstream chain delivers and what the trans-coding
	// service can produce. A parameter scored by the profile but absent
	// from Caps is bounded only by its ideal value.
	Caps media.Params
	// Domains optionally restricts parameters to discrete ladders.
	Domains map[media.Param]Domain
	// Bitrate converts an assignment into required kbit/s. When nil,
	// media.DefaultBitrate is used.
	Bitrate media.BitrateModel
	// Bandwidth is the available kbit/s on the edge; <= 0 means
	// unlimited (e.g. two services co-located on one intermediary).
	Bandwidth float64
}

func (r Request) model() media.BitrateModel {
	if r.Bitrate != nil {
		return r.Bitrate
	}
	return media.DefaultBitrate
}

func (r Request) feasible(p media.Params) bool {
	if r.Bandwidth <= 0 {
		return true
	}
	return r.model().RequiredKbps(p) <= r.Bandwidth+1e-9
}

// gridSteps is the resolution at which continuous parameters are
// discretized during multi-parameter greedy descent. Continuous
// refinement afterwards recovers sub-step precision.
const gridSteps = 32

// Optimize returns the parameter assignment that maximizes the profile's
// total satisfaction under the request's constraints, together with that
// satisfaction. ok is false when even the all-zero assignment exceeds the
// bandwidth (the edge cannot carry the stream at all).
//
// Because every satisfaction function is monotone non-decreasing, the
// unconstrained optimum is each parameter at min(cap, ideal); when that is
// bandwidth-feasible it is returned directly. Otherwise the optimizer runs
// a greedy marginal descent over (possibly discretized) parameter ladders
// followed by continuous coordinate refinement. For a single continuous
// parameter the result is exact (binary search); for multiple parameters
// it is a high-quality heuristic whose gap versus exhaustive enumeration
// is property-tested in this package.
func (p Profile) Optimize(req Request) (best media.Params, sat float64, ok bool) {
	names := p.Params()
	assign := make(media.Params, len(names))

	// Upper bound per parameter: cap ∧ ideal, snapped into the domain.
	upper := make(media.Params, len(names))
	for _, name := range names {
		u := p.Functions[name].Ideal()
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
		return assign, p.Evaluate(assign), true
	}

	// The all-zero assignment is the floor; if even that does not fit,
	// the edge is unusable.
	zero := make(media.Params, len(names))
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
			v := maxFeasibleValue(req, zero, name, upper[name])
			assign[name] = v
			return assign, p.Evaluate(assign), true
		}
	}

	// Multi-parameter (or discrete) case: greedy marginal descent over
	// ladders, then continuous refinement.
	ladders := make(map[media.Param][]float64, len(names))
	idx := make(map[media.Param]int, len(names))
	for _, name := range names {
		d := req.Domains[name]
		var lad []float64
		if d.Continuous() {
			lad = continuousLadder(upper[name])
		} else {
			lad = ladderUpTo(d.Values, upper[name])
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
		curSat := p.Evaluate(assign)
		for _, name := range names {
			i := idx[name]
			if i == 0 {
				continue
			}
			trial := assign.Clone()
			trial[name] = ladders[name][i-1]
			saved := model.RequiredKbps(assign) - model.RequiredKbps(trial)
			if saved <= 0 {
				// Lowering this parameter does not save bandwidth;
				// skip it (it would only hurt satisfaction).
				continue
			}
			lost := curSat - p.Evaluate(trial)
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
			assign[name] = maxFeasibleValue(req, assign, name, upper[name])
		}
	}

	return assign, p.Evaluate(assign), true
}

// OptimizeExhaustive enumerates the full cross product of the parameter
// ladders (continuous parameters are discretized at gridSteps) and
// returns the best feasible assignment. It is exponential in the number
// of parameters and exists as the ground-truth oracle for tests and for
// the greedy-gap experiment.
func (p Profile) OptimizeExhaustive(req Request) (best media.Params, sat float64, ok bool) {
	names := p.Params()
	ladders := make([][]float64, len(names))
	for i, name := range names {
		u := p.Functions[name].Ideal()
		if c, has := req.Caps[name]; has && c < u {
			u = c
		}
		if u < 0 {
			u = 0
		}
		d := req.Domains[name]
		if d.Continuous() {
			ladders[i] = continuousLadder(u)
		} else {
			lad := ladderUpTo(d.Values, u)
			ladders[i] = lad
		}
	}
	assign := make(media.Params, len(names))
	bestSat := -1.0
	var rec func(i int)
	rec = func(i int) {
		if i == len(names) {
			if !req.feasible(assign) {
				return
			}
			if s := p.Evaluate(assign); s > bestSat {
				bestSat = s
				best = assign.Clone()
			}
			return
		}
		for _, v := range ladders[i] {
			assign[names[i]] = v
			rec(i + 1)
		}
	}
	rec(0)
	if bestSat < 0 {
		return nil, 0, false
	}
	return best, bestSat, true
}

// maxFeasibleValue binary-searches the largest value of name in
// [current floor, hi] that keeps the assignment bandwidth-feasible, with
// all other parameters held at their values in base.
func maxFeasibleValue(req Request, base media.Params, name media.Param, hi float64) float64 {
	trial := base.Clone()
	trial[name] = hi
	if req.feasible(trial) {
		return hi
	}
	lo := 0.0
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

// continuousLadder discretizes [0, upper] into gridSteps+1 ascending
// values (always including 0 and upper).
func continuousLadder(upper float64) []float64 {
	return appendContinuousLadder(nil, upper)
}

// appendContinuousLadder appends continuousLadder(upper) to dst.
func appendContinuousLadder(dst []float64, upper float64) []float64 {
	if upper <= 0 {
		return append(dst, 0)
	}
	for i := 0; i <= gridSteps; i++ {
		dst = append(dst, upper*float64(i)/gridSteps)
	}
	return dst
}

// ladderUpTo returns the sorted domain values <= upper (always at least
// the smallest value, so descent has a floor).
func ladderUpTo(values []float64, upper float64) []float64 {
	return appendLadderUpTo(nil, values, upper)
}

// appendLadderUpTo appends ladderUpTo(values, upper) to dst.
func appendLadderUpTo(dst, values []float64, upper float64) []float64 {
	start := len(dst)
	dst = append(dst, values...)
	sorted := dst[start:]
	sortFloats(sorted)
	out := sorted[:0]
	for _, v := range sorted {
		if v <= upper+1e-12 {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return dst[:start+1]
	}
	return dst[:start+len(out)]
}

// snapDown returns the largest domain value <= upper, or the smallest
// domain value when none qualifies.
func snapDown(values []float64, upper float64) float64 {
	// Ties resolve as in ladderUpTo's stable ascending sort: the floor
	// is the first smallest value, the snap the last largest
	// qualifying one.
	best, low, found := 0.0, values[0], false
	for _, v := range values {
		if v < low {
			low = v
		}
		if v <= upper+1e-12 && (!found || v >= best) {
			best, found = v, true
		}
	}
	if !found {
		return low
	}
	return best
}

// lowestValue returns the domain's floor: 0 for continuous domains, the
// smallest ladder value otherwise.
func lowestValue(d Domain) float64 {
	if d.Continuous() {
		return 0
	}
	low := d.Values[0]
	for _, v := range d.Values[1:] {
		if v < low {
			low = v
		}
	}
	return low
}

// sortFloats is an insertion sort: ladders are tiny and this avoids a
// sort.Float64s allocation in the hot per-candidate path.
func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
