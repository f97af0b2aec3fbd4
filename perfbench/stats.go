package main

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"sort"

	"qoschain/internal/metrics"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two closest ranks. xs need not be sorted;
// an empty sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is an ordered metric set: the order is the print order.
type report struct {
	names []string
	vals  map[string]metric
}

func newReport() *report { return &report{vals: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = metric{Value: v, Unit: unit}
}

// ops counts attempted and failed operations per kind.
type ops struct {
	kinds    []string
	attempts map[string]int
	failures map[string]int
}

func newOps() *ops { return &ops{attempts: map[string]int{}, failures: map[string]int{}} }

func (o *ops) note(kind string, failed bool) {
	if _, ok := o.attempts[kind]; !ok {
		o.kinds = append(o.kinds, kind)
	}
	o.attempts[kind]++
	if failed {
		o.failures[kind]++
	}
}

func (o *ops) add(other *ops) {
	for _, k := range other.kinds {
		if _, ok := o.attempts[k]; !ok {
			o.kinds = append(o.kinds, k)
		}
		o.attempts[k] += other.attempts[k]
		o.failures[k] += other.failures[k]
	}
}

func (o *ops) totals() (attempted, failed int) {
	for _, k := range o.kinds {
		attempted += o.attempts[k]
		failed += o.failures[k]
	}
	return attempted, failed
}

func (o *ops) String() string {
	s := ""
	for i, k := range o.kinds {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %d/%d failed", k, o.failures[k], o.attempts[k])
	}
	return s
}

// histTail follows one registry histogram: next returns the
// observations recorded since the previous call (the registry keeps the
// newest metrics.SampleWindow raw values, far more than one call adds).
type histTail struct {
	reg  *metrics.Registry
	name string
	seen int
}

func newHistTail(reg *metrics.Registry, name string) *histTail {
	return &histTail{reg: reg, name: name, seen: reg.SampleSummary(name).Count}
}

func (h *histTail) next() []float64 {
	n := h.reg.SampleSummary(h.name).Count
	d := n - h.seen
	h.seen = n
	if d <= 0 {
		return nil
	}
	w := h.reg.Window(h.name)
	if d > len(w) {
		d = len(w)
	}
	return w[len(w)-d:]
}

// liveHeapMB is HeapAlloc after two collections: the first GC moves
// sync.Pool contents to the victim cache, the second frees them, so the
// figure no longer depends on when the last pool was touched.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memDelta brackets a phase with runtime.MemStats readings.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// done reports allocations, allocated bytes, GC cycles and total GC
// pause since startMem.
func (d *memDelta) done() (mallocs, bytes, gcs uint64, pauseMs float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - d.before.Mallocs,
		after.TotalAlloc - d.before.TotalAlloc,
		uint64(after.NumGC - d.before.NumGC),
		float64(after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
}
