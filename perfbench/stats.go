package main

import (
	"math"
	"runtime"
	"sort"
)

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailGrid is the set of percentiles a tail latency is reported at.
// Reporting on a fixed grid keeps the quantity the same from run to
// run while the sample count moves a little.
var tailGrid = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest grid percentile that has at least
// ten of n samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailGrid {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// windowed splits xs, in the order measured, into whole windows of n
// (two windows at least) and returns the median over windows of each
// window's p50 and of its tail percentile, and that percentile. One
// stall then moves one window's tail, not the reported one.
func windowed(xs []float64, n int) (p50, tail, pct float64) {
	if len(xs) < 2*n {
		n = max(1, len(xs)/2)
	}
	pct = tailPercentile(n)
	var p50s, tails []float64
	for lo := 0; lo+n <= len(xs); lo += n {
		w := xs[lo : lo+n]
		p50s = append(p50s, percentile(w, 50))
		tails = append(tails, percentile(w, pct))
	}
	return median(p50s), median(tails), pct
}

// inf is the latency of a failed operation: it misses every limit.
var inf = math.Inf(1)

// runtimeAllocs reads the process's cumulative heap allocation count.
type runtimeAllocs struct{ n float64 }

func (a *runtimeAllocs) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.n = float64(ms.Mallocs)
}
