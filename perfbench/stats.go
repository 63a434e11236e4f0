package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailLadder holds the percentiles a tail may fall back to, highest first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of sorted samples and
// how many samples lie above that rank.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// tail reports the want-th percentile of samples when at least minBeyond
// samples lie beyond it, else the highest percentile of tailLadder that has
// them. The chosen percentile is returned beside the value. Callers put
// failed ops in samples at their limit, so a failure counts as beyond any
// passing op.
func tail(samples []float64, want float64) (value, pct float64) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if v, beyond := percentile(sorted, want); beyond >= minBeyond {
		return v, want
	}
	for _, p := range tailLadder {
		if p >= want {
			continue
		}
		if v, beyond := percentile(sorted, p); beyond >= minBeyond {
			return v, p
		}
	}
	v, _ := percentile(sorted, 50)
	return v, 50
}

// median is the 50th percentile by linear interpolation, the convention of
// Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gmean is the geometric mean of positive values.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// virtMs is an op's virtual time in ms for virt_ms_gmean: a failed op is
// charged its virtual-time limit, so fixing a failure shows as a gain.
func virtMs(passed bool, timeNs, limitNs int64) float64 {
	if !passed {
		timeNs = limitNs
	}
	return float64(timeNs) / 1e6
}

// window is one unit of throughput measurement: a round of ops for the
// closed loops, a wall-clock slice for the service.
type window struct {
	seconds float64 // time of all ops in it, passing or not
	passed  int     // ops that passed their check
	insns   uint64  // guest instructions retired by passing ops
}

// rates returns the median over windows of passing ops per second and of
// guest Minsn per second. Work counts only when its op passed; time counts
// for every op, so a failed op costs time and adds no work.
func rates(ws []window) (opsPerS, minsnPerS float64) {
	var ops, minsn []float64
	for _, w := range ws {
		if w.seconds <= 0 {
			continue
		}
		ops = append(ops, float64(w.passed)/w.seconds)
		minsn = append(minsn, float64(w.insns)/1e6/w.seconds)
	}
	return median(ops), median(minsn)
}

// failFrac is failed ops over attempted ops.
func failFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
