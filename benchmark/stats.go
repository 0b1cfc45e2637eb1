package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure never rests on a
// handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= minBeyond
}

// tailPercentile is percentile with a fallback for runs too short to
// support q: it steps down to the highest rank that still has minBeyond
// samples beyond it (the median at worst) and returns the quantile actually
// reported, so the result names what it measured.
func tailPercentile(sorted []float64, q float64) (v, effQ float64) {
	if v, ok := percentile(sorted, q); ok {
		return v, q
	}
	n := len(sorted)
	if n == 0 {
		return math.NaN(), q
	}
	i := n - 1 - minBeyond
	if i < n/2 {
		i = n / 2
	}
	return sorted[i], float64(i+1) / float64(n)
}

// median returns the median of v without reordering it.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the default "exclusive" method) — the estimator the acceptance
// check of this benchmark is defined with. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
