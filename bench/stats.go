package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below
// it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile is the reporting rule for a tail latency: p99 when
// there are at least 1000 samples, otherwise the highest percentile
// that still has ten samples beyond it. It returns the value and the
// percentile actually reported.
func tailPercentile(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n >= 1000 {
		return quantile(sorted, 0.99), 99
	}
	i := n - 11 // ten samples lie beyond index i
	if i < 0 {
		i = 0
	}
	return sorted[i], 100 * float64(i+1) / float64(n)
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is what the driver computes spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - 4*j // after clamping, as CPython does: tiny samples extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// slope is the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}
