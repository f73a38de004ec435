package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between the closest ranks; 0 when there are no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tail is the 95th percentile when at least ten samples lie above it,
// and the median otherwise: a tail estimated from fewer samples moves
// with every run.
func tail(xs []float64) float64 {
	if len(xs) >= 200 {
		return percentile(xs, 95)
	}
	return median(xs)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q2 := median(xs)
	if q2 == 0 {
		return 0
	}
	return (percentile(xs, 75) - percentile(xs, 25)) / math.Abs(q2)
}
