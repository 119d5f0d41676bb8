package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// when len(xs) is even) without reordering the caller's slice. It returns
// NaN for an empty input so a missing sample can never read as a time.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p percent of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// worsening returns by what share of base the value cur is worse than
// base, given the metric's direction; negative when cur is better.
func worsening(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}
