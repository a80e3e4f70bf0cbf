package main

import (
	"math"
	"sort"
)

// tailWant is the percentile the tail metrics aim for. p99 swings by a
// third or more between runs on a small shared host, where one burst of
// interference decides the top 1%; p90 is the highest that stays steady.
// A run with too few samples for p90 reports the highest percentile its
// samples support (see tailPercentile).
const tailWant = 0.90

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, not a percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the p-quantile among
// n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the nearest-rank
// p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentile returns the highest percentile, at most want, whose
// nearest-rank value leaves at least minBeyond of n samples above it; 0
// when n samples support no such percentile.
func tailPercentile(n int, want float64) float64 {
	if n <= minBeyond {
		return 0
	}
	return min(want, float64(n-minBeyond)/float64(n))
}

// percentile returns the nearest-rank p-quantile of sorted samples, NaN
// when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// median returns the middle of the samples (the mean of the two middle
// ones for an even count), NaN when there are none. It does not reorder
// its argument.
func median(samples []float64) float64 {
	s := sortedCopy(samples)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// summary describes one metric's samples within a run.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize returns count, extremes, quartiles and median of the samples.
func summarize(samples []float64) summary {
	s := sortedCopy(samples)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     percentile(s, 0.25),
		Median: median(s),
		Q3:     percentile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// ratio returns num/den, or 0 when den is 0 (the layer did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
