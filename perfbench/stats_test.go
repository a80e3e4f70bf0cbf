package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		p    float64
	}{
		{1000, 0.99, 0.99},   // exactly ten beyond p99
		{999, 0.99, 0.98999}, // one short: the percentile drops just below p99
		{5000, 0.99, 0.99},
		{100, 0.90, 0.90},
		{99, 0.90, 89.0 / 99},
		{30, 0.99, 20.0 / 30},
		{11, 0.5, 1.0 / 11},
		{10, 0.5, 0},
		{0, 0.99, 0},
	}
	for _, c := range cases {
		p := tailPercentile(c.n, c.want)
		if math.Abs(p-c.p) > 1e-4 {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, p, c.p)
		}
		if p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d p=%v leaves %d samples beyond, want at least %d", c.n, p, beyond(c.n, p), minBeyond)
		}
	}
}

func TestTailPercentileIsHighestWithTenBeyond(t *testing.T) {
	for n := minBeyond + 1; n < 3000; n++ {
		p := tailPercentile(n, 1)
		if got := beyond(n, p); got != minBeyond {
			t.Fatalf("n=%d: %d samples beyond p=%v, want exactly %d", n, got, p, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	got := summarize([]float64{5, 1, 4, 2, 3})
	want := summary{N: 5, Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5}
	if got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}
