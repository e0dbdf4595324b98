package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestSummarizeKnownDistribution: 1..1000 shuffled has exact nearest-rank
// percentiles, a known mean, and no interpolation between samples.
func TestSummarizeKnownDistribution(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	s := summarize(xs)
	want := summary{N: 1000, P50: 500, P90: 900, P99: 990, Max: 1000, Mean: 500.5}
	if s != want {
		t.Fatalf("summarize(1..1000) = %+v, want %+v", s, want)
	}
}

// TestPercentileNoInterpolation: with two samples every percentile is
// one of them, never a value between.
func TestPercentileNoInterpolation(t *testing.T) {
	sorted := []float64{10, 20}
	for _, c := range []struct{ q, want float64 }{{0.01, 10}, {0.5, 10}, {0.51, 20}, {0.9, 20}, {1, 20}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", sorted, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestFailedOpsMissEveryLimit: failed ops are +Inf samples, so 2% of
// failures lift p99 to +Inf while p50 stays finite, and the mean and max
// cover the finite samples only.
func TestFailedOpsMissEveryLimit(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 0; i < 98; i++ {
		xs = append(xs, 1)
	}
	xs = append(xs, math.Inf(1), math.Inf(1))
	s := summarize(xs)
	if s.Failed != 2 || s.P50 != 1 || !math.IsInf(s.P99, 1) || s.Mean != 1 || s.Max != 1 {
		t.Fatalf("summarize with failures = %+v", s)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"p99":null`) {
		t.Fatalf("an infinite percentile must encode as null: %s", b)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Fatal("median reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}
