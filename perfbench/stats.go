package main

// Raw-sample statistics. Every percentile the benchmark prints is read
// off the sorted samples themselves (nearest rank) and printed beside
// its sample count; nothing is interpolated from histogram buckets.

import (
	"encoding/json"
	"math"
	"sort"
)

// summary describes one set of latency samples, in microseconds. A
// failed op is a +Inf sample: it misses every latency limit, so it
// sorts last and pushes every percentile up, and it is left out of the
// mean and the max.
type summary struct {
	N, Failed                int
	P50, P90, P99, Max, Mean float64
}

// percentile returns the nearest-rank q-quantile of sorted: the
// smallest sample with at least a q share of the samples at or below
// it. It returns NaN for no samples.
func percentile(sorted []float64, q float64) float64 {
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

// summarize sorts xs in place and describes it.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs), P50: percentile(xs, 0.50), P90: percentile(xs, 0.90), P99: percentile(xs, 0.99)}
	var sum float64
	finite := 0
	for _, x := range xs {
		if math.IsInf(x, 1) {
			s.Failed++
			continue
		}
		sum += x
		finite++
		s.Max = x
	}
	if finite > 0 {
		s.Mean = sum / float64(finite)
	}
	return s
}

// median returns the median of xs without reordering it (the mean of
// the two middle values for an even count).
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

// MarshalJSON renders a percentile that landed on a failed op (+Inf),
// or one of no samples (NaN), as null.
func (s summary) MarshalJSON() ([]byte, error) {
	num := func(x float64) any {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return nil
		}
		return x
	}
	return json.Marshal(map[string]any{
		"n": s.N, "failed": s.Failed,
		"p50": num(s.P50), "p90": num(s.P90), "p99": num(s.P99), "max": num(s.Max), "mean": num(s.Mean),
	})
}
