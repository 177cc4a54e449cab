package main

import (
	"math"
	"sort"
)

// tailPct is the tail percentile every timing reports beside its median,
// and minTail the number of samples that must lie beyond it for the
// percentile to mean anything.
const (
	tailPct = 90
	minTail = 10
)

// minOps is the smallest op count whose tailPct-th percentile has minTail
// samples beyond it: 100 for p90.
func minOps() int { return minTail * 100 / (100 - tailPct) }

// rank returns the 1-based nearest rank of the pct-th percentile among n
// sorted samples: ⌈n·pct/100⌉, at least 1.
func rank(n, pct int) int {
	r := (n*pct + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank pct-th percentile of xs (0 for an
// empty slice). xs is not modified.
func percentile(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), pct)-1]
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// samples collects named per-op (or per-block) observations; a metric is
// later reduced from the samples recorded under its name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// agg selects how a metric is reduced from its samples.
type agg int

const (
	aggMedian agg = iota
	aggMean
)

func (a agg) of(xs []float64) float64 {
	if a == aggMedian {
		return percentile(xs, 50)
	}
	return mean(xs)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps NaN and ±Inf (e.g. a ratio over an empty denominator) to 0
// so the JSON line stays encodable.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
