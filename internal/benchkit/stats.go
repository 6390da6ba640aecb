package benchkit

import (
	"math"
	"sort"
)

// Median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN when xs is empty. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// MAD is the median absolute deviation from the median: the spread
// statistic reported beside every median, robust to the one slow
// repetition a shared box produces.
func MAD(xs []float64) float64 {
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// Summary is the per-metric statistic block of the report: the median
// over repetitions is the metric's value, everything else says how far
// to trust it.
type Summary struct {
	Median float64   `json:"median"`
	MAD    float64   `json:"mad"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// Summarize folds one metric's per-repetition values.
func Summarize(xs []float64) Summary {
	s := Summary{Median: Median(xs), MAD: MAD(xs), N: len(xs), Values: xs}
	if len(xs) > 0 {
		s.Min, s.Max = xs[0], xs[0]
		for _, x := range xs[1:] {
			s.Min = math.Min(s.Min, x)
			s.Max = math.Max(s.Max, x)
		}
	}
	return s
}

// Quantile returns the q-quantile (0..1) of sorted by nearest rank on
// q*(n-1), NaN when empty.
func Quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return float64(sorted[int(math.Round(q*float64(len(sorted)-1)))])
}

// TailQuantile picks the highest of the candidate percentiles that still
// has at least ten samples beyond it (the choosing-metrics rule: a p99
// of 300 samples is three numbers, not a percentile) and returns it with
// its value. With fewer than ten samples beyond even the lowest
// candidate it falls back to that lowest candidate.
func TailQuantile(sorted []int64, candidates ...float64) (q, v float64) {
	q = candidates[0]
	for _, c := range candidates {
		if float64(len(sorted))*(1-c) >= 10 {
			q = c
		}
	}
	return q, Quantile(sorted, q)
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }
