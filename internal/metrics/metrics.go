// Package metrics is LDplayer's measurement toolkit: exact quantiles and
// CDFs for the paper's box-and-whisker figures, per-second rate counters
// (Figure 8), and generic time series for resource sampling (Figures 13
// and 14). Query latency (§4.2) is not measured here: the replay engine's
// pending tables produce it, and core.Report carries it as a Summary.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Summary is the five-number summary plus mean/std the paper's figures
// report (medians, quartiles, 5th and 95th percentiles).
type Summary struct {
	N                      int
	Min, Max               float64
	P5, P25, P50, P75, P95 float64
	Mean, Std              float64
}

// Summarize computes a Summary over values. It copies and sorts.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	// Welford's online algorithm: the textbook E[X²]−E[X]² form
	// catastrophically cancels when the mean dwarfs the spread (e.g.
	// nanosecond timestamps around 1e12). Welford's running-delta update
	// avoids that, and shifting the origin to the minimum first keeps the
	// running mean at the spread's magnitude, where its ulp is harmless
	// (v−off is correctly rounded, so the shift loses nothing).
	off := sorted[0]
	var mean, m2 float64
	for i, v := range sorted {
		delta := (v - off) - mean
		mean += delta / float64(i+1)
		m2 += delta * ((v - off) - mean)
	}
	mean += off
	variance := m2 / float64(len(sorted))
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:    len(sorted),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P5:   Quantile(sorted, 0.05),
		P25:  Quantile(sorted, 0.25),
		P50:  Quantile(sorted, 0.50),
		P75:  Quantile(sorted, 0.75),
		P95:  Quantile(sorted, 0.95),
		Mean: mean,
		Std:  math.Sqrt(variance),
	}
}

// String renders the summary as one table row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3f p5=%.3f p25=%.3f p50=%.3f p75=%.3f p95=%.3f max=%.3f mean=%.3f std=%.3f",
		s.N, s.Min, s.P5, s.P25, s.P50, s.P75, s.P95, s.Max, s.Mean, s.Std)
}

// Quantile returns the q-quantile (0..1) of sorted values with linear
// interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF over values (copied and sorted).
func NewCDF(values []float64) *CDF {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// Advance past equal values so At is P(X <= x), not P(X < x).
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// InverseAt returns the p-quantile (the x with At(x) ≈ p).
func (c *CDF) InverseAt(p float64) float64 {
	return Quantile(c.sorted, p)
}

// Points samples n evenly spaced (x, P(X<=x)) pairs for plotting.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		if n == 1 {
			q = 0.5
		}
		x := Quantile(c.sorted, q)
		out = append(out, [2]float64{x, q})
	}
	return out
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.sorted) }

// RateCounter bins events into fixed windows and reports per-window
// rates — the Figure 8 per-second query-rate comparison.
type RateCounter struct {
	mu     sync.Mutex
	window time.Duration
	base   time.Time
	counts map[int64]int64
}

// NewRateCounter creates a counter with the given window (e.g. 1s).
func NewRateCounter(window time.Duration) *RateCounter {
	return &RateCounter{window: window, counts: make(map[int64]int64)}
}

// Add records one event at t.
func (r *RateCounter) Add(t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.base.IsZero() {
		r.base = t
	}
	bin := int64(t.Sub(r.base) / r.window)
	r.counts[bin]++
}

// Rates returns events-per-window for every window from the first to the
// last observed, zero-filled.
func (r *RateCounter) Rates() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counts) == 0 {
		return nil
	}
	var maxBin int64
	for b := range r.counts {
		if b > maxBin {
			maxBin = b
		}
	}
	out := make([]float64, maxBin+1)
	for b, c := range r.counts {
		if b >= 0 {
			out[b] = float64(c)
		}
	}
	return out
}

// RelativeDifferences compares two rate series pointwise, returning
// (replay-original)/original for each window where original is non-zero.
func RelativeDifferences(original, replay []float64) []float64 {
	n := len(original)
	if len(replay) < n {
		n = len(replay)
	}
	var out []float64
	for i := 0; i < n; i++ {
		if original[i] != 0 {
			out = append(out, (replay[i]-original[i])/original[i])
		}
	}
	return out
}

// TimeSeries accumulates (time, value) samples — memory curves,
// connection counts, bandwidth over time.
type TimeSeries struct {
	mu     sync.Mutex
	Name   string
	points []TimePoint
}

// TimePoint is one sample.
type TimePoint struct {
	T time.Time
	V float64
}

// NewTimeSeries creates a named series.
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{Name: name}
}

// Add appends a sample.
func (ts *TimeSeries) Add(t time.Time, v float64) {
	ts.mu.Lock()
	ts.points = append(ts.points, TimePoint{T: t, V: v})
	ts.mu.Unlock()
}

// Points returns a copy of the samples.
func (ts *TimeSeries) Points() []TimePoint {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]TimePoint(nil), ts.points...)
}

// Values returns just the sample values.
func (ts *TimeSeries) Values() []float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]float64, len(ts.points))
	for i, p := range ts.points {
		out[i] = p.V
	}
	return out
}

// SteadyState summarizes the series after skipping the warmup prefix —
// the paper ignores the first minutes before resource usage stabilizes.
func (ts *TimeSeries) SteadyState(warmup time.Duration) Summary {
	pts := ts.Points()
	if len(pts) == 0 {
		return Summary{}
	}
	start := pts[0].T.Add(warmup)
	var vals []float64
	for _, p := range pts {
		if !p.T.Before(start) {
			vals = append(vals, p.V)
		}
	}
	return Summarize(vals)
}
