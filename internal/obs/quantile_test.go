package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ldplayer/internal/metrics"
)

// TestHistogramQuantileVsExact is the histogram-correctness property test:
// over random lognormal samples (the shape of real DNS latency
// distributions), every quantile estimate must land within one bucket
// width of the exact metrics.Quantile answer. Seeds are fixed, so the
// check is deterministic.
func TestHistogramQuantileVsExact(t *testing.T) {
	quantiles := []float64{0.05, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}
	cases := []struct {
		seed  int64
		n     int
		mu    float64 // log-mean of the lognormal
		sigma float64 // log-stddev
		scale float64 // multiplier into "nanoseconds"
	}{
		{seed: 1, n: 5000, mu: 0, sigma: 0.5, scale: 1e6},  // ~1ms latencies
		{seed: 2, n: 5000, mu: 0, sigma: 1.0, scale: 1e6},  // heavier tail
		{seed: 3, n: 2000, mu: 1, sigma: 0.25, scale: 1e3}, // tight µs-scale
		{seed: 4, n: 10000, mu: 0, sigma: 2.0, scale: 1e4}, // very heavy tail
		{seed: 5, n: 777, mu: 2, sigma: 0.75, scale: 1e8},  // 100ms–seconds
		{seed: 6, n: 3000, mu: 0, sigma: 0.1, scale: 1e2},  // near-constant
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(tc.seed))
		var h Histogram
		exact := make([]float64, 0, tc.n)
		for i := 0; i < tc.n; i++ {
			v := math.Exp(tc.mu+tc.sigma*rng.NormFloat64()) * tc.scale
			iv := int64(v)
			h.Record(iv)
			// Compare against what the histogram actually ingested (the
			// integer-truncated sample), isolating bucketing error from
			// float→int conversion.
			exact = append(exact, float64(iv))
		}
		sort.Float64s(exact)
		snap := h.Snapshot()
		for _, q := range quantiles {
			want := metrics.Quantile(exact, q)
			got := snap.Quantile(q)
			lo, hi := BucketBoundsFor(int64(want))
			width := float64(hi - lo)
			if diff := math.Abs(got - want); diff > width {
				t.Errorf("seed=%d q=%v: histogram %.0f vs exact %.0f, |diff|=%.0f exceeds bucket width %.0f",
					tc.seed, q, got, want, diff, width)
			}
		}
	}
}

// TestHistogramQuantileSmallN covers degenerate sample counts where rank
// arithmetic is most fragile.
func TestHistogramQuantileSmallN(t *testing.T) {
	var h Histogram
	h.Record(7)
	for _, q := range []float64{0, 0.5, 1} {
		got := h.Quantile(q)
		lo, hi := BucketBoundsFor(7)
		if got < float64(lo) || got > float64(hi) {
			t.Fatalf("n=1 quantile(%v) = %v outside [%d,%d]", q, got, lo, hi)
		}
	}
	h.Record(7_000_000)
	if p0, p1 := h.Quantile(0), h.Quantile(1); p0 >= p1 {
		t.Fatalf("n=2 p0=%v should be < p100=%v", p0, p1)
	}
}
