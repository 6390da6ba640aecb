package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeKnownValues(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := Summarize(vals)
	if s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50 != 5.5 {
		t.Errorf("median = %v, want 5.5", s.P50)
	}
	if s.Mean != 5.5 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.Std-2.872) > 0.01 {
		t.Errorf("std = %v", s.Std)
	}
	if s.P25 != 3.25 || s.P75 != 7.75 {
		t.Errorf("quartiles = %v %v", s.P25, s.P75)
	}
}

// TestSummarizeLargeOffset is the catastrophic-cancellation regression:
// with values offset by 1e12 (timestamps), the naive E[X²]−E[X]² variance
// loses every significant digit of the spread and returns 0 (or garbage),
// while Welford's update keeps the exact answer. {d, d+1, d+2} has
// population variance 2/3 regardless of d.
func TestSummarizeLargeOffset(t *testing.T) {
	const d = 1e12
	wantStd := math.Sqrt(2.0 / 3.0)
	s := Summarize([]float64{d + 1, d + 2, d + 3})
	if math.Abs(s.Std-wantStd) > 1e-9 {
		t.Errorf("std = %v, want %v (offset cancellation)", s.Std, wantStd)
	}
	if s.Mean != d+2 {
		t.Errorf("mean = %v, want %v", s.Mean, d+2)
	}

	// On a random offset dataset, the result must match a ground truth
	// computed on the identical samples rebased to remove the offset
	// (rebasing is exact: the values are within a factor of two of d).
	rng := rand.New(rand.NewSource(7))
	shifted := make([]float64, 1000)
	rebased := make([]float64, 1000)
	for i := range shifted {
		shifted[i] = rng.NormFloat64() + d
		rebased[i] = shifted[i] - d
	}
	var sum float64
	for _, v := range rebased {
		sum += v
	}
	mean := sum / float64(len(rebased))
	var m2 float64
	for _, v := range rebased {
		m2 += (v - mean) * (v - mean)
	}
	want := math.Sqrt(m2 / float64(len(rebased)))
	if got := Summarize(shifted).Std; math.Abs(got-want) > 1e-6*want {
		t.Errorf("offset std = %v, want %v", got, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestQuantileEdges(t *testing.T) {
	sorted := []float64{1, 2, 3}
	if Quantile(sorted, 0) != 1 || Quantile(sorted, 1) != 3 {
		t.Error("quantile edges wrong")
	}
	if Quantile(sorted, 0.5) != 2 {
		t.Error("median wrong")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {99, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); got != cse.want {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Error("CDF points not monotone")
		}
	}
}

func TestRateCounter(t *testing.T) {
	r := NewRateCounter(time.Second)
	base := time.Unix(100, 0)
	for i := 0; i < 10; i++ {
		r.Add(base.Add(time.Duration(i) * 200 * time.Millisecond)) // 2s span
	}
	rates := r.Rates()
	if len(rates) != 2 {
		t.Fatalf("rates = %v", rates)
	}
	if rates[0] != 5 || rates[1] != 5 {
		t.Errorf("rates = %v", rates)
	}
}

func TestRateCounterZeroFill(t *testing.T) {
	r := NewRateCounter(time.Second)
	base := time.Unix(100, 0)
	r.Add(base)
	r.Add(base.Add(3 * time.Second))
	rates := r.Rates()
	if len(rates) != 4 || rates[1] != 0 || rates[2] != 0 {
		t.Errorf("rates = %v", rates)
	}
}

func TestRelativeDifferences(t *testing.T) {
	orig := []float64{100, 200, 0, 400}
	repl := []float64{101, 198, 5, 400}
	d := RelativeDifferences(orig, repl)
	if len(d) != 3 { // zero-original window skipped
		t.Fatalf("diffs = %v", d)
	}
	if math.Abs(d[0]-0.01) > 1e-9 || math.Abs(d[1]+0.01) > 1e-9 || d[2] != 0 {
		t.Errorf("diffs = %v", d)
	}
}

func TestTimeSeriesSteadyState(t *testing.T) {
	ts := NewTimeSeries("mem")
	base := time.Unix(0, 0)
	// Ramp for 5 samples then steady at 100.
	for i := 0; i < 5; i++ {
		ts.Add(base.Add(time.Duration(i)*time.Second), float64(i*20))
	}
	for i := 5; i < 10; i++ {
		ts.Add(base.Add(time.Duration(i)*time.Second), 100)
	}
	s := ts.SteadyState(5 * time.Second)
	if s.Min != 100 || s.Max != 100 {
		t.Errorf("steady state = %+v", s)
	}
	if got := ts.SteadyState(0); got.N != 10 {
		t.Errorf("no-warmup N = %d", got.N)
	}
}

// TestQuickQuantileMonotone: quantiles are monotone in q and bounded by
// min/max for any input.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(sorted, q)
			if v < prev || v < sorted[0] || v > sorted[n-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickCDFInverse: At and InverseAt are approximately inverse.
func TestQuickCDFInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
		}
		c := NewCDF(vals)
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			x := c.InverseAt(p)
			got := c.At(x)
			// Allow discretization slack of 2/n.
			if math.Abs(got-p) > 2.0/float64(n)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
