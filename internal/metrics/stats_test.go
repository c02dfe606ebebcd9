package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Std()-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", w.Std())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Std() != 0 {
		t.Error("empty Welford not zero")
	}
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Std() != 0 || w.Min() != 3.5 || w.Max() != 3.5 {
		t.Error("single-value Welford wrong")
	}
}

func TestPercentilesQuantile(t *testing.T) {
	var p Percentiles
	for i := 1; i <= 100; i++ {
		p.Add(float64(i))
	}
	cases := []struct {
		q, want float64
	}{{0, 1}, {1, 100}, {0.5, 50.5}, {0.75, 75.25}, {0.9, 90.1}}
	for _, c := range cases {
		if got := p.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestPercentilesInterleavedAddQuery(t *testing.T) {
	var p Percentiles
	p.Add(10)
	if p.Quantile(0.5) != 10 {
		t.Fatal("median of single value")
	}
	p.Add(20)
	if got := p.Quantile(0.5); got != 15 {
		t.Fatalf("median = %v, want 15", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 20, 30, 40, 50})
	if s.N != 5 || s.Avg != 30 || s.Med != 30 || s.Min != 10 || s.Max != 50 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.5)
	e.Update(0)
	for i := 0; i < 50; i++ {
		e.Update(10)
	}
	if math.Abs(e.Value()-10) > 1e-6 {
		t.Fatalf("EWMA = %v, want ≈10", e.Value())
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	for i := 0; i < 10; i++ {
		ts.Append(time.Duration(i)*time.Second, float64(i))
	}
	if ts.Mean() != 4.5 || ts.Max() != 9 {
		t.Fatalf("Mean/Max = %v/%v", ts.Mean(), ts.Max())
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var p Percentiles
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			p.Add(v)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := p.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return p.Quantile(0) <= p.Quantile(1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Welford mean/std match the naive two-pass computation.
func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(raw []int32) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		ss := 0.0
		for _, v := range raw {
			ss += (float64(v) - mean) * (float64(v) - mean)
		}
		std := math.Sqrt(ss / float64(len(raw)))
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(w.Mean()-mean)/scale < 1e-9 && math.Abs(w.Std()-std)/math.Max(1, std) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogHistQuantiles(t *testing.T) {
	h := NewLogHist()
	// 90 fast steps at 10ms, ten slow at 1s: p50 ≈ 10ms, p99 within a
	// bucket of 1s (log-bucket quantiles carry ~2% relative error).
	for i := 0; i < 90; i++ {
		h.Add(0.010)
	}
	for i := 0; i < 10; i++ {
		h.Add(1.0)
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-0.010)/0.010 > 0.05 {
		t.Fatalf("p50 = %v, want ≈10ms", p50)
	}
	if p99 := h.Quantile(0.99); math.Abs(p99-1.0) > 0.05 {
		t.Fatalf("p99 = %v, want ≈1s", p99)
	}
	// Out-of-range observations clamp to the edge buckets.
	h2 := NewLogHist()
	h2.Add(1e-9)
	h2.Add(1e9)
	if h2.Quantile(0) <= 0 || h2.Quantile(1) < 999 {
		t.Fatalf("edge quantiles = %v, %v", h2.Quantile(0), h2.Quantile(1))
	}
	// Insertion order never matters: counts commute.
	a, b := NewLogHist(), NewLogHist()
	vals := []float64{0.5, 0.01, 0.2, 0.01, 3}
	for i, v := range vals {
		a.Add(v)
		b.Add(vals[len(vals)-1-i])
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("order-dependent quantile at q=%g", q)
		}
	}
	// Empty and nil are zero.
	var nilH *LogHist
	if nilH.Quantile(0.99) != 0 || NewLogHist().QuantileDuration(0.5) != 0 {
		t.Fatal("empty/nil quantile not zero")
	}
}

// TestLogHistValue pins the bucket geometry through the quantiles of a fixed
// input (any change to the bucket count, range or interpolation moves them)
// and checks that a histogram is a value: the zero value is empty, and a
// copy keeps its counts when the original moves on.
func TestLogHistValue(t *testing.T) {
	var h LogHist
	for i := 1; i <= 1000; i++ {
		h.Add(200e-6 * math.Pow(float64(i), 1.5)) // 0.2 ms .. 6.3 s
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 2.241538652196803}, {0.99, 6.234777208973017}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("q%g = %v, want %v", c.q, got, c.want)
		}
	}
	snap := h
	for i := 0; i < 1000; i++ {
		h.Add(100)
	}
	if snap.N() != 1000 || snap.Quantile(0.99) != 6.234777208973017 {
		t.Errorf("copy shares the original's buckets: N %d, q0.99 %v", snap.N(), snap.Quantile(0.99))
	}
	if h.N() != 2000 || h.Quantile(0.99) < 99 {
		t.Errorf("original lost its adds: N %d, q0.99 %v", h.N(), h.Quantile(0.99))
	}
	var zero LogHist
	if zero.N() != 0 || zero.Quantile(0.5) != 0 || zero.Sum() != 0 {
		t.Error("zero LogHist not empty")
	}
}
