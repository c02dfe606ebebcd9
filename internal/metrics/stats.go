package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Welford accumulates count, mean, variance, min and max in one pass.
// The zero value is ready to use.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Std returns the population standard deviation (0 for n < 2).
func (w *Welford) Std() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n))
}

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// Percentiles stores observations for exact quantile queries. It keeps every
// value; callers bound the number of observations themselves (profiling runs
// are at most a few hundred thousand samples).
type Percentiles struct {
	vals   []float64
	sorted bool
}

// Add incorporates x.
func (p *Percentiles) Add(x float64) {
	p.vals = append(p.vals, x)
	p.sorted = false
}

// N returns the number of observations.
func (p *Percentiles) N() int { return len(p.vals) }

// Quantile returns the q-th quantile (q in [0,1]) using linear
// interpolation. It returns 0 when empty.
func (p *Percentiles) Quantile(q float64) float64 {
	if len(p.vals) == 0 {
		return 0
	}
	if !p.sorted {
		sort.Float64s(p.vals)
		p.sorted = true
	}
	if q <= 0 {
		return p.vals[0]
	}
	if q >= 1 {
		return p.vals[len(p.vals)-1]
	}
	pos := q * float64(len(p.vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return p.vals[lo]
	}
	frac := pos - float64(lo)
	return p.vals[lo]*(1-frac) + p.vals[hi]*frac
}

// Summary is a Table 2 style row: preprocessing time statistics.
type Summary struct {
	N                  int
	Avg, Med, P75, P90 float64
	Min, Max, Std      float64
}

// Summarize computes a Summary from raw observations.
func Summarize(vals []float64) Summary {
	var w Welford
	var p Percentiles
	for _, v := range vals {
		w.Add(v)
		p.Add(v)
	}
	return Summary{
		N:   len(vals),
		Avg: w.Mean(), Med: p.Quantile(0.5), P75: p.Quantile(0.75), P90: p.Quantile(0.90),
		Min: w.Min(), Max: w.Max(), Std: w.Std(),
	}
}

// String formats the summary in the paper's Table 2 layout (values assumed
// to be milliseconds).
func (s Summary) String() string {
	return fmt.Sprintf("avg=%.0f med=%.0f p75=%.0f p90=%.0f min-max-std=%.0f–%.0f–%.0f",
		s.Avg, s.Med, s.P75, s.P90, s.Min, s.Max, s.Std)
}

// LogHist is a log-bucketed latency histogram: fixed memory, O(1) inserts,
// and quantiles with bounded relative error — the same bucket geometry the
// loader profiler uses for its per-sample cost window, reused here for SLO
// metrics (p99 step time under churn). Counts commute, so concurrent
// writers adding under a caller-held lock — or a deterministic schedule —
// produce identical quantiles regardless of insertion order.
//
// The zero value is an empty histogram, and the counts are an array held by
// value: an owner embeds its histograms without a separate allocation, and
// a copy is a snapshot that shares nothing with the original.
type LogHist struct {
	counts [logHistBuckets]int64
	n      int64
	sum    float64
}

// Bucket geometry: logHistBuckets spanning [logHistMin, logHistMax]
// seconds. 100µs..1000s over 1024 buckets gives ~1.6% relative spacing.
const (
	logHistBuckets = 1024
	logHistMin     = 100e-6
	logHistMax     = 1000.0
)

// NewLogHist returns an empty histogram.
func NewLogHist() *LogHist { return new(LogHist) }

// logHistBucket maps a duration in seconds to its bucket index.
func logHistBucket(sec float64) int {
	if sec <= logHistMin {
		return 0
	}
	if sec >= logHistMax {
		return logHistBuckets - 1
	}
	frac := math.Log(sec/logHistMin) / math.Log(logHistMax/logHistMin)
	b := int(frac * (logHistBuckets - 1))
	if b < 0 {
		b = 0
	}
	if b >= logHistBuckets {
		b = logHistBuckets - 1
	}
	return b
}

// logHistValue returns the representative (lower-edge) value of bucket b.
func logHistValue(b int) float64 {
	frac := float64(b) / (logHistBuckets - 1)
	return logHistMin * math.Pow(logHistMax/logHistMin, frac)
}

// Add records one observation (a duration in seconds).
func (h *LogHist) Add(sec float64) {
	h.counts[logHistBucket(sec)]++
	h.n++
	h.sum += sec
}

// AddDuration records one observation.
func (h *LogHist) AddDuration(d time.Duration) { h.Add(d.Seconds()) }

// N returns the number of observations.
func (h *LogHist) N() int64 { return h.n }

// Sum returns the total of all observations in seconds.
func (h *LogHist) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// ForEachBucket calls fn for every non-empty bucket, in bucket order, with
// the bucket's upper-edge value in seconds and its (non-cumulative) count.
// Exporters (e.g. the Prometheus text format) build their cumulative view
// from this.
func (h *LogHist) ForEachBucket(fn func(upper float64, count int64)) {
	if h == nil {
		return
	}
	for b, c := range &h.counts { // by pointer: a copy would put 8 KiB on the stack
		if c == 0 {
			continue
		}
		fn(logHistValue(b+1), c)
	}
}

// Quantile returns the q-th quantile (q in [0,1]) in seconds,
// interpolating within the landing bucket. It returns 0 when empty.
func (h *LogHist) Quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	cum := 0.0
	for b, c := range &h.counts { // by pointer: a copy would put 8 KiB on the stack
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := logHistValue(b), logHistValue(b+1)
			if b == logHistBuckets-1 {
				hi = lo
			}
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return logHistValue(logHistBuckets - 1)
}

// QuantileDuration is Quantile as a time.Duration.
func (h *LogHist) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(time.Second))
}

// EWMA is an exponentially weighted moving average. The zero value with a
// zero alpha is invalid; use NewEWMA.
type EWMA struct {
	alpha float64
	v     float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("metrics: EWMA alpha must be in (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Update incorporates x and returns the new value.
func (e *EWMA) Update(x float64) float64 {
	if !e.init {
		e.v = x
		e.init = true
	} else {
		e.v = e.alpha*x + (1-e.alpha)*e.v
	}
	return e.v
}

// Value returns the current average (0 before the first update).
func (e *EWMA) Value() float64 { return e.v }

// Point is one sample of a time series.
type Point struct {
	T time.Duration
	V float64
}

// TimeSeries records (time, value) points, e.g. GPU utilization over a run.
type TimeSeries struct {
	Name   string
	Points []Point
}

// Append adds a point.
func (ts *TimeSeries) Append(t time.Duration, v float64) {
	ts.Points = append(ts.Points, Point{T: t, V: v})
}

// Mean returns the unweighted mean of the recorded values.
func (ts *TimeSeries) Mean() float64 {
	if len(ts.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range ts.Points {
		sum += p.V
	}
	return sum / float64(len(ts.Points))
}

// Max returns the largest recorded value (0 when empty).
func (ts *TimeSeries) Max() float64 {
	m := 0.0
	for i, p := range ts.Points {
		if i == 0 || p.V > m {
			m = p.V
		}
	}
	return m
}
