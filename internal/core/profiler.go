package core

import (
	"math"
	"time"
)

// The profiler's paper defaults (§5.1): a zero ProfilerConfig field (and a
// zero Config field) takes these.
const (
	defaultTimeoutPercentile  = 0.75 // P75 classifies fast/slow
	defaultFallbackPercentile = 0.90 // P90 once too many samples classify slow
	defaultMaxSlowFraction    = 0.40 // the slow fraction that triggers the fallback
	defaultWarmupSamples      = 48   // optimistic phase length
)

// ProfilerConfig controls the timeout profiler (§4.2).
type ProfilerConfig struct {
	TimeoutPercentile  float64 // default defaultTimeoutPercentile
	FallbackPercentile float64 // default defaultFallbackPercentile
	MaxSlowFraction    float64 // fallback trigger, default defaultMaxSlowFraction
	WarmupSamples      int     // optimistic phase length, default defaultWarmupSamples
	WindowSize         int     // sliding window for continuous re-profiling
	RecomputeEvery     int     // records between threshold recomputations
}

// Profiler maintains the fast/slow classification timeout. During warmup
// every sample is optimistically assumed fast (Timeout returns "infinite");
// once enough preprocessing times have been observed, the timeout is the
// configured percentile over a sliding window, recomputed continuously so
// the threshold tracks workload drift. If the observed slow-classification
// rate exceeds MaxSlowFraction (a skewed distribution), the profiler falls
// back to the higher percentile (§4.2).
//
// A Profiler has no lock: it belongs to its loader's tasks, of which one runs
// at a time (see simtime's ownership rule).
type Profiler struct {
	cfg ProfilerConfig

	// The sliding window is kept as a histogram over log-spaced buckets:
	// ring holds the bucket of each windowed record, counts the per-bucket
	// population. Recording is O(1) (one bucket in, one out) and a
	// percentile is one O(buckets) walk — no copy, no sort, no allocation,
	// unlike the previous sort of the full window every RecomputeEvery
	// records. Bucket resolution bounds the percentile error to under ~2%
	// relative, tightened further by linear interpolation inside a bucket.
	ring    []uint16           // bucket index per windowed record
	counts  [histBuckets]int32 // histogram over the live window
	n       int                // live records (≤ WindowSize)
	idx     int
	records int

	classifiedSlow  int64
	classifiedTotal int64
	fellBack        bool

	timeout time.Duration
}

// Histogram geometry: log-spaced buckets covering 100µs .. ~1000s of
// per-sample preprocessing time, clamped at both ends.
const (
	histBuckets = 1024
	histMinSec  = 100e-6
	histMaxSec  = 1000.0
)

var (
	histPerOctave = float64(histBuckets) / math.Log2(histMaxSec/histMinSec)
	// histBounds[i] is the lower bound of bucket i; histBounds[histBuckets]
	// closes the last bucket.
	histBounds = func() [histBuckets + 1]float64 {
		var b [histBuckets + 1]float64
		for i := range b {
			b[i] = histMinSec * math.Exp2(float64(i)/histPerOctave)
		}
		return b
	}()
)

func histBucket(sec float64) int {
	if sec <= histMinSec {
		return 0
	}
	b := int(math.Log2(sec/histMinSec) * histPerOctave)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// NewProfiler returns a profiler with defaults filled in.
func NewProfiler(cfg ProfilerConfig) *Profiler {
	p := new(Profiler)
	p.init(cfg)
	return p
}

// init readies a profiler embedded in its loader, a zero one or one a
// recycled loader carries (which keeps its window): what NewProfiler does
// for one of its own.
func (p *Profiler) init(cfg ProfilerConfig) {
	if cfg.TimeoutPercentile <= 0 {
		cfg.TimeoutPercentile = defaultTimeoutPercentile
	}
	if cfg.FallbackPercentile <= 0 {
		cfg.FallbackPercentile = defaultFallbackPercentile
	}
	if cfg.MaxSlowFraction <= 0 {
		cfg.MaxSlowFraction = defaultMaxSlowFraction
	}
	if cfg.WarmupSamples <= 0 {
		cfg.WarmupSamples = defaultWarmupSamples
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 2048
	}
	if cfg.RecomputeEvery <= 0 {
		cfg.RecomputeEvery = 32
	}
	ring := p.ring
	if len(ring) == cfg.WindowSize {
		clear(ring)
	} else {
		ring = make([]uint16, cfg.WindowSize)
	}
	// Zeroed in place, then filled: a composite literal would be built on
	// the stack first, counts array and all.
	*p = Profiler{}
	p.cfg, p.ring, p.timeout = cfg, ring, math.MaxInt64
}

// Record adds one observed total preprocessing time: one bucket increment,
// and one decrement for the record sliding out of the window.
func (p *Profiler) Record(cost time.Duration) {
	b := uint16(histBucket(cost.Seconds()))
	if p.n < p.cfg.WindowSize {
		p.ring[p.n] = b
		p.n++
	} else {
		p.counts[p.ring[p.idx]]--
		p.ring[p.idx] = b
		p.idx = (p.idx + 1) % p.cfg.WindowSize
	}
	p.counts[b]++
	p.records++
	if p.records >= p.cfg.WarmupSamples && p.records%p.cfg.RecomputeEvery == 0 {
		p.recompute()
	} else if p.records == p.cfg.WarmupSamples {
		p.recompute()
	}
}

// Classified records a fast/slow classification outcome, feeding the
// fallback trigger.
func (p *Profiler) Classified(slow bool) {
	p.classifiedTotal++
	if slow {
		p.classifiedSlow++
	}
	if !p.fellBack && p.classifiedTotal >= 64 {
		frac := float64(p.classifiedSlow) / float64(p.classifiedTotal)
		if frac > p.cfg.MaxSlowFraction {
			p.fellBack = true
			p.recompute()
		}
	}
}

func (p *Profiler) recompute() {
	if p.n == 0 {
		return
	}
	pct := p.cfg.TimeoutPercentile
	if p.fellBack {
		pct = p.cfg.FallbackPercentile
	}
	// Walk the histogram to the bucket containing the fractional rank, then
	// interpolate linearly inside it.
	rank := pct * float64(p.n-1)
	cum := 0
	v := histBounds[histBuckets]
	for b, c := range &p.counts { // by pointer: a copy would put the array on the stack
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c)-1 >= rank {
			within := (rank - float64(cum) + 0.5) / float64(c)
			if within < 0 {
				within = 0
			}
			if within > 1 {
				within = 1
			}
			v = histBounds[b] + (histBounds[b+1]-histBounds[b])*within
			break
		}
		cum += int(c)
	}
	p.timeout = time.Duration(v * float64(time.Second))
}

// Timeout returns the current classification budget. Before warmup
// completes it is effectively infinite: all samples are optimistically
// fast (§4.2).
func (p *Profiler) Timeout() time.Duration { return p.timeout }

// WarmupDone reports whether the optimistic phase has ended.
func (p *Profiler) WarmupDone() bool { return p.records >= p.cfg.WarmupSamples }

// FellBack reports whether the fallback percentile is active.
func (p *Profiler) FellBack() bool { return p.fellBack }

// SlowFraction returns the observed slow-classification rate.
func (p *Profiler) SlowFraction() float64 {
	if p.classifiedTotal == 0 {
		return 0
	}
	return float64(p.classifiedSlow) / float64(p.classifiedTotal)
}
