package transform

import (
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/metrics"
)

// Table 2 of the paper, in milliseconds.
var table2 = map[string]metrics.Summary{
	"obj-det":    {Avg: 31, Med: 28, P75: 30, P90: 35, Min: 11, Max: 176, Std: 19},
	"img-seg":    {Avg: 500, Med: 470, P75: 630, P90: 750, Min: 10, Max: 2230, Std: 197},
	"speech-3s":  {Avg: 998, Med: 508, P75: 509, P90: 3008, Min: 502, Max: 3017, Std: 992},
	"speech-10s": {Avg: 2351, Med: 508, P75: 509, P90: 10008, Min: 502, Max: 10014, Std: 3757},
}

func sampleCosts(t *testing.T, ds dataset.Dataset, p *Pipeline, n int) metrics.Summary {
	t.Helper()
	if n > ds.Len() {
		n = ds.Len()
	}
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		s := ds.Sample(0, i)
		vals = append(vals, float64(p.TotalCost(s))/float64(time.Millisecond))
	}
	return metrics.Summarize(vals)
}

func within(t *testing.T, name, stat string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		return
	}
	rel := (got - want) / want
	if rel < -tol || rel > tol {
		t.Errorf("%s %s = %.1f, want %.1f ±%.0f%%", name, stat, got, want, tol*100)
	}
}

// TestCalibrationAgainstTable2 checks that the synthetic cost models
// reproduce the paper's per-sample preprocessing time distributions.
// Tolerances are loose: the goal is the *shape* (who is slow, how heavy the
// tail is), not exact numbers.
func TestCalibrationAgainstTable2(t *testing.T) {
	const seed = 1

	cases := []struct {
		name string
		sum  metrics.Summary
	}{
		{"img-seg", sampleCosts(t, dataset.NewKiTS19(seed), ImageSegmentationPipeline(), 210)},
		{"obj-det", sampleCosts(t, dataset.NewCOCO(seed), ObjectDetectionPipeline(), 20000)},
		{"speech-3s", sampleCosts(t, dataset.NewLibriSpeech(seed, 5), SpeechPipeline(3*time.Second), 20000)},
		{"speech-10s", sampleCosts(t, dataset.NewLibriSpeech(seed, 5), SpeechPipeline(10*time.Second), 20000)},
	}

	for _, c := range cases {
		want := table2[c.name]
		got := c.sum
		t.Logf("%-10s got: %s", c.name, got)
		t.Logf("%-10s want: %s", c.name, want)
		within(t, c.name, "avg", got.Avg, want.Avg, 0.20)
		within(t, c.name, "med", got.Med, want.Med, 0.20)
		within(t, c.name, "p75", got.P75, want.P75, 0.25)
		within(t, c.name, "p90", got.P90, want.P90, 0.30)
		within(t, c.name, "std", got.Std, want.Std, 0.45)
		if got.Min > want.Min*3 {
			t.Errorf("%s min = %.1f, want ≲%.1f", c.name, got.Min, want.Min*3)
		}
		if got.Max < want.Max*0.5 || got.Max > want.Max*1.5 {
			t.Errorf("%s max = %.1f, want ≈%.1f", c.name, got.Max, want.Max)
		}
	}
}

// TestSizeCorrelationMatchesPaper pins §3.2: size predicts cost for image
// segmentation but not for object detection.
func TestSizeCorrelationMatchesPaper(t *testing.T) {
	corr := func(ds dataset.Dataset, p *Pipeline, n int) float64 {
		var sx, sy, sxx, syy, sxy float64
		for i := 0; i < n; i++ {
			s := ds.Sample(0, i)
			x := float64(s.RawBytes)
			y := float64(p.TotalCost(s))
			sx += x
			sy += y
			sxx += x * x
			syy += y * y
			sxy += x * y
		}
		nf := float64(n)
		cov := sxy/nf - (sx/nf)*(sy/nf)
		vx := sxx/nf - (sx/nf)*(sx/nf)
		vy := syy/nf - (sy/nf)*(sy/nf)
		if vx <= 0 || vy <= 0 {
			return 0
		}
		return cov / (sqrt(vx) * sqrt(vy))
	}

	if r := corr(dataset.NewKiTS19(1), ImageSegmentationPipeline(), 210); r < 0.55 {
		t.Errorf("img-seg size↔cost correlation = %.2f, want strong (>0.55)", r)
	}
	if r := corr(dataset.NewCOCO(1), ObjectDetectionPipeline(), 5000); r > 0.25 {
		t.Errorf("obj-det size↔cost correlation = %.2f, want weak (<0.25)", r)
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// TestProcessedSizesMatchPaper pins §2.2's post-preprocessing sizes.
func TestProcessedSizesMatchPaper(t *testing.T) {
	apply := func(ds dataset.Dataset, p *Pipeline, n int) (minMB, avgMB, maxMB float64) {
		var w metrics.Welford
		for i := 0; i < n; i++ {
			s := ds.Sample(0, i)
			c := s.Clone()
			for _, tr := range p.Transforms() {
				c.Bytes = int64(float64(c.Bytes) * tr.SizeFactor(c))
			}
			w.Add(float64(c.Bytes) / (1 << 20))
		}
		return w.Min(), w.Mean(), w.Max()
	}

	// Image segmentation: all samples standardized to 10 MB.
	mn, av, mx := apply(dataset.NewKiTS19(1), ImageSegmentationPipeline(), 210)
	if mn < 9.9 || mx > 10.1 {
		t.Errorf("img-seg processed sizes = [%.1f, %.1f] MB, want 10 MB uniform", mn, mx)
	}

	// Object detection: ≈4–12 MB, average ≈7 MB.
	mn, av, mx = apply(dataset.NewCOCO(1), ObjectDetectionPipeline(), 5000)
	if av < 4 || av > 10 {
		t.Errorf("obj-det processed avg = %.1f MB, want ≈7", av)
	}
	if mn < 0.5 || mx > 16 {
		t.Errorf("obj-det processed range = [%.1f, %.1f] MB", mn, mx)
	}

	// Speech: ≈0.4–9 MB, average ≈4 MB.
	mn, av, mx = apply(dataset.NewLibriSpeech(1, 5), SpeechPipeline(3*time.Second), 5000)
	if av < 2.5 || av > 6 {
		t.Errorf("speech processed avg = %.1f MB, want ≈4", av)
	}
	if mx > 11 {
		t.Errorf("speech processed max = %.1f MB, want ≲9", mx)
	}
	_ = mn
}
