// Package workload defines the paper's four evaluation workloads: image
// segmentation (KiTS19 → 3D-UNet), object detection (COCO → Mask R-CNN),
// and speech recognition (LibriSpeech → RNN-T) in its Speech-3s and
// Speech-10s variants. Each workload bundles the dataset, the Table 1
// preprocessing pipeline, the Table 3 training configuration, a calibrated
// per-batch GPU step cost, and an accuracy-convergence model (§5.6).
//
// GPU step costs are A100-normalized and calibrated so the PyTorch
// DataLoader baseline reproduces the paper's utilization levels (≈46–64%)
// while MinatoLoader reaches ≈90% — see DESIGN.md, "Calibration notes".
package workload

import (
	"math"
	"time"

	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/dist"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/transform"
)

// Workload is one end-to-end training task.
type Workload struct {
	Name  string
	Model string

	Dataset  dataset.Dataset
	Pipeline *transform.Pipeline

	// Table 3 training configuration.
	BatchSize  int
	Epochs     int
	Iterations int

	// GPUStep is the A100-normalized training compute per batch.
	GPUStep time.Duration
	// ValidationTime is per-epoch-end GPU work (model validation), visible
	// as the periodic dips of Fig 10.
	ValidationTime time.Duration

	// Accuracy model (§5.6): accuracy(iter) ≈ AccFinal·(1−e^(−iter/AccTau)).
	AccMetric string
	AccFinal  float64
	AccTau    float64

	Seed uint64
}

// Spec converts the workload into a loader spec.
func (w Workload) Spec() loader.Spec {
	return loader.Spec{
		Dataset:    w.Dataset,
		Pipeline:   w.Pipeline,
		BatchSize:  w.BatchSize,
		Epochs:     w.Epochs,
		Iterations: w.Iterations,
		Seed:       w.Seed,
	}
}

// Accuracy returns the modelled accuracy after iter training iterations,
// with small seeded noise. The curve is a property of iterations alone —
// all loaders train on statistically equivalent batches (§5.6), so
// loaders differ only in how fast they move along it.
func (w Workload) Accuracy(iter int64) float64 {
	base := w.AccFinal * (1 - exp(-float64(iter)/w.AccTau))
	noise := (dist.Uniform(w.Seed, 77, uint64(iter)) - 0.5) * 0.04 * w.AccFinal
	v := base + noise
	if v < 0 {
		v = 0
	}
	return v
}

func exp(x float64) float64 { return math.Exp(x) }

// SlowThreshold computes the preprocessing-cost threshold separating slow
// from fast samples for composition analysis (Fig 11): the same percentile
// MinatoLoader's profiler targets, computed offline over the dataset.
func (w Workload) SlowThreshold(percentile float64) time.Duration {
	n := w.Dataset.Len()
	if n > 2000 {
		n = 2000
	}
	var p metrics.Percentiles
	for i := 0; i < n; i++ {
		s := w.Dataset.Sample(0, i)
		p.Add(w.Pipeline.TotalCost(s).Seconds())
	}
	return time.Duration(p.Quantile(percentile) * float64(time.Second))
}

// ImageSegmentation returns the 3D-UNet workload (Table 3: 50 epochs,
// batch size 3).
func ImageSegmentation(seed uint64) Workload {
	return Workload{
		Name: "img-seg", Model: "3D-UNet",
		Dataset:   dataset.NewKiTS19(seed),
		Pipeline:  transform.ImageSegmentationPipeline(),
		BatchSize: 3, Epochs: 50,
		GPUStep:        200 * time.Millisecond,
		ValidationTime: time.Second,
		AccMetric:      "Mean Dice", AccFinal: 0.58, AccTau: 6000,
		Seed: seed,
	}
}

// ObjectDetection returns the Mask R-CNN workload (Table 3: 1000
// iterations, batch size 48).
func ObjectDetection(seed uint64) Workload {
	return Workload{
		Name: "obj-det", Model: "Mask R-CNN",
		Dataset:   dataset.NewCOCO(seed),
		Pipeline:  transform.ObjectDetectionPipeline(),
		BatchSize: 48, Iterations: 1000,
		GPUStep:   250 * time.Millisecond,
		AccMetric: "bbox_mAP", AccFinal: 0.06, AccTau: 15000,
		Seed: seed,
	}
}

// Speech returns the RNN-T workload (Table 3: 1000 iterations, batch size
// 24) with the given nominal HeavyStep duration (3s or 10s), applied to
// every 5th sample (§2.2).
func Speech(seed uint64, heavy time.Duration) Workload {
	name := "speech-3s"
	if heavy >= 10*time.Second {
		name = "speech-10s"
	}
	return Workload{
		Name: name, Model: "RNN-T",
		Dataset:   dataset.NewLibriSpeech(seed, 5),
		Pipeline:  transform.SpeechPipeline(heavy),
		BatchSize: 24, Iterations: 1000,
		GPUStep:   1200 * time.Millisecond,
		AccMetric: "WER", AccFinal: 0.85, AccTau: 20000,
		Seed: seed,
	}
}

// SpeechSlowFraction returns the Fig 12 variant of Speech-3s: HeavyStep
// applies to a pseudo-random fraction of the dataset instead of every 5th
// sample.
func SpeechSlowFraction(seed uint64, fraction float64) Workload {
	w := Speech(seed, 3*time.Second)
	w.Name = "speech-frac"
	w.Dataset = dataset.NewLibriSpeechFraction(seed, fraction)
	return w
}

// All returns the paper's four workloads in evaluation order.
func All(seed uint64) []Workload {
	return []Workload{
		ImageSegmentation(seed),
		ObjectDetection(seed),
		Speech(seed, 3*time.Second),
		Speech(seed, 10*time.Second),
	}
}

// WithEpochs returns a copy running the given number of epochs
// (iteration budget cleared).
func (w Workload) WithEpochs(n int) Workload {
	w.Epochs, w.Iterations = n, 0
	return w
}

// WithIterations returns a copy running the given number of iterations.
func (w Workload) WithIterations(n int) Workload {
	w.Iterations = n
	return w
}

// WithDataset returns a copy using a different dataset (e.g. the
// replicated 230 GB KiTS19 of §5.5).
func (w Workload) WithDataset(d dataset.Dataset) Workload {
	w.Dataset = d
	return w
}

// Table1Row describes a workload's pipeline for the descriptive tables.
func (w Workload) Table1Row() []string {
	names := make([]string, 0, w.Pipeline.Len())
	for _, t := range w.Pipeline.Transforms() {
		names = append(names, t.Name())
	}
	return names
}

// PairedModalities reports whether samples carry paired data (audio–text)
// that must stay together under reordering (§6).
func (w Workload) PairedModalities() bool {
	if w.Dataset.Len() == 0 {
		return false
	}
	return !w.Dataset.Sample(0, 0).Pair.IsZero()
}
