package trainer_test

import (
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader/dali"
	"github.com/minatoloader/minato/internal/loader/pytorch"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

// smallSpeech is a scaled-down Speech-3s: enough iterations to exercise
// warmup, classification, and adaptive scaling, small enough for unit tests.
func smallSpeech(iters int) workload.Workload {
	w := workload.Speech(1, 3*time.Second)
	w.Dataset = dataset.Subset(w.Dataset, 2000)
	return w.WithIterations(iters)
}

func smallImgSeg(epochs int) workload.Workload {
	return workload.ImageSegmentation(1).WithEpochs(epochs)
}

func testbedA(gpus int) hardware.Config {
	return hardware.ConfigA().WithGPUs(gpus)
}

func TestPyTorchDeliversBudget(t *testing.T) {
	w := smallSpeech(20)
	rep, err := trainer.Simulate(testbedA(2), w, loaders.PyTorch(pytorch.DefaultConfig()), trainer.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 20 {
		t.Fatalf("batches = %d, want 20", rep.Batches)
	}
	if rep.Samples != 20*24 {
		t.Fatalf("samples = %d", rep.Samples)
	}
	if rep.TrainTime <= 0 {
		t.Fatal("zero train time")
	}
}

func TestMinatoDeliversBudget(t *testing.T) {
	w := smallSpeech(20)
	rep, err := trainer.Simulate(testbedA(2), w, loaders.Minato(core.DefaultConfig()), trainer.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 20 {
		t.Fatalf("batches = %d, want 20", rep.Batches)
	}
}

func TestDALIDeliversBudget(t *testing.T) {
	w := smallSpeech(20)
	rep, err := trainer.Simulate(testbedA(2), w, loaders.DALI(dali.DefaultConfig()), trainer.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 20 {
		t.Fatalf("batches = %d, want 20", rep.Batches)
	}
}

func TestPecanDeliversBudget(t *testing.T) {
	w := smallSpeech(20)
	rep, err := trainer.Simulate(testbedA(2), w, loaders.Pecan(), trainer.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 20 {
		t.Fatalf("batches = %d, want 20", rep.Batches)
	}
}

func TestEpochBasedBudget(t *testing.T) {
	w := smallImgSeg(2) // 2 epochs × 70 batches
	rep, err := trainer.Simulate(testbedA(2), w, loaders.Minato(core.DefaultConfig()), trainer.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * 70); rep.Batches != want {
		t.Fatalf("batches = %d, want %d", rep.Batches, want)
	}
}

// TestMinatoFasterThanPyTorchOnSpeech is the headline claim at unit-test
// scale: with heavy per-sample variability, MinatoLoader beats the PyTorch
// DataLoader substantially.
func TestMinatoFasterThanPyTorchOnSpeech(t *testing.T) {
	w := smallSpeech(60)
	pt, err := trainer.Simulate(testbedA(2), w, loaders.PyTorch(pytorch.DefaultConfig()), trainer.Params{})
	if err != nil {
		t.Fatal(err)
	}
	mn, err := trainer.Simulate(testbedA(2), w, loaders.Minato(core.DefaultConfig()), trainer.Params{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := pt.TrainTime.Seconds() / mn.TrainTime.Seconds()
	t.Logf("pytorch=%.1fs minato=%.1fs speedup=%.2fx (pytorch GPU %.0f%%, minato GPU %.0f%%)",
		pt.TrainTime.Seconds(), mn.TrainTime.Seconds(), speedup, pt.AvgGPUUtil, mn.AvgGPUUtil)
	if speedup < 1.5 {
		t.Fatalf("speedup = %.2fx, want > 1.5x", speedup)
	}
	if mn.AvgGPUUtil <= pt.AvgGPUUtil {
		t.Fatalf("minato GPU util %.0f%% not above pytorch %.0f%%", mn.AvgGPUUtil, pt.AvgGPUUtil)
	}
}

func TestMetricsSeriesCollected(t *testing.T) {
	w := smallSpeech(20)
	rep, err := trainer.Simulate(testbedA(2), w, loaders.Minato(core.DefaultConfig()),
		trainer.Params{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu", "gpu", "disk", "throughput", "minato_workers"} {
		ts, ok := rep.Series[name]
		if !ok || len(ts.Points) == 0 {
			t.Fatalf("series %q missing or empty", name)
		}
	}
}

func TestCompositionTracked(t *testing.T) {
	w := smallSpeech(30)
	rep, err := trainer.Simulate(testbedA(2), w, loaders.Minato(core.DefaultConfig()),
		trainer.Params{TrackComposition: true})
	if err != nil {
		t.Fatal(err)
	}
	var hist int64
	for _, n := range rep.SlowHist {
		hist += n
	}
	if hist != rep.Batches {
		t.Fatalf("histogram covers %d batches, want %d", hist, rep.Batches)
	}
	// Speech-3s: 20% of samples are heavy; batches should reflect that on
	// average without deferring slow samples to the end (§5.6).
	if got := rep.AvgSlowProportion(); got < 0.10 || got > 0.35 {
		t.Fatalf("avg slow proportion = %.2f, want ≈0.2", got)
	}
	// One accuracy point every 10 of the 30 iterations.
	if len(rep.AccCurve) != 3 {
		t.Fatalf("%d accuracy points, want 3", len(rep.AccCurve))
	}
}

func TestSampleTraceRecorded(t *testing.T) {
	w := smallSpeech(10)
	rep, err := trainer.Simulate(testbedA(2), w, loaders.Minato(core.DefaultConfig()),
		trainer.Params{TraceSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rep.SampleTraces)) != rep.Samples {
		t.Fatalf("trace has %d entries, want %d", len(rep.SampleTraces), rep.Samples)
	}
	for _, tr := range rep.SampleTraces {
		if tr.PreprocEnd < tr.PreprocStart {
			t.Fatalf("negative preprocessing window: %+v", tr)
		}
		if tr.TrainedAt < tr.PreprocEnd {
			t.Fatalf("sample trained before preprocessing finished: %+v", tr)
		}
		if tr.PreprocCost <= 0 {
			t.Fatalf("zero preprocessing cost: %+v", tr)
		}
	}
	dir := t.TempDir()
	if err := rep.WriteTraceCSV(dir, "trace"); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	w := smallSpeech(15)
	a, err := trainer.Simulate(testbedA(2), w, loaders.PyTorch(pytorch.DefaultConfig()), trainer.Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := trainer.Simulate(testbedA(2), w, loaders.PyTorch(pytorch.DefaultConfig()), trainer.Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Virtual time makes results time-accurate; scheduling jitter at equal
	// timestamps allows small variation, but totals must match and times
	// must be close.
	if a.Batches != b.Batches || a.Samples != b.Samples {
		t.Fatalf("run totals differ: %+v vs %+v", a, b)
	}
	ratio := a.TrainTime.Seconds() / b.TrainTime.Seconds()
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("train times differ by >5%%: %v vs %v", a.TrainTime, b.TrainTime)
	}
}
