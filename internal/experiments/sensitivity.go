package experiments

import (
	"fmt"

	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

func init() {
	register("fig11a", "Accuracy preservation and time-to-accuracy (Fig 11a)", runFig11a)
	register("fig11b", "Distribution of batches by slow-sample count (Fig 11b)", runFig11b)
	register("fig11c", "Proportion of slow samples over iterations (Fig 11c)", runFig11c)
	register("fig12", "Training time vs proportion of slow samples (Fig 12)", runFig12)
}

func runFig11a(o Options) (*Result, error) {
	// The paper trains Mask R-CNN for 45,000 iterations (≈14 h) and
	// 3D-UNet for 500 epochs. We run a 10×-scaled version (identical
	// curve, scaled convergence constant) — the claim under test is that
	// both loaders traverse the same accuracy-vs-iteration curve while
	// MinatoLoader reaches any accuracy level sooner in wall time.
	scale := 10
	if o.Quick {
		scale = 100
	}
	cfg := hardware.ConfigA()

	obj := workload.ObjectDetection(o.seed()).WithIterations(45000 / scale)
	obj.AccTau /= float64(scale)
	img := workload.ImageSegmentation(o.seed()).WithEpochs(500 / scale)
	img.AccTau /= float64(scale)

	t := Table{
		Title:  "Accuracy preservation (10×-scaled runs)",
		File:   "fig11a_summary",
		Header: []string{"workload", "loader", "final_acc", "train_s", "time_to_90pct_acc_s"},
	}
	var curves []Table
	for _, w := range []workload.Workload{obj, img} {
		for _, name := range []string{"pytorch", "minato"} {
			f, _ := loaders.ByName(name)
			rep, err := trainer.Simulate(cfg, w, f,
				trainer.Params{TrackComposition: true})
			if err != nil {
				return nil, fmt.Errorf("fig11a %s/%s: %w", w.Name, name, err)
			}
			final := 0.0
			tto := 0.0
			if n := len(rep.AccCurve); n > 0 {
				final = rep.AccCurve[n-1].Accuracy
				target := 0.9 * w.AccFinal
				for _, pt := range rep.AccCurve {
					if pt.Accuracy >= target {
						tto = pt.Elapsed.Seconds()
						break
					}
				}
			}
			t.Rows = append(t.Rows, []string{w.Name, name,
				fixed(final, 3), seconds(rep.TrainTime), fixed(tto, 1)})
			curve := Table{File: fmt.Sprintf("fig11a_%s_%s", w.Name, name),
				Header: []string{"iter", "elapsed_s", "accuracy"}}
			for _, pt := range rep.AccCurve {
				curve.Rows = append(curve.Rows, []string{fmt.Sprint(pt.Iter),
					fixed(pt.Elapsed.Seconds(), 1), fixed(pt.Accuracy, 4)})
			}
			curves = append(curves, curve)
		}
	}
	return &Result{ID: "fig11a", Title: "Fig 11a", Tables: []Table{t}, Curves: curves,
		Notes: []string{
			"both loaders reach the same final accuracy; MinatoLoader gets there faster in wall time",
			"paper: Mask R-CNN 5h12m vs 13h55m; 3D-UNet 3h52m vs 8h02m on the authors' testbed",
		}}, nil
}

// fig11Workloads builds the batch-size-4 variants used by Fig 11b/c.
func fig11Workloads(o Options) []workload.Workload {
	obj := workload.ObjectDetection(o.seed())
	obj.BatchSize = 4
	obj.Iterations = 1500
	img := workload.ImageSegmentation(o.seed())
	img.BatchSize = 4
	img.Epochs = 20
	if o.Quick {
		obj.Iterations = 300
		img.Epochs = 5
	}
	return []workload.Workload{obj, img}
}

func runFig11b(o Options) (*Result, error) {
	cfg := hardware.ConfigA()
	t := Table{
		Title:  "Distribution of batches by number of slow samples (batch size 4)",
		File:   "fig11b",
		Header: []string{"workload", "loader", "0", "1", "2", "3", "4", "avg_slow_prop"},
	}
	for _, w := range fig11Workloads(o) {
		for _, name := range []string{"pytorch", "minato"} {
			f, _ := loaders.ByName(name)
			rep, err := trainer.Simulate(cfg, w, f, trainer.Params{TrackComposition: true})
			if err != nil {
				return nil, fmt.Errorf("fig11b %s/%s: %w", w.Name, name, err)
			}
			row := []string{w.Name, name}
			var total int64
			for _, n := range rep.SlowHist {
				total += n
			}
			for _, n := range rep.SlowHist {
				row = append(row, fixed(float64(n)/float64(total), 3))
			}
			row = append(row, fixed(rep.AvgSlowProportion(), 3))
			t.Rows = append(t.Rows, row)
		}
	}
	return &Result{ID: "fig11b", Title: "Fig 11b", Tables: []Table{t},
		Notes: []string{"similar distributions across loaders: MinatoLoader does not bias batch composition (§5.6)"}}, nil
}

func runFig11c(o Options) (*Result, error) {
	cfg := hardware.ConfigA()
	t := Table{
		Title:  "Slow-sample proportion over training iterations",
		File:   "fig11c_summary",
		Header: []string{"workload", "loader", "avg_slow_prop", "first_half", "second_half"},
	}
	var curves []Table
	for _, w := range fig11Workloads(o) {
		for _, name := range []string{"pytorch", "minato"} {
			f, _ := loaders.ByName(name)
			rep, err := trainer.Simulate(cfg, w, f, trainer.Params{TrackComposition: true})
			if err != nil {
				return nil, fmt.Errorf("fig11c %s/%s: %w", w.Name, name, err)
			}
			props := rep.SlowPropByIt
			half := len(props) / 2
			t.Rows = append(t.Rows, []string{w.Name, name,
				fixed(rep.AvgSlowProportion(), 3),
				fixed(mean(props[:half]), 3),
				fixed(mean(props[half:]), 3)})
			curve := Table{File: fmt.Sprintf("fig11c_%s_%s", w.Name, name),
				Header: []string{"iteration", "slow_proportion"}}
			for i, p := range props {
				curve.Rows = append(curve.Rows, []string{fmt.Sprint(i), fixed(p, 3)})
			}
			curves = append(curves, curve)
		}
	}
	return &Result{ID: "fig11c", Title: "Fig 11c", Tables: []Table{t}, Curves: curves,
		Notes: []string{
			"slow samples join batches as soon as ready — the proportion stays flat over the run rather than spiking at the end (§5.6)",
			"paper averages: PyTorch 0.15/0.23, Minato 0.17/0.24 for obj-det/img-seg",
		}}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func runFig12(o Options) (*Result, error) {
	// §5.6 "Cluster of slow samples": Speech-3s with HeavyStep applied to
	// a configurable fraction of the dataset. Single GPU so the edge cases
	// are GPU-bound for every loader (see EXPERIMENTS.md discussion).
	cfg := hardware.ConfigA().WithGPUs(1)
	iters := 1000
	if o.Quick {
		iters = 200
	}
	fractions := []float64{0, 0.25, 0.50, 0.75, 1.0}
	if o.Quick {
		fractions = []float64{0, 0.50, 1.0}
	}
	t := Table{
		Title:  "Training time (s) vs proportion of slow samples (Speech-3s)",
		File:   "fig12",
		Header: []string{"slow_pct", "pytorch", "pecan", "dali", "minato"},
	}
	for _, frac := range fractions {
		w := workload.SpeechSlowFraction(o.seed(), frac).WithIterations(iters)
		row := []string{fixed(frac*100, 0)}
		for _, f := range loaders.Defaults() {
			rep, err := trainer.Simulate(cfg, w, f, trainer.Params{})
			if err != nil {
				return nil, fmt.Errorf("fig12 %.0f%%/%s: %w", frac*100, f.Name, err)
			}
			row = append(row, seconds(rep.TrainTime))
		}
		t.Rows = append(t.Rows, row)
	}
	return &Result{ID: "fig12", Title: "Fig 12", Tables: []Table{t},
		Notes: []string{"largest gains in the intermediate range where per-sample variability exists (§5.6)"}}, nil
}
