package experiments

import (
	"fmt"

	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

func init() {
	register("fig7", "End-to-end throughput and training time, all loaders × workloads (Fig 7)", runFig7)
	register("fig8", "CPU and GPU usage, all loaders × workloads (Fig 8)", runFig8)
	register("fig1b", "PyTorch DataLoader CPU/GPU usage during 3D-UNet training (Fig 1b)", runFig1b)
}

// scaleWorkload shrinks run lengths in Quick mode while preserving shape.
func scaleWorkload(w workload.Workload, quick bool) workload.Workload {
	if !quick {
		return w
	}
	if w.Iterations > 0 {
		return w.WithIterations(w.Iterations / 5)
	}
	if w.Epochs > 5 {
		return w.WithEpochs(w.Epochs / 5)
	}
	return w
}

func runFig7(o Options) (*Result, error) {
	cfg := hardware.ConfigA()
	t := Table{
		Title:  "End-to-end training, Config A (4×A100)",
		Header: append([]string{"workload"}, loaderHeader...),
	}
	for _, w := range workload.All(o.seed()) {
		w := scaleWorkload(w, o.Quick)
		for _, f := range loaders.Defaults() {
			if f.Name == "pecan" && w.Name == "img-seg" {
				// §5.2: img-seg transformations are already optimally
				// ordered; Pecan equals PyTorch and the paper omits it.
				continue
			}
			rep, err := trainer.Simulate(cfg, w, f, trainer.Params{Collect: true})
			if err != nil {
				return nil, fmt.Errorf("fig7 %s/%s: %w", w.Name, f.Name, err)
			}
			t.Rows = append(t.Rows, append([]string{w.Name}, loaderRow(rep)...))
			if err := writeSeries(o, fmt.Sprintf("fig7_%s_%s", w.Name, f.Name), rep, "throughput"); err != nil {
				return nil, err
			}
		}
	}
	res := &Result{ID: "fig7", Title: "Fig 7", Tables: []Table{t},
		Notes: []string{"throughput time series written as fig7_<workload>_<loader>.csv when -out is set"}}
	if o.OutDir != "" {
		if err := t.WriteCSV(o.OutDir, "fig7_summary"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runFig8(o Options) (*Result, error) {
	cfg := hardware.ConfigA()
	t := Table{
		Title:  "Average CPU and GPU usage, Config A (4×A100)",
		Header: []string{"workload", "loader", "gpu_util", "cpu_util"},
	}
	for _, w := range workload.All(o.seed()) {
		w := scaleWorkload(w, o.Quick)
		for _, f := range loaders.Defaults() {
			if f.Name == "pecan" {
				// §5.3: Pecan's utilization mirrors PyTorch's; the paper
				// omits it from this analysis.
				continue
			}
			rep, err := trainer.Simulate(cfg, w, f, trainer.Params{Collect: true})
			if err != nil {
				return nil, fmt.Errorf("fig8 %s/%s: %w", w.Name, f.Name, err)
			}
			t.Rows = append(t.Rows, []string{w.Name, f.Name,
				percent(rep.AvgGPUUtil), percent(rep.AvgCPUUtil)})
			if err := writeSeries(o, fmt.Sprintf("fig8_%s_%s", w.Name, f.Name), rep, "cpu", "gpu"); err != nil {
				return nil, err
			}
		}
	}
	res := &Result{ID: "fig8", Title: "Fig 8", Tables: []Table{t}}
	if o.OutDir != "" {
		if err := t.WriteCSV(o.OutDir, "fig8_summary"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runFig1b(o Options) (*Result, error) {
	// §3.3: PyTorch DataLoader, 12 workers, image segmentation. The paper
	// plots a ~90 s window of CPU/GPU usage on the V100 testbed.
	cfg := hardware.ConfigB()
	w := workload.ImageSegmentation(o.seed()).WithEpochs(10)
	if o.Quick {
		w = w.WithEpochs(3)
	}
	f, _ := loaders.ByName("pytorch")
	rep, err := trainer.Simulate(cfg, w, f, trainer.Params{Collect: true})
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "PyTorch DataLoader during 3D-UNet training (Config B)",
		Header: []string{"metric", "average"},
		Rows: [][]string{
			{"CPU usage", percent(rep.AvgCPUUtil)},
			{"GPU usage", percent(rep.AvgGPUUtil)},
			{"training time (s)", seconds(rep.TrainTime)},
		},
	}
	res := &Result{ID: "fig1b", Title: "Fig 1b", Tables: []Table{t},
		Notes: []string{"paper reports CPU ≈9.8%, GPU ≈57.4% on its testbed; CPU/GPU series in fig1b.csv"}}
	if err := writeSeries(o, "fig1b", rep, "cpu", "gpu"); err != nil {
		return nil, err
	}
	if o.OutDir != "" {
		if err := t.WriteCSV(o.OutDir, "fig1b_summary"); err != nil {
			return nil, err
		}
	}
	return res, nil
}
