package experiments

import (
	"fmt"

	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

func init() {
	register("fig9", "Training time vs number of GPUs (Fig 9)", runFig9)
	register("e1", "Artifact experiment E1: 8×V100, 10 epochs, 3D-UNet", runE1)
}

func runFig9(o Options) (*Result, error) {
	type testbed struct {
		cfg    hardware.Config
		counts []int
	}
	tbs := []testbed{
		{hardware.ConfigA(), []int{1, 2, 3, 4}},
		{hardware.ConfigB(), []int{2, 4, 6, 8}},
	}
	if o.Quick {
		tbs[0].counts = []int{1, 4}
		tbs[1].counts = []int{2, 8}
	}

	t := Table{
		Title:  "Training time (s) vs number of GPUs",
		File:   "fig9",
		Header: []string{"testbed", "workload", "gpus", "pytorch", "pecan", "dali", "minato"},
	}
	for _, tb := range tbs {
		for _, w := range workload.All(o.seed()) {
			w := scaleWorkload(w, o.Quick)
			for _, n := range tb.counts {
				row := []string{tb.cfg.Name, w.Name, fmt.Sprint(n)}
				for _, f := range loaders.Defaults() {
					rep, err := trainer.Simulate(tb.cfg.WithGPUs(n), w, f, trainer.Params{})
					if err != nil {
						return nil, fmt.Errorf("fig9 %s/%s/%d/%s: %w", tb.cfg.Name, w.Name, n, f.Name, err)
					}
					row = append(row, seconds(rep.TrainTime))
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return &Result{ID: "fig9", Title: "Fig 9", Tables: []Table{t},
		Notes: []string{
			"MinatoLoader outperforms at every GPU count and stays competitive at 1 GPU vs baselines at 4 (§5.4)",
		}}, nil
}

func runE1(o Options) (*Result, error) {
	cfg := hardware.ConfigB()
	w := workload.ImageSegmentation(o.seed()).WithEpochs(10)
	if o.Quick {
		w = w.WithEpochs(3)
	}
	t := Table{
		Title:  "Artifact E1: 3D-UNet, 10 epochs, 8×V100",
		File:   "e1",
		Header: append([]string{"system"}, loaderHeader...),
	}
	var times = map[string]float64{}
	var ser []SeriesFile
	for _, name := range []string{"pytorch", "dali", "minato"} {
		f, _ := loaders.ByName(name)
		rep, err := trainer.Simulate(cfg, w, f, trainer.Params{Collect: true})
		if err != nil {
			return nil, fmt.Errorf("e1 %s: %w", name, err)
		}
		times[name] = rep.TrainTime.Seconds()
		t.Rows = append(t.Rows, append([]string{name}, loaderRow(rep)...))
		ser = append(ser, series("e1_"+name, rep, "cpu", "gpu")...)
	}
	return &Result{ID: "e1", Title: "Artifact E1", Tables: []Table{t}, Series: ser,
		Notes: []string{
			fmt.Sprintf("speedups: %.2fx over PyTorch, %.2fx over DALI (paper: 2.6x, 1.9x on the authors' hardware)",
				times["pytorch"]/times["minato"], times["dali"]/times["minato"]),
			"paper wall-clock targets: PyTorch ≈210 s, DALI ≈151 s, Minato ≈81 s",
		}}, nil
}
