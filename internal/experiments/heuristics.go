package experiments

import (
	"fmt"
	"time"

	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader/dali"
	"github.com/minatoloader/minato/internal/loader/pytorch"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

func init() {
	register("fig3", "Heuristic load balancers: image size and reordering (Fig 3)", runFig3)
	register("fig4", "Prefetch parameter sweeps (Fig 4)", runFig4)
}

func runFig3(o Options) (*Result, error) {
	cfg := hardware.ConfigA()
	w := scaleWorkload(workload.ObjectDetection(o.seed()), o.Quick)

	// (a) Image-size heuristic: classify slow upfront when the raw sample
	// exceeds the P75 of sizes. For COCO, size does not predict cost
	// (§3.2), so misclassification causes GPU fluctuations.
	var sizes metrics.Percentiles
	for i := 0; i < 2000; i++ {
		sizes.Add(float64(w.Dataset.Sample(0, i).RawBytes))
	}
	// The paper's heuristic balancer extends the PyTorch DataLoader's fixed
	// 12-worker setup (§3.2) — only the classification rule changes, so the
	// adaptive scheduler is disabled and the pool stays at 12 workers.
	sizeCfg := core.DefaultConfig()
	sizeCfg.SizeHeuristicThreshold = int64(sizes.Quantile(0.75))
	sizeCfg.LoaderName = "size-heuristic"
	sizeCfg.DisableAdaptiveWorkers = true
	sizeCfg.InitialWorkersPerGPU = 3 // 12 workers on the 4-GPU testbed
	sizeF := loaders.Minato(sizeCfg)

	// (b) Transformation reordering (Pecan's AutoOrder).
	pecanF, _ := loaders.ByName("pecan")
	ptF, _ := loaders.ByName("pytorch")

	t := Table{
		Title:  "Heuristic balancers on object detection (Config A)",
		File:   "fig3_summary",
		Header: append([]string{"heuristic"}, loaderHeader...),
	}
	var ser []SeriesFile
	for _, h := range []struct {
		name string
		f    trainer.Factory
	}{{"a_image_size", sizeF}, {"b_reordering", pecanF}, {"baseline_pytorch", ptF}} {
		rep, err := trainer.Simulate(cfg, w, h.f, trainer.Params{Collect: true})
		if err != nil {
			return nil, fmt.Errorf("fig3 %s: %w", h.name, err)
		}
		t.Rows = append(t.Rows, append([]string{h.name}, loaderRow(rep)...))
		ser = append(ser, series("fig3_"+h.name, rep, "cpu", "gpu")...)
	}
	return &Result{ID: "fig3", Title: "Fig 3", Tables: []Table{t}, Series: ser,
		Notes: []string{"paper: size heuristic GPU ≈64%, reordering GPU ≈67% — both marginal over PyTorch (§3.2)"}}, nil
}

func runFig4(o Options) (*Result, error) {
	cfgA := hardware.ConfigA()

	// (a) PyTorch prefetch_factor sweep (per-workload values from Fig 4a).
	ptSweeps := []struct {
		w       workload.Workload
		factors []int
	}{
		{workload.ImageSegmentation(o.seed()), []int{2, 8, 24}},
		{workload.Speech(o.seed(), 3*time.Second), []int{2, 8, 32, 48}},
		{workload.ObjectDetection(o.seed()), []int{2, 8, 24, 32}},
	}
	ta := Table{
		Title:  "PyTorch DataLoader: prefetch_factor vs training time",
		File:   "fig4a_pytorch_prefetch",
		Header: []string{"workload", "prefetch_factor", "train_s"},
	}
	for _, sw := range ptSweeps {
		w := scaleWorkload(sw.w, o.Quick)
		factors := sw.factors
		if o.Quick {
			factors = factors[:2]
		}
		for _, pf := range factors {
			cfg := pytorch.DefaultConfig()
			cfg.PrefetchFactor = pf
			rep, err := trainer.Simulate(cfgA, w, loaders.PyTorch(cfg), trainer.Params{})
			if err != nil {
				return nil, fmt.Errorf("fig4a %s pf=%d: %w", w.Name, pf, err)
			}
			ta.Rows = append(ta.Rows, []string{w.Name, fmt.Sprint(pf), seconds(rep.TrainTime)})
		}
	}

	// (b) DALI prefetch_queue_depth sweep.
	daliSweeps := []struct {
		w      workload.Workload
		depths []int
	}{
		{workload.ImageSegmentation(o.seed()), []int{2, 8, 16}},
		{workload.Speech(o.seed(), 10*time.Second), []int{2, 8, 16, 24}},
		{workload.ObjectDetection(o.seed()), []int{2, 8, 16, 24}},
	}
	tb := Table{
		Title:  "DALI: prefetch_queue_depth vs training time",
		File:   "fig4b_dali_queue",
		Header: []string{"workload", "queue_depth", "train_s"},
	}
	for _, sw := range daliSweeps {
		w := scaleWorkload(sw.w, o.Quick)
		depths := sw.depths
		if o.Quick {
			depths = depths[:2]
		}
		for _, d := range depths {
			cfg := dali.DefaultConfig()
			cfg.QueueDepth = d
			rep, err := trainer.Simulate(cfgA, w, loaders.DALI(cfg), trainer.Params{})
			if err != nil {
				return nil, fmt.Errorf("fig4b %s depth=%d: %w", w.Name, d, err)
			}
			tb.Rows = append(tb.Rows, []string{w.Name, fmt.Sprint(d), seconds(rep.TrainTime)})
		}
	}

	return &Result{ID: "fig4", Title: "Fig 4", Tables: []Table{ta, tb},
		Notes: []string{"Takeaway 4: increasing prefetching does not reduce per-sample transformation cost, so training time stays flat"}}, nil
}
