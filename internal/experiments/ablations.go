package experiments

import (
	"fmt"
	"time"

	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

func init() {
	register("abl-timeout", "Ablation: timeout percentile choice (§4.2)", runAblTimeout)
	register("abl-workers", "Ablation: adaptive vs fixed worker pools (§4.3)", runAblWorkers)
	register("abl-resume", "Ablation: resume-from-index vs restart for slow samples (§4.2)", runAblResume)
	register("abl-order", "Ablation: order-preserving mode cost (§6)", runAblOrder)
}

func ablationWorkload(o Options) workload.Workload {
	w := workload.Speech(o.seed(), 3*time.Second)
	if o.Quick {
		return w.WithIterations(150)
	}
	return w.WithIterations(500)
}

// ablate runs f on w on Config A and appends its summary row to t as label.
func ablate(t *Table, w workload.Workload, label Cell, f trainer.Factory) error {
	rep, err := trainer.Simulate(hardware.ConfigA(), w, f, trainer.Params{})
	if err != nil {
		return fmt.Errorf("%s %v: %w", t.File, label, err)
	}
	t.Rows = append(t.Rows, append([]Cell{label}, loaderRow(rep)...))
	return nil
}

func runAblTimeout(o Options) (*Result, error) {
	w := ablationWorkload(o)
	t := Table{
		Title:  "Timeout percentile (Speech-3s)",
		File:   "abl_timeout",
		Header: append([]string{"percentile"}, loaderHeader...),
	}
	for _, p := range []float64{0.50, 0.75, 0.90, 0.99} {
		mc := core.DefaultConfig()
		mc.TimeoutPercentile = p
		mc.FallbackPercentile = p // isolate the primary percentile
		mc.MaxSlowFraction = 1.0  // disable fallback
		if err := ablate(&t, w, num(p*100, 0), loaders.Minato(mc)); err != nil {
			return nil, err
		}
	}
	return &Result{ID: "abl-timeout", Title: "Timeout percentile ablation", Tables: []Table{t},
		Notes: []string{
			"the paper argues P75 balances outlier focus against slow-queue pressure; lower percentiles classify more samples slow and waste partial work on re-execution",
		}}, nil
}

func runAblWorkers(o Options) (*Result, error) {
	w := ablationWorkload(o)
	t := Table{
		Title:  "Adaptive vs fixed worker pools (Speech-3s)",
		File:   "abl_workers",
		Header: append([]string{"policy"}, loaderHeader...),
	}
	if err := ablate(&t, w, text("adaptive"), loaders.Minato(core.DefaultConfig())); err != nil {
		return nil, err
	}
	for _, n := range []int{12, 48, 128} {
		mc := core.DefaultConfig()
		mc.DisableAdaptiveWorkers = true
		mc.InitialWorkersPerGPU = n / 4 // Config A has 4 GPUs
		if mc.InitialWorkersPerGPU < 1 {
			mc.InitialWorkersPerGPU = 1
		}
		if err := ablate(&t, w, text(fmt.Sprintf("fixed-%d", n)), loaders.Minato(mc)); err != nil {
			return nil, err
		}
	}
	return &Result{ID: "abl-workers", Title: "Worker scheduler ablation", Tables: []Table{t},
		Notes: []string{
			"adaptive scaling approaches the best fixed pool without per-workload tuning (§4.3)",
		}}, nil
}

func runAblResume(o Options) (*Result, error) {
	w := ablationWorkload(o)
	t := Table{
		Title:  "Slow-sample completion strategy (Speech-3s)",
		File:   "abl_resume",
		Header: append([]string{"strategy"}, loaderHeader...),
	}
	for _, restart := range []bool{false, true} {
		mc := core.DefaultConfig()
		mc.RestartSlowFromScratch = restart
		label := "resume-from-index"
		if restart {
			label = "restart-pipeline"
		}
		if err := ablate(&t, w, text(label), loaders.Minato(mc)); err != nil {
			return nil, err
		}
	}
	return &Result{ID: "abl-resume", Title: "Resume ablation", Tables: []Table{t},
		Notes: []string{
			"Algorithm 1 resumes from the interrupted transform, re-executing only it; restarting repeats all completed transforms as well",
		}}, nil
}

func runAblOrder(o Options) (*Result, error) {
	w := ablationWorkload(o)
	t := Table{
		Title:  "Order-preserving mode (Speech-3s)",
		File:   "abl_order",
		Header: append([]string{"mode"}, loaderHeader...),
	}
	for _, ordered := range []bool{false, true} {
		mc := core.DefaultConfig()
		mc.OrderPreserving = ordered
		label := "reordering (default)"
		if ordered {
			label = "order-preserving (§6)"
		}
		if err := ablate(&t, w, text(label), loaders.Minato(mc)); err != nil {
			return nil, err
		}
	}
	pt, _ := loaders.ByName("pytorch")
	if err := ablate(&t, w, text("pytorch (reference)"), pt); err != nil {
		return nil, err
	}
	return &Result{ID: "abl-order", Title: "Order-preserving ablation", Tables: []Table{t},
		Notes: []string{
			"strict ordering reintroduces head-of-line waiting in batch assembly; §6 accepts this for curriculum learning correctness",
		}}, nil
}
