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

func runAblTimeout(o Options) (*Result, error) {
	cfg := hardware.ConfigA()
	w := ablationWorkload(o)
	t := Table{
		Title:  "Timeout percentile (Speech-3s)",
		Header: append([]string{"percentile"}, loaderHeader...),
	}
	for _, pct := range []float64{0.50, 0.75, 0.90, 0.99} {
		mc := core.DefaultConfig()
		mc.TimeoutPercentile = pct
		mc.FallbackPercentile = pct // isolate the primary percentile
		mc.MaxSlowFraction = 1.0    // disable fallback
		rep, err := trainer.Simulate(cfg, w, loaders.Minato(mc), trainer.Params{})
		if err != nil {
			return nil, fmt.Errorf("abl-timeout p%v: %w", pct, err)
		}
		t.Rows = append(t.Rows, append([]string{fixed(pct*100, 0)}, loaderRow(rep)...))
	}
	res := &Result{ID: "abl-timeout", Title: "Timeout percentile ablation", Tables: []Table{t},
		Notes: []string{
			"the paper argues P75 balances outlier focus against slow-queue pressure; lower percentiles classify more samples slow and waste partial work on re-execution",
		}}
	if o.OutDir != "" {
		if err := t.WriteCSV(o.OutDir, "abl_timeout"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runAblWorkers(o Options) (*Result, error) {
	cfg := hardware.ConfigA()
	w := ablationWorkload(o)
	t := Table{
		Title:  "Adaptive vs fixed worker pools (Speech-3s)",
		Header: append([]string{"policy"}, loaderHeader...),
	}
	runOne := func(label string, mc core.Config) error {
		rep, err := trainer.Simulate(cfg, w, loaders.Minato(mc), trainer.Params{})
		if err != nil {
			return fmt.Errorf("abl-workers %s: %w", label, err)
		}
		t.Rows = append(t.Rows, append([]string{label}, loaderRow(rep)...))
		return nil
	}
	if err := runOne("adaptive", core.DefaultConfig()); err != nil {
		return nil, err
	}
	for _, n := range []int{12, 48, 128} {
		mc := core.DefaultConfig()
		mc.DisableAdaptiveWorkers = true
		mc.InitialWorkersPerGPU = n / 4 // Config A has 4 GPUs
		if mc.InitialWorkersPerGPU < 1 {
			mc.InitialWorkersPerGPU = 1
		}
		if err := runOne(fmt.Sprintf("fixed-%d", n), mc); err != nil {
			return nil, err
		}
	}
	res := &Result{ID: "abl-workers", Title: "Worker scheduler ablation", Tables: []Table{t},
		Notes: []string{
			"adaptive scaling approaches the best fixed pool without per-workload tuning (§4.3)",
		}}
	if o.OutDir != "" {
		if err := t.WriteCSV(o.OutDir, "abl_workers"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runAblResume(o Options) (*Result, error) {
	cfg := hardware.ConfigA()
	w := ablationWorkload(o)
	t := Table{
		Title:  "Slow-sample completion strategy (Speech-3s)",
		Header: append([]string{"strategy"}, loaderHeader...),
	}
	for _, restart := range []bool{false, true} {
		mc := core.DefaultConfig()
		mc.RestartSlowFromScratch = restart
		label := "resume-from-index"
		if restart {
			label = "restart-pipeline"
		}
		rep, err := trainer.Simulate(cfg, w, loaders.Minato(mc), trainer.Params{})
		if err != nil {
			return nil, fmt.Errorf("abl-resume %s: %w", label, err)
		}
		t.Rows = append(t.Rows, append([]string{label}, loaderRow(rep)...))
	}
	res := &Result{ID: "abl-resume", Title: "Resume ablation", Tables: []Table{t},
		Notes: []string{
			"Algorithm 1 resumes from the interrupted transform, re-executing only it; restarting repeats all completed transforms as well",
		}}
	if o.OutDir != "" {
		if err := t.WriteCSV(o.OutDir, "abl_resume"); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runAblOrder(o Options) (*Result, error) {
	cfg := hardware.ConfigA()
	w := ablationWorkload(o)
	t := Table{
		Title:  "Order-preserving mode (Speech-3s)",
		Header: append([]string{"mode"}, loaderHeader...),
	}
	for _, ordered := range []bool{false, true} {
		mc := core.DefaultConfig()
		mc.OrderPreserving = ordered
		label := "reordering (default)"
		if ordered {
			label = "order-preserving (§6)"
		}
		rep, err := trainer.Simulate(cfg, w, loaders.Minato(mc), trainer.Params{})
		if err != nil {
			return nil, fmt.Errorf("abl-order %v: %w", ordered, err)
		}
		t.Rows = append(t.Rows, append([]string{label}, loaderRow(rep)...))
	}
	pt, _ := loaders.ByName("pytorch")
	rep, err := trainer.Simulate(cfg, w, pt, trainer.Params{})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, append([]string{"pytorch (reference)"}, loaderRow(rep)...))
	res := &Result{ID: "abl-order", Title: "Order-preserving ablation", Tables: []Table{t},
		Notes: []string{
			"strict ordering reintroduces head-of-line waiting in batch assembly; §6 accepts this for curriculum learning correctness",
		}}
	if o.OutDir != "" {
		if err := t.WriteCSV(o.OutDir, "abl_order"); err != nil {
			return nil, err
		}
	}
	return res, nil
}
