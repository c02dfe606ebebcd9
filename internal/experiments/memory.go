package experiments

import (
	"fmt"

	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

func init() {
	register("fig10", "Memory-constrained training: 230 GB dataset, 80 GB cap (Fig 10)", runFig10)
}

func runFig10(o Options) (*Result, error) {
	// §5.5: KiTS19 replicated to ≈230 GB, memory capped at 80 GB via
	// cgroups, 10 epochs of 3D-UNet on Config B. Every epoch must re-read
	// from storage; loader quality shows as sustained vs volatile disk
	// reads.
	const gib = int64(1) << 30
	cfg := hardware.ConfigB().WithMemoryLimit(80 * gib)
	replicate := 8
	epochs := 10
	if o.Quick {
		replicate, epochs = 4, 3
	}
	base := workload.ImageSegmentation(o.seed())
	w := base.WithDataset(dataset.Replicate(base.Dataset, replicate)).WithEpochs(epochs)

	t := Table{
		Title:  fmt.Sprintf("Memory-constrained: %d×KiTS19, %d epochs, 80 GB cap (Config B)", replicate, epochs),
		File:   "fig10_summary",
		Header: []string{"loader", "train_s", "gpu_util", "cpu_util", "disk_read_GB", "cache_hit_rate"},
	}
	var ser []SeriesFile
	for _, name := range []string{"pytorch", "dali", "minato"} {
		f, _ := loaders.ByName(name)
		rep, err := trainer.Simulate(cfg, w, f, trainer.Params{Collect: true})
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", name, err)
		}
		t.Rows = append(t.Rows, []Cell{text(name), secs(rep.TrainTime), pct(rep.AvgGPUUtil),
			pct(rep.AvgCPUUtil), num(float64(rep.DiskBytes)/1e9, 1), num(rep.CacheStats.HitRate(), 3)})
		ser = append(ser, series("fig10_"+name, rep, "cpu", "gpu", "disk")...)
	}
	return &Result{ID: "fig10", Title: "Fig 10", Tables: []Table{t}, Series: ser,
		Notes: []string{
			"paper (authors' testbed): PyTorch ≈650 s / 57% GPU, DALI ≈500 s / 81%, Minato ≈330 s / 82% with stable NVMe-saturating reads",
			"disk-read dips at epoch boundaries are model validation (§5.5)",
		}}, nil
}
