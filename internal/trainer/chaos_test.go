package trainer_test

import (
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

// TestTrainingSurvivesDiskDegradation injects an 8× storage slowdown in
// the middle of an image-segmentation run (large reads, so storage
// matters) and checks the session still completes every batch — loaders
// must tolerate transient I/O contention, which §5.3 observes on the
// shared Lustre filesystem.
func TestTrainingSurvivesDiskDegradation(t *testing.T) {
	w := workload.ImageSegmentation(1).WithEpochs(3)
	// Memory-constrained so every epoch re-reads storage: the disk path
	// stays on the critical path for the whole run.
	cfg := hardware.ConfigB().WithGPUs(4).WithMemoryLimit(20 << 30)

	run := func(chaos bool) *trainer.Report {
		k := simtime.NewVirtual()
		var rep *trainer.Report
		var err error
		k.Run(func() {
			tb := hardware.NewTestbed(k, cfg)
			if chaos {
				// Strike early (the loader prefetches aggressively) and
				// keep the disk degraded across most of the run.
				tb.Disk.ScheduleSlowdown(k.Now()+2*time.Second, 16)
				tb.Disk.ScheduleSlowdown(k.Now()+92*time.Second, 1)
			}
			rep, err = trainer.Run(k, tb, w, loaders.Minato(core.DefaultConfig()), trainer.Params{})
		})
		k.Drain()
		if err != nil {
			t.Fatalf("run(chaos=%v): %v", chaos, err)
		}
		return rep
	}

	base := run(false)
	degraded := run(true)

	if degraded.Batches != base.Batches {
		t.Fatalf("degraded run delivered %d batches, baseline %d", degraded.Batches, base.Batches)
	}
	// The 8× slowdown over a 40-second window must visibly stretch a run
	// whose storage path is on the critical path.
	if degraded.TrainTime < base.TrainTime+10*time.Second {
		t.Fatalf("degraded run (%v) not clearly slower than baseline (%v)", degraded.TrainTime, base.TrainTime)
	}
	t.Logf("baseline=%.1fs degraded=%.1fs (+%.0f%%)",
		base.TrainTime.Seconds(), degraded.TrainTime.Seconds(),
		100*(degraded.TrainTime.Seconds()/base.TrainTime.Seconds()-1))
}

// TestSlowdownHurtsPyTorchMoreUnderMemoryPressure pins a qualitative
// claim of §5.5 at test scale: with the dataset far larger than the page
// cache, the loader that pipelines storage reads (Minato) absorbs disk
// degradation better than the synchronous baseline.
func TestSlowdownHurtsPyTorchMoreUnderMemoryPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	const gib = int64(1) << 30
	cfg := hardware.ConfigB().WithMemoryLimit(20 * gib) // cache ≪ dataset
	w := workload.ImageSegmentation(1).WithEpochs(2)

	times := map[string]float64{}
	for _, name := range []string{"pytorch", "minato"} {
		f, _ := loaders.ByName(name)
		rep, err := trainer.Simulate(cfg, w, f, trainer.Params{})
		if err != nil {
			t.Fatal(err)
		}
		times[name] = rep.TrainTime.Seconds()
		if rep.CacheStats.Hits > rep.CacheStats.Misses {
			t.Fatalf("%s: cache hits dominate under a 20 GiB cap?", name)
		}
	}
	if times["minato"] >= times["pytorch"] {
		t.Fatalf("minato (%.1fs) not faster than pytorch (%.1fs) under memory pressure",
			times["minato"], times["pytorch"])
	}
}
