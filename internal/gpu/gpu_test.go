package gpu

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/simtime"
)

func TestArchSpeedScalesTrainTime(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		a := New(k, 0, A100, 40<<30)
		v := New(k, 1, V100, 32<<30)
		start := k.Now()
		_ = a.Train(context.Background(), time.Second)
		aTime := k.Now() - start
		start = k.Now()
		_ = v.Train(context.Background(), time.Second)
		vTime := k.Now() - start
		if math.Abs(aTime.Seconds()-1) > 0.01 {
			t.Errorf("A100 step = %v, want 1s", aTime)
		}
		if math.Abs(vTime.Seconds()-2) > 0.01 {
			t.Errorf("V100 step = %v, want 2s (half speed)", vTime)
		}
	})
}

func TestPreprocessContendsWithTraining(t *testing.T) {
	// Takeaway 5: concurrent preprocessing slows training. Two concurrent
	// 1.3s tasks on stream capacity 1.3 → each runs at 0.65 → 2s total.
	k := simtime.NewVirtual()
	k.Run(func() {
		g := New(k, 0, A100, 40<<30)
		wg := simtime.NewWaitGroup(k)
		start := k.Now()
		wg.Go("train", func() { _ = g.Train(context.Background(), 1300*time.Millisecond) })
		wg.Go("preproc", func() {
			dev, work := g.Occupancy(1300 * time.Millisecond)
			_ = dev.Run(context.Background(), work)
		})
		_ = wg.Wait(context.Background())
		elapsed := (k.Now() - start).Seconds()
		if math.Abs(elapsed-2.0) > 0.05 {
			t.Fatalf("overlapped tasks took %.3fs, want ≈2s (contention)", elapsed)
		}
		// Serial would have been 2.6s: overlap helps but is not free.
	})
}

func TestMemoryReservation(t *testing.T) {
	k := simtime.NewVirtual()
	g := New(k, 0, A100, 100)
	if err := g.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(60); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	g.Release(30)
	if err := g.Reserve(60); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if g.MemUsed() != 90 || g.MemPeak() != 90 {
		t.Fatalf("used=%d peak=%d", g.MemUsed(), g.MemPeak())
	}
	g.Release(1000)
	if g.MemUsed() != 0 {
		t.Fatal("negative memory")
	}
}

// TestUtilizationGauge reads a GPU's busy seconds through the shared rate
// gauge, at scale 1 as the trainer does: utilization is measured against one
// full-speed stream (nvidia-smi's notion).
func TestUtilizationGauge(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		g := New(k, 0, A100, 40<<30)
		gauge := metrics.CounterRateGauge(k, 1, g.BusySeconds)
		// Train 1s then idle 1s: windows read ≈100% then ≈0%.
		_ = g.Train(context.Background(), time.Second)
		if u := gauge(); u < 0.95 {
			t.Errorf("busy window utilization = %.2f, want ≈1", u)
		}
		_ = k.Sleep(context.Background(), time.Second)
		if u := gauge(); u > 0.05 {
			t.Errorf("idle window utilization = %.2f, want ≈0", u)
		}
	})
}

func TestPool(t *testing.T) {
	k := simtime.NewVirtual()
	gs := Pool(k, 4, V100, 32<<30)
	if len(gs) != 4 {
		t.Fatalf("len = %d", len(gs))
	}
	for i, g := range gs {
		if g.ID != i || g.Arch != V100 {
			t.Fatalf("gpu %d misconfigured: %+v", i, g)
		}
	}
}
