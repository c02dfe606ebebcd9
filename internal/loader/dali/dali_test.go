package dali

import (
	"context"
	"io"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/transform"
)

func newEnv(k *simtime.Virtual, gpus int) *loader.Env {
	disk := storage.NewDisk(k, "disk", 10e9, 2)
	return &loader.Env{
		RT:    k,
		CPU:   device.New(k, "cpu", 16),
		GPUs:  gpu.Pool(k, gpus, gpu.A100, 40<<30),
		Store: &storage.Store{Disk: disk, Cache: storage.NewPageCache(64 << 30)},
		WG:    simtime.NewWaitGroup(k),
	}
}

func speechSpec(batch, iters int) loader.Spec {
	return loader.Spec{
		Dataset:    dataset.Subset(dataset.NewLibriSpeech(1, 5), 2000),
		Pipeline:   transform.SpeechPipeline(3 * time.Second),
		BatchSize:  batch,
		Iterations: iters,
		Seed:       1,
	}
}

func TestBatchesAreGPUResident(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		env := newEnv(k, 1)
		l := New(env, speechSpec(4, 6), DefaultConfig())
		_ = l.Start(context.Background())
		n := 0
		for {
			b, err := l.Next(context.Background(), 0)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !b.Resident {
				t.Fatal("DALI batch not resident: preprocessing runs on the GPU")
			}
			for _, s := range b.Samples {
				if s.NextTransform != l.spec.Pipeline.Len() {
					t.Fatal("sample not fully preprocessed")
				}
			}
			n++
		}
		if n != 6 {
			t.Fatalf("delivered %d, want 6", n)
		}
		l.Stop()
		_ = env.WG.Wait(context.Background())
	})
}

func TestGPUPreprocessingUsesDevice(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		env := newEnv(k, 1)
		l := New(env, speechSpec(4, 5), DefaultConfig())
		_ = l.Start(context.Background())
		for {
			if _, err := l.Next(context.Background(), 0); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		// 20 samples at ≈0.51s CPU-cost each, 10× GPU speedup → ≈1s+ of
		// GPU busy time from preprocessing alone.
		if busy := env.GPUs[0].BusySeconds(); busy < 0.5 {
			t.Fatalf("GPU busy = %.2fs: preprocessing did not run on GPU", busy)
		}
		// CPU does only light ingest work.
		if busy := env.CPU.BusySeconds(); busy > 1 {
			t.Fatalf("CPU busy = %.2fs: transforms leaked onto CPU", busy)
		}
		l.Stop()
		_ = env.WG.Wait(context.Background())
	})
}

func TestMemoryReservedWhileBuffered(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		env := newEnv(k, 1)
		cfg := DefaultConfig()
		cfg.QueueDepth = 4
		l := New(env, speechSpec(4, 20), cfg)
		_ = l.Start(context.Background())
		// Let the pipeline fill its ready queue without consuming.
		_ = k.Sleep(context.Background(), 2*time.Minute)
		if used := env.GPUs[0].MemUsed(); used == 0 {
			t.Fatal("no GPU memory reserved for buffered batches")
		}
		before := env.GPUs[0].MemUsed()
		// Consuming releases memory.
		for i := 0; i < 4; i++ {
			if _, err := l.Next(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
		}
		_ = k.Sleep(context.Background(), time.Second)
		if after := env.GPUs[0].MemUsed(); after >= before+1<<20 {
			t.Fatalf("memory did not release on consumption: %d -> %d", before, after)
		}
		l.Stop()
		_ = env.WG.Wait(context.Background())
	})
}

func TestRoundRobinAcrossGPUs(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		env := newEnv(k, 2)
		l := New(env, speechSpec(4, 10), DefaultConfig())
		_ = l.Start(context.Background())
		counts := make([]int, 2)
		wg := simtime.NewWaitGroup(k)
		for g := 0; g < 2; g++ {
			g := g
			wg.Go("consumer", func() {
				for {
					if _, err := l.Next(context.Background(), g); err != nil {
						return
					}
					counts[g]++
				}
			})
		}
		_ = wg.Wait(context.Background())
		if counts[0]+counts[1] != 10 || counts[0] == 0 || counts[1] == 0 {
			t.Fatalf("distribution = %v, want batches on both GPUs", counts)
		}
		l.Stop()
		_ = env.WG.Wait(context.Background())
	})
}

// TestBudgetsLastNextStopsTheLoader: the Next that delivers the budget's last
// batch stops the loader there, not when its queues later run dry.
func TestBudgetsLastNextStopsTheLoader(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		ctx := context.Background()
		env := newEnv(k, 1)
		l := New(env, speechSpec(4, 3), DefaultConfig())
		_ = l.Start(ctx)
		for i := 1; i <= 3; i++ {
			if _, err := l.Next(ctx, 0); err != nil {
				t.Fatal(err)
			}
			if l.stopped != (i == 3) {
				t.Fatalf("after batch %d of 3: stopped = %v", i, l.stopped)
			}
		}
		if _, err := l.Next(ctx, 0); err != io.EOF {
			t.Fatalf("Next past the budget: %v, want io.EOF", err)
		}
		_ = env.WG.Wait(ctx)
	})
}
