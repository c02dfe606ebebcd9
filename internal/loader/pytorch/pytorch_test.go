package pytorch

import (
	"context"
	"io"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/transform"
)

func newEnv(k *simtime.Virtual, cores float64) *loader.Env {
	disk := storage.NewDisk(k, "disk", 10e9, 2)
	return &loader.Env{
		RT:    k,
		CPU:   device.New(k, "cpu", cores),
		GPUs:  gpu.Pool(k, 1, gpu.A100, 40<<30),
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

func TestInOrderDelivery(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		env := newEnv(k, 16)
		l := New(env, speechSpec(4, 25), DefaultConfig())
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		var prevSeq int64 = -1
		var prevOrder int64 = -1
		for {
			b, err := l.Next(context.Background(), 0)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if b.Seq != prevSeq+1 {
				t.Fatalf("batch seq %d after %d: delivery out of order", b.Seq, prevSeq)
			}
			prevSeq = b.Seq
			for _, s := range b.Samples {
				if s.OriginalOrder != prevOrder+1 {
					t.Fatalf("sample order %d after %d", s.OriginalOrder, prevOrder)
				}
				prevOrder = s.OriginalOrder
			}
		}
		if prevSeq != 24 {
			t.Fatalf("last seq = %d, want 24", prevSeq)
		}
		l.Stop()
		_ = env.WG.Wait(context.Background())
	})
}

// TestHeadOfLineBlocking pins the pathology of Fig 1a: a heavy sample
// delays not only its own batch but every batch behind it in sequence
// order, leaving long delivery gaps.
func TestHeadOfLineBlocking(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		env := newEnv(k, 16)
		cfg := DefaultConfig()
		cfg.Workers = 2 // small pool accentuates the effect
		l := New(env, speechSpec(4, 20), cfg)
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		var arrivals []time.Duration
		for {
			b, err := l.Next(context.Background(), 0)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			_ = b
			arrivals = append(arrivals, k.Now())
		}
		maxGap := time.Duration(0)
		for i := 1; i < len(arrivals); i++ {
			if g := arrivals[i] - arrivals[i-1]; g > maxGap {
				maxGap = g
			}
		}
		// Batches of 4 with 20% heavy samples: some batch serially costs
		// ≥3s, and in-order delivery propagates that to the consumer.
		if maxGap < 2*time.Second {
			t.Fatalf("max delivery gap %v: expected head-of-line stalls ≥2s", maxGap)
		}
		l.Stop()
		_ = env.WG.Wait(context.Background())
	})
}

func TestBatchesNotResident(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		env := newEnv(k, 16)
		l := New(env, speechSpec(4, 3), DefaultConfig())
		_ = l.Start(context.Background())
		b, err := l.Next(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if b.Resident {
			t.Fatal("pytorch batches must not be pre-staged on GPU")
		}
		l.Stop()
		_ = env.WG.Wait(context.Background())
	})
}

func TestPrefetchWindowBoundsOutstandingBatches(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		env := newEnv(k, 32)
		cfg := Config{Workers: 2, PrefetchFactor: 2}
		l := New(env, speechSpec(2, 50), cfg)
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Without consuming, let the pipeline run: at most
		// workers × prefetch batches may be prepared ahead.
		_ = k.Sleep(context.Background(), 5*time.Minute)
		if got := l.out.Len(); got > cfg.Workers*cfg.PrefetchFactor {
			t.Fatalf("%d batches buffered, window is %d", got, cfg.Workers*cfg.PrefetchFactor)
		}
		l.Stop()
		_ = env.WG.Wait(context.Background())
	})
}

func TestReorderPolicyApplied(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		env := newEnv(k, 16)
		called := 0
		sigs := map[string]bool{}
		cfg := DefaultConfig()
		cfg.ReorderPolicy = func(ts []transform.Transform, s *data.Sample) []transform.Transform {
			called++
			sig := ""
			for _, tr := range ts {
				sig += string(rune('0' + int(transform.Classify(tr, s))))
			}
			sigs[sig] = true
			return transform.AutoOrder(ts, s)
		}
		l := New(env, speechSpec(4, 5), cfg)
		_ = l.Start(context.Background())
		delivered := 0
		for {
			if _, err := l.Next(context.Background(), 0); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			delivered++
		}
		if delivered != 5 {
			t.Fatalf("delivered %d batches, want 5", delivered)
		}
		// The policy result is memoized per classification signature
		// (transform.OrderCache): it must run at least once, and exactly
		// once per distinct signature seen — never once per sample.
		if called == 0 {
			t.Fatal("reorder policy never called")
		}
		if called != len(sigs) {
			t.Fatalf("reorder policy called %d times for %d distinct signatures", called, len(sigs))
		}
		l.Stop()
		_ = env.WG.Wait(context.Background())
	})
}

func TestStopEarlyReleasesTasks(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		env := newEnv(k, 16)
		l := New(env, speechSpec(4, 500), DefaultConfig())
		_ = l.Start(context.Background())
		if _, err := l.Next(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		l.Stop()
		if err := env.WG.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}
