package pecan_test

import (
	"context"
	"io"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/transform"
)

// TestPecanDeliversAndIsNamed: the registered factory is named "pecan" (a
// loader's one name) and its loader delivers fully preprocessed batches.
func TestPecanDeliversAndIsNamed(t *testing.T) {
	f, ok := loaders.ByName("pecan")
	if !ok || f.Name != "pecan" {
		t.Fatalf("registered pecan factory = %q, %v", f.Name, ok)
	}
	k := simtime.NewVirtual()
	k.Run(func() {
		disk := storage.NewDisk(k, "disk", 10e9, 2)
		env := &loader.Env{
			RT:    k,
			CPU:   device.New(k, "cpu", 16),
			GPUs:  gpu.Pool(k, 1, gpu.A100, 40<<30),
			Store: &storage.Store{Disk: disk, Cache: storage.NewPageCache(64 << 30)},
			WG:    simtime.NewWaitGroup(k),
		}
		spec := loader.Spec{
			Dataset:    dataset.Subset(dataset.NewLibriSpeech(1, 5), 500),
			Pipeline:   transform.SpeechPipeline(3 * time.Second),
			BatchSize:  4,
			Iterations: 10,
			Seed:       1,
		}
		l := f.New(env, spec)
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			b, err := l.Next(context.Background(), 0)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range b.Samples {
				if s.NextTransform != spec.Pipeline.Len() {
					t.Fatal("sample not fully preprocessed after AutoOrder")
				}
			}
			n++
		}
		if n != 10 {
			t.Fatalf("delivered %d, want 10", n)
		}
		l.Stop()
		_ = env.WG.Wait(context.Background())
	})
}
