package minato

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/workload"
)

// registryRuns makes the names TestRegistryRoundTrip registers unique per
// run: the registries are process-wide and have no unregister, so -count=2
// would otherwise panic on the duplicate.
var registryRuns atomic.Int64

// TestRegistryRoundTrip registers a custom loader and workload, resolves
// both by name, enumerates them, and runs them through the v2 entry
// points.
func TestRegistryRoundTrip(t *testing.T) {
	run := registryRuns.Add(1)
	loaderName := fmt.Sprintf("test-minato-lite-%d", run)
	workloadName := fmt.Sprintf("test-tiny-speech-%d", run)
	cfg := DefaultConfig()
	cfg.WarmupSamples = 8
	RegisterLoader(loaderName, loaders.Minato(cfg))
	RegisterWorkload(workloadName, func(seed uint64) Workload {
		w := SpeechWorkload(seed, 3*time.Second)
		return w.WithIterations(10)
	})

	if !slices.Contains(Loaders(), loaderName) {
		t.Fatalf("Loaders() = %v, missing %s", Loaders(), loaderName)
	}
	if !slices.Contains(Workloads(), workloadName) {
		t.Fatalf("Workloads() = %v, missing %s", Workloads(), workloadName)
	}
	f, ok := LoaderByName(loaderName)
	if !ok || f.Name != loaderName {
		t.Fatalf("LoaderByName = %+v, %v", f, ok)
	}
	w, ok := WorkloadByName(workloadName, 3)
	if !ok || w.Seed != 3 || w.Iterations != 10 {
		t.Fatalf("WorkloadByName = %+v, %v", w, ok)
	}

	// The registered pair drives a full training session end to end.
	rep, err := Train(workloadName, WithLoader(loaderName), WithGPUs(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loader != loaderName || rep.Batches != 10 {
		t.Fatalf("report %s / %d batches, want %s / 10", rep.Loader, rep.Batches, loaderName)
	}

	// And the registered loader serves Open sessions by name.
	sess, err := Open(SubsetDataset(LibriSpeech(1, 5), 64),
		WithLoader(loaderName), WithBatchSize(8), WithIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range sess.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Fatalf("session yielded %d batches, want 4", n)
	}
}

func TestBuiltinsRegistered(t *testing.T) {
	for _, name := range []string{"pytorch", "pecan", "dali", "minato"} {
		if _, ok := LoaderByName(name); !ok {
			t.Errorf("built-in loader %q not registered", name)
		}
	}
	for _, name := range []string{"img-seg", "obj-det", "speech-3s", "speech-10s"} {
		if _, ok := WorkloadByName(name, 1); !ok {
			t.Errorf("built-in workload %q not registered", name)
		}
	}
}

func TestDuplicateLoaderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterLoader did not panic")
		}
	}()
	f, _ := LoaderByName("minato")
	RegisterLoader("minato", f)
}

func TestDuplicateWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterWorkload did not panic")
		}
	}()
	RegisterWorkload("img-seg", workload.ImageSegmentation)
}
