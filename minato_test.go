package minato

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// workloadNamed is WorkloadByName for a name the test knows is registered.
func workloadNamed(name string, seed uint64) Workload {
	w, ok := WorkloadByName(name, seed)
	if !ok {
		panic("unregistered workload " + name)
	}
	return w
}

// TestPublicAPISession exercises the whole facade: simulate the paper's
// headline comparison at small scale through only exported identifiers.
func TestPublicAPISession(t *testing.T) {
	cfg := ConfigA().WithGPUs(2)
	w := SpeechWorkload(1, 3*time.Second).WithIterations(40)

	ptRep, err := Train(w, WithLoader("pytorch"), WithHardware(cfg))
	if err != nil {
		t.Fatal(err)
	}
	mnRep, err := Train(w, WithLoader("minato"), WithHardware(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if mnRep.TrainTime >= ptRep.TrainTime {
		t.Fatalf("minato (%v) not faster than pytorch (%v)", mnRep.TrainTime, ptRep.TrainTime)
	}
	if mnRep.Batches != 40 || ptRep.Batches != 40 {
		t.Fatalf("batch budgets: %d/%d", mnRep.Batches, ptRep.Batches)
	}
}

// TestPublicAPICustomLoader embeds the loader around a user-defined
// dataset and pipeline through the session API, as a downstream
// application would.
func TestPublicAPICustomLoader(t *testing.T) {
	pipeline := NewPipeline("custom",
		NewTransform("step", func(*Sample) time.Duration { return 5 * time.Millisecond }, nil))
	coco, _ := WorkloadByName("obj-det", 1)
	sess, err := Open(SubsetDataset(coco.Dataset, 64),
		WithEnv(EnvConfig{Cores: 4, CacheBytes: 4 << 30}),
		WithPipeline(pipeline),
		WithBatchSize(4),
		WithIterations(8),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for b, err := range sess.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if b.Size() != 4 {
			t.Fatalf("batch size %d", b.Size())
		}
		n++
	}
	if n != 8 {
		t.Fatalf("delivered %d batches, want 8", n)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDatasetHelpers reaches the paper's datasets the way callers do,
// through their registered workloads; internal/dataset's tests check their
// shapes and Replicate.
func TestDatasetHelpers(t *testing.T) {
	imgSeg, _ := WorkloadByName("img-seg", 1)
	d := imgSeg.Dataset
	if d.Len() != 210 {
		t.Fatalf("KiTS19 len = %d", d.Len())
	}
	if got := SubsetDataset(d, 10).Len(); got != 10 {
		t.Fatalf("subset len = %d", got)
	}
	objDet, _ := WorkloadByName("obj-det", 1)
	if LibriSpeech(1, 5).Len() == 0 || objDet.Dataset.Len() == 0 {
		t.Fatal("dataset constructors broken")
	}
}

// TestNewEnvDefaults checks the machine WithEnv(EnvConfig{}) sizes.
func TestNewEnvDefaults(t *testing.T) {
	env, _, _ := buildEnv(simtime.NewVirtual(), EnvConfig{})
	if env.CPU.Capacity() != 8 {
		t.Fatalf("default cores = %v", env.CPU.Capacity())
	}
	if len(env.GPUs) != 1 {
		t.Fatalf("default GPUs = %d", len(env.GPUs))
	}
	if env.Store == nil || env.WG == nil {
		t.Fatal("env not fully wired")
	}
}

func TestAllFactoriesNamed(t *testing.T) {
	for _, want := range []string{"pytorch", "pecan", "dali", "minato"} {
		if !slices.Contains(Loaders(), want) {
			t.Fatalf("missing factory %q in %v", want, Loaders())
		}
	}
}
