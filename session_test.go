package minato

import (
	"context"
	"strings"
	"testing"
	"time"
)

// sessionDataset is a tiny in-memory dataset for session tests.
type sessionDataset struct{ n int }

func (d sessionDataset) Name() string { return "session-test" }
func (d sessionDataset) Len() int     { return d.n }
func (d sessionDataset) Sample(epoch, i int) *Sample {
	return &Sample{
		Index: i, Epoch: epoch,
		Key:      Key{Space: "session-test", Index: int64(i)},
		RawBytes: 1 << 16, Bytes: 1 << 16,
	}
}

func flatPipeline(cost time.Duration) *Pipeline {
	return NewPipeline("flat",
		NewTransform("step", func(*Sample) time.Duration { return cost }, nil))
}

func TestOpenDefaults(t *testing.T) {
	sess, err := Open(sessionDataset{n: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.spec.BatchSize; got != 32 {
		t.Errorf("default batch size = %d, want 32", got)
	}
	if sess.spec.Epochs != 1 || sess.spec.Iterations != 0 {
		t.Errorf("default budget = %d epochs / %d iterations, want 1/0",
			sess.spec.Epochs, sess.spec.Iterations)
	}
	if sess.spec.Seed != 1 {
		t.Errorf("default seed = %d, want 1", sess.spec.Seed)
	}
	if got := sess.ld.Name(); got != "minato" {
		t.Errorf("default loader = %q, want minato", got)
	}
	if got := len(sess.env.GPUs); got != 1 {
		t.Errorf("default GPUs = %d, want 1", got)
	}
}

func TestOpenValidation(t *testing.T) {
	cases := []struct {
		name string
		ds   Dataset
		opts []Option
		want string
	}{
		{"nil dataset", nil, nil, "requires a dataset"},
		{"negative batch", sessionDataset{n: 64}, []Option{WithBatchSize(-1)}, "batch size"},
		{"negative iterations", sessionDataset{n: 64}, []Option{WithIterations(-2)}, "iteration budget"},
		{"negative epochs", sessionDataset{n: 64}, []Option{WithEpochs(-2)}, "epoch budget"},
		{"batch exceeds dataset", sessionDataset{n: 8}, []Option{WithBatchSize(16)}, "exceeds dataset"},
		{"unknown loader", sessionDataset{n: 64}, []Option{WithLoader("tf.data")}, "unknown loader"},
		{"hw and env", sessionDataset{n: 64},
			[]Option{WithHardware(ConfigA()), WithEnv(EnvConfig{Cores: 2})}, "mutually exclusive"},
		{"name and factory", sessionDataset{n: 64},
			[]Option{WithLoader("pytorch"), WithLoaderFactory(Factory{Name: "custom"})}, "mutually exclusive"},
		{"config with baseline", sessionDataset{n: 64},
			[]Option{WithLoader("pytorch"), WithLoaderConfig(DefaultConfig())}, "WithLoaderConfig"},
		{"zero runtime", sessionDataset{n: 64}, []Option{WithRuntime(&Runtime{})}, "the zero Runtime"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(tc.ds, tc.opts...)
			if err == nil {
				t.Fatal("Open succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBatchesDeliversBudget runs the ISSUE's acceptance scenario: the
// iterator yields exactly the configured budget on the virtual runtime for
// MinatoLoader and a registered baseline.
func TestBatchesDeliversBudget(t *testing.T) {
	for _, loaderName := range []string{"minato", "pytorch"} {
		t.Run(loaderName, func(t *testing.T) {
			sess, err := Open(sessionDataset{n: 256},
				WithPipeline(flatPipeline(2*time.Millisecond)),
				WithBatchSize(8),
				WithIterations(20),
				WithLoader(loaderName),
			)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for b, err := range sess.Batches(context.Background()) {
				if err != nil {
					t.Fatal(err)
				}
				if b.Size() != 8 {
					t.Fatalf("batch size %d, want 8", b.Size())
				}
				n++
			}
			if n != 20 {
				t.Fatalf("iterator yielded %d batches, want 20", n)
			}
			rep, err := sess.Close()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Batches != 20 || rep.Samples != 160 {
				t.Fatalf("report: %d batches / %d samples, want 20/160", rep.Batches, rep.Samples)
			}
			if rep.Loader != loaderName {
				t.Fatalf("report loader %q, want %q", rep.Loader, loaderName)
			}
			if rep.TrainTime <= 0 {
				t.Fatal("report has no delivery time")
			}
		})
	}
}

func TestBatchesEpochBudget(t *testing.T) {
	sess, err := Open(sessionDataset{n: 64},
		WithPipeline(flatPipeline(time.Millisecond)),
		WithBatchSize(16),
		WithEpochs(3),
	)
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
	if n != 12 { // 64/16 × 3 epochs
		t.Fatalf("yielded %d batches, want 12", n)
	}
}

// TestBatchesMultiGPU drains a testbed session whose loader shards
// delivery across several per-GPU queues.
func TestBatchesMultiGPU(t *testing.T) {
	sess, err := Open(sessionDataset{n: 512},
		WithPipeline(flatPipeline(2*time.Millisecond)),
		WithBatchSize(8),
		WithIterations(24),
		WithHardware(ConfigA()),
		WithGPUs(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sess.env.GPUs); got != 2 {
		t.Fatalf("GPUs = %d, want 2", got)
	}
	n := 0
	for _, err := range sess.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 24 {
		t.Fatalf("yielded %d batches, want 24", n)
	}
}

func TestTrainResolvesThroughRegistry(t *testing.T) {
	rep, err := Train(workloadNamed("speech-3s", 1),
		WithLoader("pytorch"),
		WithIterations(20),
		WithGPUs(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loader != "pytorch" || rep.Workload != "speech-3s" {
		t.Fatalf("report %s × %s, want speech-3s × pytorch", rep.Workload, rep.Loader)
	}
	if rep.Batches != 20 {
		t.Fatalf("batches = %d, want 20", rep.Batches)
	}

	if _, ok := WorkloadByName("no-such-workload", 1); ok {
		t.Fatal("an unregistered workload resolved")
	}
	if _, err := Train(workloadNamed("speech-3s", 1), WithEnv(EnvConfig{})); err == nil {
		t.Fatal("Train accepted WithEnv")
	}
	if _, err := Train(workloadNamed("speech-3s", 1), WithRuntime(NewServiceNet(nil, ServiceNetConfig{}).Runtime())); err == nil {
		t.Fatal("Train accepted WithRuntime")
	}
	if _, err := Train(workloadNamed("speech-3s", 1), WithPipeline(flatPipeline(time.Millisecond))); err == nil {
		t.Fatal("Train accepted WithPipeline")
	}
}

// TestTrainOversizedBatchErrors guards the drop-last degenerate case: a
// batch larger than the dataset must fail fast instead of spinning the
// index source forever.
func TestTrainOversizedBatchErrors(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Train(workloadNamed("img-seg", 1), WithBatchSize(10000), WithIterations(2))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "exceeds dataset") {
			t.Fatalf("error = %v, want oversized-batch error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Train hung on oversized batch size")
	}
}
