package core

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
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

// harness bundles a virtual kernel with a small testbed environment.
type harness struct {
	k   *simtime.Virtual
	env *loader.Env
}

func newHarness(cores float64, gpus int) *harness {
	k := simtime.NewVirtual()
	disk := storage.NewDisk(k, "disk", 10e9, 2)
	return &harness{
		k: k,
		env: &loader.Env{
			RT:    k,
			CPU:   device.New(k, "cpu", cores),
			GPUs:  gpu.Pool(k, gpus, gpu.A100, 40<<30),
			Store: &storage.Store{Disk: disk, Cache: storage.NewPageCache(64 << 30)},
			WG:    simtime.NewWaitGroup(k),
		},
	}
}

// bimodalSpec builds a spec over the speech dataset (20% heavy samples at
// 3s, 80% at ≈0.51s) — the canonical HOL-blocking workload.
func bimodalSpec(batch, iters int) loader.Spec {
	return loader.Spec{
		Dataset:    dataset.Subset(dataset.NewLibriSpeech(1, 5), 3000),
		Pipeline:   transform.SpeechPipeline(3 * time.Second),
		BatchSize:  batch,
		Iterations: iters,
		Seed:       1,
	}
}

// drainAll consumes every batch from all GPU queues and returns them in
// delivery order per GPU.
func drainAll(ctx context.Context, t *testing.T, l *Loader, gpus int) [][]*data.Batch {
	t.Helper()
	out := make([][]*data.Batch, gpus)
	wg := simtime.NewWaitGroup(l.env.RT)
	for g := 0; g < gpus; g++ {
		g := g
		wg.Go("consumer", func() {
			for {
				b, err := l.Next(ctx, g)
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Errorf("Next: %v", err)
					return
				}
				out[g] = append(out[g], b)
			}
		})
	}
	if err := wg.Wait(ctx); err != nil {
		t.Fatalf("consumers: %v", err)
	}
	return out
}

func TestDeliversExactBudget(t *testing.T) {
	h := newHarness(16, 2)
	h.k.Run(func() {
		spec := bimodalSpec(8, 12)
		l := New(h.env, spec, DefaultConfig())
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		batches := drainAll(context.Background(), t, l, 2)
		total := len(batches[0]) + len(batches[1])
		if total != 12 {
			t.Fatalf("delivered %d batches, want 12", total)
		}
		for _, bs := range batches {
			for _, b := range bs {
				if len(b.Samples) != 8 {
					t.Fatalf("batch size %d, want 8", len(b.Samples))
				}
				if !b.Resident {
					t.Fatal("minato batches must be GPU-resident (prefetch stream)")
				}
			}
		}
		l.Stop()
		_ = h.env.WG.Wait(context.Background())
	})
}

func TestHeavySamplesClassifiedSlowAfterWarmup(t *testing.T) {
	h := newHarness(16, 1)
	h.k.Run(func() {
		spec := bimodalSpec(6, 40)
		cfg := DefaultConfig()
		cfg.WarmupSamples = 24
		l := New(h.env, spec, cfg)
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		batches := drainAll(context.Background(), t, l, 1)
		var slowHeavy, slowLight, heavy, light int
		warmup := true
		for _, b := range batches[0] {
			for _, s := range b.Samples {
				// Skip samples processed during the optimistic warmup.
				if warmup {
					if s.MarkedSlow {
						warmup = false
					} else {
						continue
					}
				}
				if s.Features.Heavy {
					heavy++
					if s.MarkedSlow {
						slowHeavy++
					}
				} else {
					light++
					if s.MarkedSlow {
						slowLight++
					}
				}
			}
		}
		if heavy == 0 {
			t.Fatal("no heavy samples observed")
		}
		if slowHeavy < heavy*9/10 {
			t.Errorf("only %d/%d heavy samples classified slow", slowHeavy, heavy)
		}
		// P75 on a 20%-heavy distribution lands inside the light cluster,
		// so the slowest ~5 points of light samples classify slow by
		// design (§4.2 chooses P75 deliberately; the fallback guards
		// against gross skew, not this).
		if slowLight > light*15/100 {
			t.Errorf("%d/%d light samples misclassified slow (>15%%)", slowLight, light)
		}
		l.Stop()
		_ = h.env.WG.Wait(context.Background())
	})
}

func TestSlowSamplesResumeFromRecordedIndex(t *testing.T) {
	h := newHarness(16, 1)
	h.k.Run(func() {
		spec := bimodalSpec(6, 40)
		l := New(h.env, spec, DefaultConfig())
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		batches := drainAll(context.Background(), t, l, 1)
		resumed := 0
		for _, b := range batches[0] {
			for _, s := range b.Samples {
				if !s.MarkedSlow {
					continue
				}
				resumed++
				if s.TimesResumed == 0 {
					t.Fatal("slow sample never resumed")
				}
				// HeavyStep is transform index 6; the timeout fires inside
				// it, so resumption must start there, not at zero.
				if s.ResumedFrom == 0 {
					t.Errorf("slow sample restarted from scratch (ResumedFrom=0)")
				}
				if s.NextTransform != spec.Pipeline.Len() {
					t.Errorf("slow sample incomplete: next=%d", s.NextTransform)
				}
			}
		}
		if resumed == 0 {
			t.Fatal("no slow samples seen")
		}
		l.Stop()
		_ = h.env.WG.Wait(context.Background())
	})
}

// TestNoHeadOfLineBlocking pins the paper's core claim at the loader level:
// batch delivery continues while heavy samples preprocess in background.
func TestNoHeadOfLineBlocking(t *testing.T) {
	h := newHarness(8, 1)
	h.k.Run(func() {
		spec := bimodalSpec(4, 30)
		cfg := DefaultConfig()
		cfg.WarmupSamples = 8
		l := New(h.env, spec, cfg)
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Consume all batches, recording inter-arrival gaps after warmup.
		var gaps []time.Duration
		last := time.Duration(-1)
		for i := 0; i < 30; i++ {
			b, err := l.Next(context.Background(), 0)
			if err != nil {
				t.Fatalf("Next(%d): %v", i, err)
			}
			if i >= 10 { // past warmup
				if last >= 0 {
					gaps = append(gaps, b.CreatedAt-last)
				}
				last = b.CreatedAt
			} else {
				last = b.CreatedAt
			}
		}
		// With 8 workers and ≈0.5s fast samples, fast batches of 4 keep
		// flowing; no gap should approach a heavy sample's 3s cost.
		for _, g := range gaps {
			if g > 2500*time.Millisecond {
				t.Fatalf("delivery gap %v indicates head-of-line blocking", g)
			}
		}
		l.Stop()
		_ = h.env.WG.Wait(context.Background())
	})
}

func TestOrderPreservingModeDeliversInSamplerOrder(t *testing.T) {
	h := newHarness(16, 1)
	h.k.Run(func() {
		spec := bimodalSpec(4, 25)
		cfg := DefaultConfig()
		cfg.OrderPreserving = true
		l := New(h.env, spec, cfg)
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		batches := drainAll(context.Background(), t, l, 1)
		var prev int64 = -1
		for _, b := range batches[0] {
			for _, s := range b.Samples {
				if s.OriginalOrder != prev+1 {
					t.Fatalf("order break: sample %d after %d", s.OriginalOrder, prev)
				}
				prev = s.OriginalOrder
			}
		}
		if prev != 25*4-1 {
			t.Fatalf("last order = %d, want %d", prev, 25*4-1)
		}
		l.Stop()
		_ = h.env.WG.Wait(context.Background())
	})
}

func TestPairedModalityPreserved(t *testing.T) {
	h := newHarness(16, 1)
	h.k.Run(func() {
		spec := bimodalSpec(4, 10)
		l := New(h.env, spec, DefaultConfig())
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		batches := drainAll(context.Background(), t, l, 1)
		for _, b := range batches[0] {
			for _, s := range b.Samples {
				if s.Pair.IsZero() {
					t.Fatal("audio sample lost its paired transcript key")
				}
			}
		}
		l.Stop()
		_ = h.env.WG.Wait(context.Background())
	})
}

func TestAdaptiveWorkersGrowUnderCPUBottleneck(t *testing.T) {
	h := newHarness(64, 2)
	h.k.Run(func() {
		spec := bimodalSpec(8, 60)
		cfg := DefaultConfig()
		cfg.InitialWorkersPerGPU = 2 // start tiny: 4 workers
		l := New(h.env, spec, cfg)
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		start := l.Workers()
		drainAll(context.Background(), t, l, 2)
		// The speech workload saturates 4 workers; the scheduler must have
		// grown the pool well past the initial size at some point.
		grown := l.PeakWorkers()
		if grown <= start {
			t.Fatalf("workers did not grow: start=%d peak=%d", start, grown)
		}
		l.Stop()
		_ = h.env.WG.Wait(context.Background())
	})
}

func TestFixedWorkersWhenAdaptiveDisabled(t *testing.T) {
	h := newHarness(64, 2)
	h.k.Run(func() {
		spec := bimodalSpec(8, 30)
		cfg := DefaultConfig()
		cfg.InitialWorkersPerGPU = 3
		cfg.DisableAdaptiveWorkers = true
		l := New(h.env, spec, cfg)
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		drainAll(context.Background(), t, l, 2)
		if got := l.PeakWorkers(); got != 6 {
			t.Fatalf("peak workers = %d, want fixed 6", got)
		}
		l.Stop()
		_ = h.env.WG.Wait(context.Background())
	})
}

func TestStopMidRunDoesNotHang(t *testing.T) {
	h := newHarness(8, 1)
	h.k.Run(func() {
		spec := bimodalSpec(8, 1000)
		l := New(h.env, spec, DefaultConfig())
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Take a few batches, then stop early.
		for i := 0; i < 3; i++ {
			if _, err := l.Next(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
		}
		l.Stop()
		if err := h.env.WG.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Next(context.Background(), 0); err != io.EOF {
			t.Fatalf("Next after stop = %v, want EOF", err)
		}
	})
}

func TestSizeHeuristicClassifiesBySize(t *testing.T) {
	h := newHarness(16, 1)
	h.k.Run(func() {
		spec := loader.Spec{
			Dataset:    dataset.Subset(dataset.NewCOCO(1), 3000),
			Pipeline:   transform.ObjectDetectionPipeline(),
			BatchSize:  8,
			Iterations: 20,
			Seed:       1,
		}
		cfg := DefaultConfig()
		cfg.SizeHeuristicThreshold = 800 << 10 // 800 KB
		l := New(h.env, spec, cfg)
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		batches := drainAll(context.Background(), t, l, 1)
		for _, b := range batches[0] {
			for _, s := range b.Samples {
				wantSlow := s.RawBytes > 800<<10
				if s.MarkedSlow != wantSlow {
					t.Fatalf("sample size %dKB marked slow=%v", s.RawBytes>>10, s.MarkedSlow)
				}
			}
		}
		l.Stop()
		_ = h.env.WG.Wait(context.Background())
	})
}

// faultyTransform panics for specific sample indices — simulating a buggy
// user-defined transform.
type faultyTransform struct {
	inner   transform.Transform
	bad     func(*data.Sample) bool
	stepped int // the panics raised in a worker's wake step
}

func (f *faultyTransform) Name() string { return f.inner.Name() + "+faulty" }
func (f *faultyTransform) Cost(s *data.Sample) time.Duration {
	if f.bad(s) {
		if inStep() {
			f.stepped++
		}
		panic("injected transform fault")
	}
	return f.inner.Cost(s)
}

// inStep reports whether its caller runs in a worker's wake step: on the
// kernel's loop, in the task's turn, rather than on the task's own stack.
func inStep() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*worker).Step") {
			return true
		}
		if !more {
			return false
		}
	}
}

// checkContained checks what a run whose faults were contained leaves behind:
// each of the spec's draws was delivered in a batch or abandoned (the budget
// short only by a partial batch the faults left), the faults that struck in a
// wake step among them, and no task parked.
func checkContained(t *testing.T, h *harness, l *Loader, spec loader.Spec, delivered, stepped int) {
	t.Helper()
	total := int64(spec.TotalBatches() * spec.BatchSize)
	if l.emitted != total {
		t.Errorf("%d samples drawn, want the budget's %d", l.emitted, total)
	}
	if short := total - int64(delivered*spec.BatchSize) - l.Faults(); short < 0 || short >= int64(spec.BatchSize) {
		t.Errorf("%d batches of %d delivered with %d faults: %d of %d samples unaccounted for",
			delivered, spec.BatchSize, l.Faults(), short, total)
	}
	st := h.k.Stats()
	t.Logf("%d batches, %d faults (%d in a wake step), %d parks stepped", delivered, l.Faults(), stepped, st.Steps)
	if stepped == 0 || st.Steps == 0 {
		t.Errorf("%d of %d faults struck in a wake step, %d parks stepped: want both nonzero", stepped, l.Faults(), st.Steps)
	}
	if n := h.k.Tasks(); n != 0 {
		t.Errorf("%d tasks left after shutdown: %v", n, h.k.TaskNames())
	}
}
func (f *faultyTransform) SizeFactor(s *data.Sample) float64 { return f.inner.SizeFactor(s) }
func (f *faultyTransform) Barrier() bool                     { return f.inner.Barrier() }

// TestWorkerSurvivesPanickingTransform: a buggy transform must not take
// down the loader; the bad samples are abandoned, everything else flows,
// and shutdown stays clean. The panics strike in the task and in its wake
// step, where the transform's Cost runs on the kernel's loop.
func TestWorkerSurvivesPanickingTransform(t *testing.T) {
	h := newHarness(8, 1)
	var (
		l         *Loader
		spec      loader.Spec
		faulty    *faultyTransform
		delivered int
	)
	h.k.Run(func() {
		base := transform.SpeechPipeline(3 * time.Second)
		ts := base.Transforms()
		wrapped := make([]transform.Transform, len(ts))
		for i, tr := range ts {
			wrapped[i] = tr
		}
		// Every 50th sample poisons the first transform.
		faulty = &faultyTransform{inner: ts[0], bad: func(s *data.Sample) bool {
			return s.Index%50 == 0
		}}
		wrapped[0] = faulty
		spec = loader.Spec{
			Dataset:    dataset.Subset(dataset.NewLibriSpeech(1, 5), 1000),
			Pipeline:   transform.NewPipeline("faulty", wrapped...),
			BatchSize:  8,
			Iterations: 20,
			Seed:       1,
		}
		l = New(h.env, spec, DefaultConfig())
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		for {
			_, err := l.Next(context.Background(), 0)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			delivered++
		}
		// With abandoned samples the final batch budget may be short by a
		// batch, but most of the run must complete and faults be counted.
		if delivered < 18 {
			t.Fatalf("delivered %d batches, want ≥18 despite faults", delivered)
		}
		if l.Faults() == 0 {
			t.Fatal("faults not recorded")
		}
		l.Stop()
		if err := h.env.WG.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	checkContained(t, h, l, spec, delivered, faulty.stepped)
}

func TestRestartFromScratchAblationRedoesWork(t *testing.T) {
	h := newHarness(16, 1)
	h.k.Run(func() {
		spec := bimodalSpec(6, 30)
		cfg := DefaultConfig()
		cfg.RestartSlowFromScratch = true
		l := New(h.env, spec, cfg)
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		batches := drainAll(context.Background(), t, l, 1)
		sawRestart := false
		for _, b := range batches[0] {
			for _, s := range b.Samples {
				if s.MarkedSlow && s.ResumedFrom == 0 {
					sawRestart = true
				}
			}
		}
		if !sawRestart {
			t.Fatal("restart ablation never restarted from index 0")
		}
		l.Stop()
		_ = h.env.WG.Wait(context.Background())
	})
}

// rejectingTransform fails validation for specific samples — the cost-model
// analogue of a corrupt sample that errors (rather than panics) during
// preprocessing.
type rejectingTransform struct {
	transform.Transform
	bad     func(*data.Sample) bool
	stepped int // the rejections made in a worker's wake step
}

func (r *rejectingTransform) Validate(s *data.Sample) error {
	if r.bad(s) {
		if inStep() {
			r.stepped++
		}
		return errors.New("corrupt sample")
	}
	return nil
}

// rejectingSpec wraps the speech pipeline so every 50th dataset index fails
// validation with a plain error.
func rejectingSpec(batch, iters int) loader.Spec {
	base := transform.SpeechPipeline(3 * time.Second)
	ts := base.Transforms()
	wrapped := make([]transform.Transform, len(ts))
	copy(wrapped, ts)
	wrapped[0] = &rejectingTransform{Transform: ts[0], bad: func(s *data.Sample) bool {
		return s.Index%50 == 0
	}}
	return loader.Spec{
		Dataset:    dataset.Subset(dataset.NewLibriSpeech(1, 5), 1000),
		Pipeline:   transform.NewPipeline("rejecting", wrapped...),
		BatchSize:  8,
		Iterations: iters,
		Seed:       1,
	}
}

// TestWorkerSurvivesFailingSample: a per-sample error (not a panic) must not
// kill the worker. Before the fix, each error silently retired a worker and
// skewed the termination accounting (emitted > enqueued + abandoned), so the
// session never drained; this test hung. The rejections are made in the task
// and in its wake step alike.
func TestWorkerSurvivesFailingSample(t *testing.T) {
	h := newHarness(8, 1)
	spec := rejectingSpec(8, 20)
	var (
		l         *Loader
		delivered int
	)
	h.k.Run(func() {
		l = New(h.env, spec, DefaultConfig())
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		for {
			_, err := l.Next(context.Background(), 0)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			delivered++
		}
		if delivered < 18 {
			t.Fatalf("delivered %d batches, want ≥18 despite per-sample errors", delivered)
		}
		if l.Faults() == 0 {
			t.Fatal("per-sample errors not recorded as faults")
		}
		// The claim for any unassemblable tail batch must have been
		// released: the claim counter is an exact account of assembled
		// batches (regression for the leaked-claim bug).
		if got := l.claims; got != int64(delivered) {
			t.Fatalf("claims = %d, want %d (delivered batches)", got, delivered)
		}
		l.Stop()
		if err := h.env.WG.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	checkContained(t, h, l, spec, delivered, spec.Pipeline.Transforms()[0].(*rejectingTransform).stepped)
}

// TestOrderPreservingSkipsAbandonedSamples: with strict ordering, an
// abandoned draw must be tombstoned so the order advances past it instead of
// stalling every later sample forever.
func TestOrderPreservingSkipsAbandonedSamples(t *testing.T) {
	h := newHarness(8, 1)
	h.k.Run(func() {
		cfg := DefaultConfig()
		cfg.OrderPreserving = true
		l := New(h.env, rejectingSpec(8, 20), cfg)
		if err := l.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		var prev int64 = -1
		delivered := 0
		for {
			b, err := l.Next(context.Background(), 0)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			delivered++
			for _, s := range b.Samples {
				if s.OriginalOrder <= prev {
					t.Fatalf("order break: %d after %d", s.OriginalOrder, prev)
				}
				prev = s.OriginalOrder
			}
		}
		if delivered < 18 {
			t.Fatalf("delivered %d batches, want ≥18", delivered)
		}
		if l.Faults() == 0 {
			t.Fatal("expected faults")
		}
		l.Stop()
		if err := h.env.WG.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOrderedBufferWakesConsumers unit-tests the ordered buffer's wake
// source: a consumer parked on it wakes when the next-in-order slot fills or
// is skipped, at the exact virtual instant.
func TestOrderedBufferWakesConsumers(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		o := newOrderedBuffer()
		sel := simtime.NewSelector(k)
		wg := simtime.NewWaitGroup(k)
		s0 := &data.Sample{OriginalOrder: 0}
		s2 := &data.Sample{OriginalOrder: 2}
		wg.Go("consumer", func() {
			// Out-of-order arrival (seq 2 before 0) must not wake us early.
			if idx, err := sel.Select(context.Background(), 0, o); err != nil || idx != 0 {
				t.Errorf("Select = %d, %v", idx, err)
			}
			if k.Now() != 2*time.Millisecond {
				t.Errorf("woke at %v, want 2ms (when seq 0 arrived)", k.Now())
			}
			if got := o.takeNext(); got != s0 {
				t.Errorf("takeNext = %v, want seq 0", got)
			}
			// Seq 1 is abandoned: the skip must wake us at 3ms and takeNext
			// must cascade past the tombstone to seq 2.
			if idx, err := sel.Select(context.Background(), 0, o); err != nil || idx != 0 {
				t.Errorf("Select after skip = %d, %v", idx, err)
			}
			if k.Now() != 3*time.Millisecond {
				t.Errorf("woke at %v, want 3ms (when seq 1 was skipped)", k.Now())
			}
			if got := o.takeNext(); got != s2 {
				t.Errorf("takeNext after skip = %v, want seq 2", got)
			}
			if !o.empty() {
				t.Error("buffer should be empty after draining")
			}
		})
		wg.Go("producer", func() {
			_ = k.Sleep(context.Background(), time.Millisecond)
			o.add(s2)
			_ = k.Sleep(context.Background(), time.Millisecond)
			o.add(s0)
			_ = k.Sleep(context.Background(), time.Millisecond)
			o.skip(1)
		})
		_ = wg.Wait(context.Background())
	})
}
