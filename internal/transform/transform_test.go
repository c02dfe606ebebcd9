package transform

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/simtime"
)

func constTransform(name string, cost time.Duration, factor float64) Transform {
	return NewTransform(name,
		func(*data.Sample) time.Duration { return cost },
		func(*data.Sample) float64 { return factor })
}

func testSample(raw int64) *data.Sample {
	return &data.Sample{Index: 0, Key: data.KeyOf("t", 0), RawBytes: raw, Bytes: raw}
}

func TestPlanRunsAllTransformsAndUpdatesSize(t *testing.T) {
	p := NewPipeline("p",
		constTransform("a", 10*time.Millisecond, 0.5),
		constTransform("b", 20*time.Millisecond, 4),
	)
	s := testSample(100 << 20)
	work, err := p.Plan(s, -1)
	if err != nil {
		t.Fatal(err)
	}
	if work != 30*time.Millisecond {
		t.Errorf("work = %v, want 30ms", work)
	}
	if s.Bytes != 200<<20 {
		t.Errorf("Bytes = %d, want 200MB", s.Bytes>>20)
	}
	if s.NextTransform != 2 || s.PreprocCost != 30*time.Millisecond {
		t.Errorf("NextTransform=%d PreprocCost=%v", s.NextTransform, s.PreprocCost)
	}
}

func TestPlanInterruptsMidTransform(t *testing.T) {
	p := NewPipeline("p",
		constTransform("fast", 10*time.Millisecond, 1),
		constTransform("slow", 100*time.Millisecond, 1),
		constTransform("tail", 5*time.Millisecond, 1),
	)
	s := testSample(1 << 20)
	work, err := p.Plan(s, 30*time.Millisecond)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	// Consumed exactly the budget: 10ms (fast) + 20ms partial slow.
	if work != 30*time.Millisecond {
		t.Errorf("work = %v, want 30ms (budget)", work)
	}
	// Resume index points at the interrupted transform, to be re-executed.
	if s.NextTransform != 1 {
		t.Errorf("NextTransform = %d, want 1", s.NextTransform)
	}

	// Background completion re-executes "slow" in full.
	work, err = p.Plan(s, -1)
	if err != nil {
		t.Fatal(err)
	}
	if work != 105*time.Millisecond {
		t.Errorf("resume work = %v, want 105ms (full slow + tail)", work)
	}
	if s.NextTransform != 3 {
		t.Errorf("NextTransform = %d, want 3", s.NextTransform)
	}
}

func TestPlanCompletesWithinBudget(t *testing.T) {
	p := NewPipeline("p", constTransform("a", 10*time.Millisecond, 1))
	s := testSample(1 << 20)
	work, err := p.Plan(s, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if work != 10*time.Millisecond {
		t.Errorf("work = %v", work)
	}
}

func TestPlanZeroBudgetInterruptsImmediately(t *testing.T) {
	p := NewPipeline("p", constTransform("a", 10*time.Millisecond, 1))
	s := testSample(1 << 20)
	work, err := p.Plan(s, 0)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v", err)
	}
	if work != 0 || s.NextTransform != 0 {
		t.Errorf("work=%v next=%d", work, s.NextTransform)
	}
}

func TestTotalCostDoesNotMutateSample(t *testing.T) {
	p := ImageSegmentationPipeline()
	s := testSample(136 << 20)
	before := *s
	_ = p.TotalCost(s)
	if *s != before {
		t.Fatal("TotalCost mutated the sample")
	}
}

func TestPipelineOnRealDevice(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		cpu := device.New(k, "cpu", 2)
		p := NewPipeline("p",
			constTransform("a", 1*time.Second, 1),
			constTransform("b", 2*time.Second, 1),
		)
		s := testSample(1 << 20)
		start := k.Now()
		work, err := p.Plan(s, -1)
		if err != nil {
			t.Fatal(err)
		}
		if err := cpu.Run(context.Background(), work); err != nil {
			t.Fatal(err)
		}
		if got := (k.Now() - start).Seconds(); got < 3 || got > 3.01 {
			t.Errorf("elapsed = %.3fs, want ≈3s", got)
		}
	})
}

func TestAutoOrderPartitionsWithinBarriers(t *testing.T) {
	defl := constTransform("defl", 0, 0.5)
	neut := constTransform("neut", 0, 1)
	infl := constTransform("infl", 0, 2)
	barrier := NewBarrier("barrier")
	s := testSample(1 << 20)

	got := AutoOrder([]Transform{infl, neut, defl}, s)
	wantNames := []string{"defl", "neut", "infl"}
	for i, w := range wantNames {
		if got[i].Name() != w {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, got[i].Name(), w, names(got))
		}
	}

	// Reordering must not cross barriers.
	got = AutoOrder([]Transform{infl, barrier, defl, infl}, s)
	want := []string{"infl", "barrier", "defl", "infl"}
	for i, w := range want {
		if got[i].Name() != w {
			t.Fatalf("barrier order = %v, want %v", names(got), want)
		}
	}
}

func TestAutoOrderSpeechMovesPadToEnd(t *testing.T) {
	p := SpeechPipeline(3 * time.Second)
	s := testSample(200 << 10)
	got := AutoOrder(p.Transforms(), s)
	// Pad is inflationary: it must come after all neutral transforms.
	padPos, lightPos := -1, -1
	for i, tr := range got {
		switch tr.Name() {
		case "Pad":
			padPos = i
		case "LightStep":
			lightPos = i
		}
	}
	if padPos < lightPos {
		t.Fatalf("Pad at %d before LightStep at %d: %v", padPos, lightPos, names(got))
	}
}

func TestAutoOrderResizeDynamicClassification(t *testing.T) {
	p := ObjectDetectionPipeline()
	big := testSample(1 << 20)     // 1 MB: Resize deflates → stays early
	small := testSample(200 << 10) // 0.2 MB: Resize inflates → moves late
	gotBig := AutoOrder(p.Transforms(), big)
	gotSmall := AutoOrder(p.Transforms(), small)
	if gotBig[0].Name() != "Resize" {
		t.Errorf("big sample order = %v, want Resize first", names(gotBig))
	}
	if gotSmall[len(gotSmall)-1].Name() != "Resize" &&
		gotSmall[len(gotSmall)-2].Name() != "Resize" {
		t.Errorf("small sample order = %v, want Resize late", names(gotSmall))
	}
}

func TestImageSegmentationIsOptimallyOrdered(t *testing.T) {
	// §5.1: AutoOrder leaves the image segmentation pipeline unchanged
	// (deflationary RandomCrop already first).
	p := ImageSegmentationPipeline()
	s := testSample(136 << 20)
	got := AutoOrder(p.Transforms(), s)
	for i, tr := range p.Transforms() {
		if got[i].Name() != tr.Name() {
			t.Fatalf("AutoOrder changed img-seg pipeline: %v", names(got))
		}
	}
}

func TestHeavyStepAppliesOnlyToHeavySamples(t *testing.T) {
	p := SpeechPipeline(3 * time.Second)
	light := testSample(200 << 10)
	heavy := testSample(200 << 10)
	heavy.Features.Heavy = true
	lc, hc := p.TotalCost(light), p.TotalCost(heavy)
	if lc > 600*time.Millisecond {
		t.Errorf("light sample cost = %v, want ≈0.51s", lc)
	}
	if hc < 2900*time.Millisecond || hc > 3100*time.Millisecond {
		t.Errorf("heavy sample cost = %v, want ≈3s", hc)
	}
}

func names(ts []Transform) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name()
	}
	return out
}
