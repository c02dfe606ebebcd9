package loader

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/transform"
)

func testSpec(epochs, iters int) Spec {
	return Spec{
		Dataset:    dataset.Subset(dataset.NewCOCO(1), 100),
		Pipeline:   transform.ObjectDetectionPipeline(),
		BatchSize:  8,
		Epochs:     epochs,
		Iterations: iters,
		Seed:       7,
	}
}

func TestSpecBudgetsEpochMode(t *testing.T) {
	s := testSpec(3, 0)
	if s.BatchesPerEpoch() != 12 { // 100/8
		t.Fatalf("BatchesPerEpoch = %d", s.BatchesPerEpoch())
	}
	if s.TotalBatches() != 36 || s.TotalSamples() != 288 {
		t.Fatalf("totals = %d/%d", s.TotalBatches(), s.TotalSamples())
	}
}

func TestSpecBudgetsIterationMode(t *testing.T) {
	s := testSpec(0, 50)
	if s.TotalBatches() != 50 || s.TotalSamples() != 400 {
		t.Fatalf("totals = %d/%d", s.TotalBatches(), s.TotalSamples())
	}
}

func TestIndexSourceEmitsExactBudgetAndCloses(t *testing.T) {
	spec := testSpec(2, 0)
	is := NewIndexSource(spec)
	seen := 0
	var lastSeq int64 = -1
	epochCount := map[int]int{}
	for {
		it, err := is.Next()
		if err == queue.ErrClosed {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if it.Seq != lastSeq+1 {
			t.Fatalf("seq %d after %d", it.Seq, lastSeq)
		}
		lastSeq = it.Seq
		epochCount[it.Epoch]++
		seen++
	}
	if seen != spec.TotalSamples() {
		t.Fatalf("emitted %d, want %d", seen, spec.TotalSamples())
	}
	// drop_last: 96 of 100 indices per epoch.
	if epochCount[0] != 96 || epochCount[1] != 96 {
		t.Fatalf("per-epoch counts: %v", epochCount)
	}
	if _, err := is.Next(); err != queue.ErrClosed {
		t.Fatalf("Next after exhaustion = %v, want ErrClosed again", err)
	}
}

// drain draws is to its end.
func drain(is *IndexSource) []IndexItem {
	var out []IndexItem
	for {
		it, err := is.Next()
		if err != nil {
			return out
		}
		out = append(out, it)
	}
}

func TestIndexSourceShufflesPerEpoch(t *testing.T) {
	perEpoch := map[int][]int{}
	for _, it := range drain(NewIndexSource(testSpec(2, 0))) {
		perEpoch[it.Epoch] = append(perEpoch[it.Epoch], it.Index)
	}
	same := true
	for i := range perEpoch[0] {
		if perEpoch[0][i] != perEpoch[1][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epochs 0 and 1 used identical order: no reshuffle")
	}
	// No duplicate indices within an epoch.
	seen := map[int]bool{}
	for _, idx := range perEpoch[0] {
		if seen[idx] {
			t.Fatalf("index %d drawn twice in one epoch", idx)
		}
		seen[idx] = true
	}
}

func TestIterationModeWrapsEpochs(t *testing.T) {
	items := drain(NewIndexSource(testSpec(0, 30))) // 240 samples over a 96-per-epoch budget
	if len(items) != 240 {
		t.Fatalf("emitted %d, want 240", len(items))
	}
	if last := items[len(items)-1].Epoch; last != 2 {
		t.Fatalf("last epoch = %d, want 2 (240 = 96+96+48)", last)
	}
}

// TestIndexSourceSkipIsTheSuffix: a resumed stream is the uninterrupted one
// minus its first Skip batches, item for item — across an epoch boundary, on
// one, and past the whole budget.
func TestIndexSourceSkipIsTheSuffix(t *testing.T) {
	full := drain(NewIndexSource(testSpec(0, 30)))
	for _, skip := range []int{1, 7, 12, 13, 29, 30, 31} {
		spec := testSpec(0, 30)
		spec.Skip = skip
		got, want := drain(NewIndexSource(spec)), full[min(skip*spec.BatchSize, len(full)):]
		if !slices.Equal(got, want) {
			t.Fatalf("Skip=%d: %d items, want the last %d of the full stream", skip, len(got), len(want))
		}
	}
}

func TestIndexSourceCloseMidStream(t *testing.T) {
	is := NewIndexSource(testSpec(2, 0))
	for i := 0; i < 10; i++ {
		if _, err := is.Next(); err != nil {
			t.Fatal(err)
		}
	}
	is.Close()
	is.Close() // idempotent
	if it, err := is.Next(); err != queue.ErrClosed {
		t.Fatalf("Next after Close = %+v, %v; want ErrClosed", it, err)
	}
}

// TestIndexSourceSharedByTasks: 64 tasks drawing at one virtual instant see
// every Seq exactly once — the cursor needs no lock because one task runs at
// a time, and -race checks that claim.
func TestIndexSourceSharedByTasks(t *testing.T) {
	k := simtime.NewVirtual()
	spec := testSpec(0, 64) // 512 draws
	is := NewIndexSource(spec)
	seen := make([]int, spec.TotalSamples())
	k.Run(func() {
		wg := simtime.NewWaitGroup(k)
		for w := 0; w < 64; w++ {
			wg.Go("drawer", func() {
				for {
					it, err := is.Next()
					if err != nil {
						return
					}
					seen[it.Seq]++
					// Park every few draws so the tasks interleave.
					if it.Seq%3 == 0 {
						_ = k.Sleep(context.Background(), time.Nanosecond)
					}
				}
			})
		}
		_ = wg.Wait(context.Background())
	})
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("Seq %d drawn %d times", seq, n)
		}
	}
}

func TestIndexSourceDrawAllocatesNothing(t *testing.T) {
	spec := testSpec(0, 1000)
	drain(NewIndexSource(spec)) // fill the permutation cache for every epoch
	is := NewIndexSource(spec)
	if avg := testing.AllocsPerRun(5000, func() { _, _ = is.Next() }); avg != 0 {
		t.Fatalf("a draw allocates %.2f objects, want 0", avg)
	}
}

func TestEOFIfClosed(t *testing.T) {
	if err := EOFIfClosed(queue.ErrClosed); err.Error() != "EOF" {
		t.Fatalf("EOFIfClosed(ErrClosed) = %v", err)
	}
	sentinel := context.DeadlineExceeded
	if err := EOFIfClosed(sentinel); err != sentinel {
		t.Fatalf("EOFIfClosed passthrough = %v", err)
	}
}
