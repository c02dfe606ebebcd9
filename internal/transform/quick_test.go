package transform

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/minatoloader/minato/internal/data"
)

// Property: for any pipeline and any budget, a budgeted Plan followed by an
// unbudgeted one performs at least the pipeline's nominal work, consumes
// exactly the budget on interruption, and leaves the sample fully processed;
// the overhead versus one unbudgeted Plan is bounded by one transform's cost
// (the re-executed partial, Algorithm 1).
func TestQuickBudgetResumeInvariants(t *testing.T) {
	f := func(costsRaw []uint8, budgetRaw uint16) bool {
		costs := costsRaw
		if len(costs) == 0 {
			costs = []uint8{10}
		}
		if len(costs) > 8 {
			costs = costs[:8]
		}
		ts := make([]Transform, len(costs))
		var nominal time.Duration
		for i, c := range costs {
			d := time.Duration(c%50+1) * time.Millisecond
			nominal += d
			ts[i] = constQuick(d)
		}
		p := NewPipeline("q", ts...)
		budget := time.Duration(budgetRaw%300) * time.Millisecond

		s := &data.Sample{Key: data.KeyOf("q", 0), RawBytes: 1 << 20, Bytes: 1 << 20}
		work, err := p.Plan(s, budget)
		switch {
		case err == nil:
			// Completed within budget: work == nominal, everything done.
			return work == nominal && s.NextTransform == len(ts)
		case errors.Is(err, ErrInterrupted):
			if work != budget {
				return false // must consume exactly the budget
			}
			idx := s.NextTransform
			if idx < 0 || idx >= len(ts) {
				return false
			}
			// Background completion.
			rest, err := p.Plan(s, -1)
			if err != nil {
				return false
			}
			work += rest
			if s.NextTransform != len(ts) {
				return false
			}
			// Total work = nominal + wasted partial; waste < interrupted
			// transform's full cost ≤ max transform cost.
			waste := work - nominal
			return waste >= 0 && waste <= 51*time.Millisecond
		default:
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AutoOrder is a permutation and never moves a transform across
// a barrier.
func TestQuickAutoOrderPermutationAndBarriers(t *testing.T) {
	f := func(kinds []uint8) bool {
		if len(kinds) > 10 {
			kinds = kinds[:10]
		}
		ts := make([]Transform, len(kinds))
		for i, k := range kinds {
			switch k % 4 {
			case 0:
				ts[i] = NewTransform("defl", nil, func(*data.Sample) float64 { return 0.5 })
			case 1:
				ts[i] = NewTransform("neut", nil, nil)
			case 2:
				ts[i] = NewTransform("infl", nil, func(*data.Sample) float64 { return 2 })
			default:
				ts[i] = NewBarrier("barrier")
			}
		}
		s := &data.Sample{Bytes: 1 << 20, RawBytes: 1 << 20}
		got := AutoOrder(ts, s)
		if len(got) != len(ts) {
			return false
		}
		// Permutation: count by identity.
		seen := map[Transform]int{}
		for _, tr := range ts {
			seen[tr]++
		}
		for _, tr := range got {
			seen[tr]--
		}
		for _, c := range seen {
			if c != 0 {
				return false
			}
		}
		// Barriers keep their positions.
		for i := range ts {
			if ts[i].Barrier() != got[i].Barrier() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func constQuick(d time.Duration) Transform {
	return NewTransform("t", func(*data.Sample) time.Duration { return d }, nil)
}
