package dataset

import (
	"testing"
	"testing/quick"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/metrics"
)

func TestKiTS19Shape(t *testing.T) {
	d := NewKiTS19(1)
	if d.Len() != 210 {
		t.Fatalf("Len = %d, want 210", d.Len())
	}
	var w metrics.Welford
	for i := 0; i < d.Len(); i++ {
		s := d.Sample(0, i)
		mb := float64(s.RawBytes) / (1 << 20)
		if mb < 30 || mb > 375 {
			t.Fatalf("sample %d size %.1f MB out of [30,375]", i, mb)
		}
		w.Add(mb)
	}
	if w.Mean() < 110 || w.Mean() > 160 {
		t.Errorf("mean size = %.1f MB, want ≈136", w.Mean())
	}
	// Total ≈ 29 GB.
	total := float64(TotalBytes(d)) / (1 << 30)
	if total < 22 || total > 35 {
		t.Errorf("total = %.1f GB, want ≈29", total)
	}
}

func TestCOCOShape(t *testing.T) {
	d := NewCOCO(1)
	if d.Len() != 118287 {
		t.Fatalf("Len = %d", d.Len())
	}
	var w metrics.Welford
	for i := 0; i < 20000; i++ {
		s := d.Sample(0, i)
		mb := float64(s.RawBytes) / (1 << 20)
		if mb < 0.1 || mb > 1.0 {
			t.Fatalf("sample %d size %.2f MB out of [0.1,1]", i, mb)
		}
		w.Add(mb)
	}
	if w.Mean() < 0.7 || w.Mean() > 0.9 {
		t.Errorf("mean = %.2f MB, want ≈0.8", w.Mean())
	}
}

func TestLibriSpeechShapeAndPairs(t *testing.T) {
	d := NewLibriSpeech(1, 5)
	var heavy int
	const n = 10000
	for i := 0; i < n; i++ {
		s := d.Sample(0, i)
		mb := float64(s.RawBytes) / (1 << 20)
		if mb < 0.0599 || mb > 0.3401 {
			t.Fatalf("sample %d size %.3f MB out of range", i, mb)
		}
		if s.Pair.IsZero() {
			t.Fatal("speech sample missing paired transcript key")
		}
		if s.Features.Heavy {
			heavy++
		}
	}
	if heavy != n/5 {
		t.Errorf("heavy = %d, want exactly %d (every 5th)", heavy, n/5)
	}
}

func TestLibriSpeechFraction(t *testing.T) {
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		d := NewLibriSpeechFraction(1, frac)
		heavy := 0
		const n = 10000
		for i := 0; i < n; i++ {
			if d.Sample(0, i).Features.Heavy {
				heavy++
			}
		}
		got := float64(heavy) / n
		if got < frac-0.02 || got > frac+0.02 {
			t.Errorf("fraction %.2f: got %.3f heavy", frac, got)
		}
	}
}

func TestSampleDeterministicAcrossCallsAndEpochs(t *testing.T) {
	d := NewKiTS19(7)
	a := d.Sample(0, 42)
	b := d.Sample(3, 42)
	if a.RawBytes != b.RawBytes || a.Features != b.Features || a.Key != b.Key {
		t.Fatal("sample properties differ across epochs")
	}
	if b.Epoch != 3 {
		t.Fatal("epoch not stamped")
	}
	// Fresh instances: mutating one must not affect the other.
	a.Bytes = 1
	if d.Sample(0, 42).Bytes == 1 {
		t.Fatal("Sample returned shared state")
	}
}

func TestSeedChangesDraws(t *testing.T) {
	a := NewKiTS19(1).Sample(0, 0)
	b := NewKiTS19(2).Sample(0, 0)
	if a.RawBytes == b.RawBytes && a.Features.Complexity == b.Features.Complexity {
		t.Fatal("different seeds produced identical sample")
	}
}

func TestSubset(t *testing.T) {
	d := Subset(NewCOCO(1), 100)
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
	if got := Subset(NewKiTS19(1), 10000).Len(); got != 210 {
		t.Fatalf("oversized subset Len = %d, want 210", got)
	}
}

func TestReplicateDistinctKeysSameContent(t *testing.T) {
	base := NewKiTS19(1)
	r := Replicate(base, 8)
	if r.Len() != 210*8 {
		t.Fatalf("Len = %d", r.Len())
	}
	s0 := r.Sample(0, 5)
	s1 := r.Sample(0, 5+210)
	if s0.Key == s1.Key {
		t.Fatal("replicas share cache keys")
	}
	if s0.RawBytes != s1.RawBytes {
		t.Fatal("replicas differ in content size")
	}
	if s1.Index != 5+210 {
		t.Fatalf("replica index = %d", s1.Index)
	}
	// ≈230 GB as in §5.5.
	gb := float64(TotalBytes(r)) / (1 << 30)
	if gb < 180 || gb > 280 {
		t.Errorf("replicated total = %.0f GB, want ≈230", gb)
	}
}

func TestShardPartitionsDataset(t *testing.T) {
	base := NewKiTS19(1)
	const n = 4
	seen := map[data.Key]int{}
	total := 0
	for i := 0; i < n; i++ {
		sh := Shard(base, i, n)
		total += sh.Len()
		for j := 0; j < sh.Len(); j++ {
			seen[sh.Sample(0, j).Key]++
		}
	}
	if total != base.Len() {
		t.Fatalf("shards cover %d samples, want %d", total, base.Len())
	}
	if len(seen) != base.Len() {
		t.Fatalf("distinct keys = %d, want %d (no overlap)", len(seen), base.Len())
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %s in %d shards", k, c)
		}
	}
	// Shard of 1 is identity.
	if Shard(base, 0, 1) != Dataset(base) {
		t.Fatal("Shard(_,0,1) should return the dataset unchanged")
	}
	// Local indices are re-based.
	if got := Shard(base, 2, n).Sample(0, 3).Index; got != 3 {
		t.Fatalf("shard-local index = %d, want 3", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range index")
		}
	}()
	NewKiTS19(1).Sample(0, 210)
}

// Property: sizes always within declared bounds for arbitrary seeds.
func TestQuickSizesBounded(t *testing.T) {
	f := func(seed uint64, idx uint16) bool {
		i := int(idx) % 210
		s := NewKiTS19(seed).Sample(0, i)
		mbv := float64(s.RawBytes) / (1 << 20)
		return mbv >= 30 && mbv <= 375
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
