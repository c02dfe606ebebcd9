package trainer_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/loader/dali"
	"github.com/minatoloader/minato/internal/loader/pytorch"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trainer"
)

// TestSteadyStateAllocationsPerSample checks DESIGN.md's claim that the
// steady-state data path allocates nothing: a run of 2N iterations may
// allocate more than a run of N by at most 0.02 objects per extra sample.
// Setup — the kernel, the loader's tasks, queues and devices — is the same
// in both runs and cancels. A warm run of 2N first fills the process-wide
// free lists (coroutines, samples, page-cache nodes for every key either run
// reads), and the GC stays off so that the sync.Pools among them keep what
// it left.
func TestSteadyStateAllocationsPerSample(t *testing.T) {
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a random quarter of what it is given")
	}
	const n, maxPerSample = 60, 0.02
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, f := range []trainer.Factory{
		loaders.PyTorch(pytorch.DefaultConfig()),
		loaders.DALI(dali.DefaultConfig()),
		loaders.Minato(core.DefaultConfig()),
	} {
		t.Run(f.Name, func(t *testing.T) {
			run := func(iters int) (mallocs uint64, samples int64) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				m0 := ms.Mallocs
				rep, err := trainer.Simulate(testbedA(2), smallSpeech(iters), f, trainer.Params{})
				runtime.ReadMemStats(&ms)
				if err != nil {
					t.Fatal(err)
				}
				return ms.Mallocs - m0, rep.Samples
			}
			run(2 * n)
			// The least of three pairs: an allocation on the data path shows
			// in every pair, while a free list or sync.Pool that still grows
			// after the warm run, or lost a few objects to another P, shows
			// in some.
			per := math.Inf(1)
			for range 3 {
				m1, s1 := run(n)
				m2, s2 := run(2 * n)
				pair := (float64(m2) - float64(m1)) / float64(s2-s1)
				t.Logf("%d mallocs at %d samples, %d at %d: %.4f per extra sample", m1, s1, m2, s2, pair)
				per = min(per, pair)
			}
			if per > maxPerSample {
				t.Errorf("%.4f allocations per extra sample, want at most %v", per, maxPerSample)
			}
		})
	}
}

func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
