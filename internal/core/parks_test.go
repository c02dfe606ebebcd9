package core

import (
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

// TestParkBudgetPerSample pins what one delivered sample costs the kernel on
// the paper's headline (Speech-3s, 4×A100, MinatoLoader): a park is a
// coroutine round trip, the unit of host cost every layer shares, unless a
// wake step makes it in the task's turn. Today a sample parks once in the
// disk read, 1.2 times in the pipeline's CPU occupancy and once in its batch
// constructor's idle wait — 3.26 in all — and the constructor's wake step
// makes 0.96 of those, so they cost no switch. The bound leaves room for a
// few more; it does not leave room for a fourth park per sample (a feeder
// task handing over indices was exactly that: 4.23).
func TestParkBudgetPerSample(t *testing.T) {
	const iterations, maxParksPerSample = 200, 3.4
	k := simtime.NewVirtual()
	var rep *trainer.Report
	var err error
	k.Run(func() {
		tb := hardware.NewTestbed(k, hardware.ConfigA())
		f := trainer.Factory{Name: "minato", New: func(env *loader.Env, spec loader.Spec) loader.Loader {
			return New(env, spec, DefaultConfig())
		}}
		rep, err = trainer.Run(k, tb, workload.Speech(1, 3*time.Second).WithIterations(iterations), f, trainer.Params{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != iterations {
		t.Fatalf("delivered %d batches, want %d", rep.Batches, iterations)
	}
	st := k.Stats()
	perSample := float64(st.Parks) / float64(rep.Samples)
	t.Logf("%d samples: %d parks (%d timed, %d stepped), %d wakes, %d spawns — %.3f parks per sample",
		rep.Samples, st.Parks, st.TimedParks, st.Steps, st.Wakes, st.Spawns, perSample)
	if perSample > maxParksPerSample {
		t.Fatalf("%.3f parks per delivered sample, budget %.1f", perSample, maxParksPerSample)
	}
	if st.Wakes > st.Parks {
		t.Fatalf("%d wakes for %d parks: a wake readies a parked task once", st.Wakes, st.Parks)
	}
	// The exact counts: a change to a wait list or a wake source that adds,
	// drops or reorders a kernel event moves one of them.
	want := simtime.KernelStats{Spawns: 138, Parks: 15660, TimedParks: 10771, SelfWakes: 25, Wakes: 15660, Retimes: 91, Steps: 4603}
	if st != want {
		t.Fatalf("kernel counts %+v, want %+v", st, want)
	}
}
