package core_test

import (
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

// TestParkBudgetPerSample pins what one delivered sample costs the kernel on
// the paper's headline (Speech-3s, 4×A100, MinatoLoader) and on a 64-GPU
// machine shaped like the fleet benchmark: a park is a coroutine round trip,
// the unit of host cost every layer shares, unless the task's own timer was
// next (a self-wake) or a wake step made it in the task's turn. On the
// headline a sample parks once in the disk read, 1.2 times in the pipeline's
// CPU occupancy and once in its batch constructor's idle wait — 3.26 in all
// — and the steps make nearly all of them: a worker's step walks the sample
// path from one occupancy to the next, and a constructor's takes each sample
// as it comes. So a sample costs 0.13 round trips, 0.14 on 64 GPUs (2.30 and
// 2.33 before the worker's step, 3.26 before the constructor's: every kernel
// count but Steps is what it was). The switch bound leaves room
// for a few more; it does not leave room for a switch per sample on the
// sample path, and the park bound none for a fourth park per sample (a feeder
// task handing over indices was exactly that: 4.23).
func TestParkBudgetPerSample(t *testing.T) {
	const maxParksPerSample, maxSwitchesPerSample = 3.4, 0.2
	for _, c := range []struct {
		name       string
		gpus, iter int
		want       simtime.KernelStats
	}{
		{"headline", 4, 200, simtime.KernelStats{Spawns: 138, Parks: 15660, TimedParks: 10771, SelfWakes: 25, Wakes: 15660, Retimes: 91, Steps: 15017}},
		{"fleet-64gpu", 64, 64 * 25, simtime.KernelStats{Spawns: 258, Parks: 126457, TimedParks: 86261, SelfWakes: 0, Wakes: 126457, Retimes: 267, Steps: 121226}},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := simtime.NewVirtual()
			var rep *trainer.Report
			var err error
			k.Run(func() {
				tb := hardware.NewTestbed(k, hardware.ConfigA().WithGPUs(c.gpus))
				f := trainer.Factory{Name: "minato", New: func(env *loader.Env, spec loader.Spec) loader.Loader {
					return core.New(env, spec, core.DefaultConfig())
				}}
				rep, err = trainer.Run(k, tb, workload.Speech(1, 3*time.Second).WithIterations(c.iter), f, trainer.Params{})
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Batches != int64(c.iter) {
				t.Fatalf("delivered %d batches, want %d", rep.Batches, c.iter)
			}
			st := k.Stats()
			perSample := float64(st.Parks) / float64(rep.Samples)
			switches := float64(st.Parks-st.SelfWakes-st.Steps) / float64(rep.Samples)
			t.Logf("%d samples: %d parks (%d timed, %d self-woken, %d stepped), %d wakes, %d spawns — %.3f parks and %.3f switches per sample",
				rep.Samples, st.Parks, st.TimedParks, st.SelfWakes, st.Steps, st.Wakes, st.Spawns, perSample, switches)
			if perSample > maxParksPerSample {
				t.Errorf("%.3f parks per delivered sample, budget %.1f", perSample, maxParksPerSample)
			}
			if switches > maxSwitchesPerSample {
				t.Errorf("%.3f coroutine switches per delivered sample, budget %.1f", switches, maxSwitchesPerSample)
			}
			if st.Wakes > st.Parks {
				t.Errorf("%d wakes for %d parks: a wake readies a parked task once", st.Wakes, st.Parks)
			}
			// The exact counts: a change to a wait list or a wake source that
			// adds, drops or reorders a kernel event moves one of them.
			if st != c.want {
				t.Errorf("kernel counts %+v, want %+v", st, c.want)
			}
		})
	}
}
