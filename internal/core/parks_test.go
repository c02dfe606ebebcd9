package core_test

import (
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

// TestParkBudgetPerSample pins what one delivered sample costs the kernel on
// the paper's headline (Speech-3s, 4×A100) under MinatoLoader and under the
// two baselines it is compared with, and on a 64-GPU machine shaped like the
// fleet benchmark: a park gives up the kernel, and a switch — the loop
// resuming a task's coroutine, the unit of host cost every layer shares — is
// what a park costs unless the task's own timer was next (a self-wake) or a
// wake step made it in the task's turn. On the headline a MinatoLoader
// sample parks once in the disk read, 1.2 times in the pipeline's CPU
// occupancy and once in its batch constructor's idle wait — 3.26 in all —
// and the steps make nearly all of them: a worker's step walks the sample
// path from one occupancy to the next, and a constructor's takes each sample
// as it comes. So a sample costs 0.16 switches, 0.14 on 64 GPUs. The
// baselines walk their per-sample moves as steps too (loader.Path): a
// PyTorch worker its batch's reads and CPU occupancies, a DALI I/O worker
// read → ingest → report, its reader the loads' results and a GPU pipe its
// batches on the GPU, for 0.14 and 0.21 switches per sample; their parks
// are each a switch when the loaders wait them out in Wait loops (1.15 and
// 4.91). The switch bound leaves room for a few more; it does not leave room
// for a switch per sample on any loader's sample path, and the park bound
// none for a fourth MinatoLoader park per sample (a feeder task handing over
// indices was exactly that: 4.23).
func TestParkBudgetPerSample(t *testing.T) {
	for _, c := range []struct {
		name                  string
		loader                string
		gpus, iter            int
		maxParks, maxSwitches float64 // per sample
		want                  simtime.KernelStats
	}{
		{"headline", "minato", 4, 200, 3.4, 0.2, simtime.KernelStats{Spawns: 138, Parks: 15660, TimedParks: 10771, SelfWakes: 25, Wakes: 15660, Retimes: 91, Steps: 15017, Switches: 756}},
		{"fleet-64gpu", "minato", 64, 64 * 25, 3.4, 0.2, simtime.KernelStats{Spawns: 258, Parks: 126457, TimedParks: 86261, SelfWakes: 0, Wakes: 126457, Retimes: 267, Steps: 121226, Switches: 5489}},
		{"pytorch", "pytorch", 4, 200, 2.2, 0.3, simtime.KernelStats{Spawns: 18, Parks: 10258, TimedParks: 9992, SelfWakes: 4763, Wakes: 10258, Retimes: 19, Steps: 9620, Switches: 655}},
		{"dali", "dali", 4, 200, 5.1, 0.3, simtime.KernelStats{Spawns: 26, Parks: 24100, TimedParks: 11553, SelfWakes: 539, Wakes: 24100, Retimes: 10258, Steps: 23129, Switches: 996}},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := simtime.NewVirtual()
			var rep *trainer.Report
			var err error
			f, _ := loaders.ByName(c.loader)
			k.Run(func() {
				tb := hardware.NewTestbed(k, hardware.ConfigA().WithGPUs(c.gpus))
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
			switches := float64(st.Switches) / float64(rep.Samples)
			t.Logf("%d samples: %d parks (%d timed, %d self-woken, %d stepped), %d wakes, %d spawns, %d switches — %.3f parks and %.3f switches per sample",
				rep.Samples, st.Parks, st.TimedParks, st.SelfWakes, st.Steps, st.Wakes, st.Spawns, st.Switches, perSample, switches)
			if perSample > c.maxParks {
				t.Errorf("%.3f parks per delivered sample, budget %.1f", perSample, c.maxParks)
			}
			if switches > c.maxSwitches {
				t.Errorf("%.3f coroutine switches per delivered sample, budget %.1f", switches, c.maxSwitches)
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
