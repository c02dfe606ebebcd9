package loaders

import (
	"context"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/loader/dali"
	"github.com/minatoloader/minato/internal/loader/pytorch"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/transform"
	"github.com/minatoloader/minato/internal/workload"
)

func TestDefaultsOrderAndNames(t *testing.T) {
	fs := Defaults()
	want := []string{"pytorch", "pecan", "dali", "minato"}
	if len(fs) != len(want) {
		t.Fatalf("factories = %d", len(fs))
	}
	for i, w := range want {
		if fs[i].Name != w {
			t.Fatalf("factory[%d] = %s, want %s", i, fs[i].Name, w)
		}
		if fs[i].New == nil {
			t.Fatalf("factory %s has nil constructor", w)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"pytorch", "pecan", "dali", "minato"} {
		f, ok := ByName(name)
		if !ok || f.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, f.Name, ok)
		}
	}
	if _, ok := ByName("tf.data"); ok {
		t.Fatal("unknown loader resolved")
	}
}

func TestCustomConfigsAccepted(t *testing.T) {
	if f := PyTorch(pytorch.Config{Workers: 3}); f.Name != "pytorch" {
		t.Fatal("PyTorch factory")
	}
	if f := DALI(dali.Config{QueueDepth: 5}); f.Name != "dali" {
		t.Fatal("DALI factory")
	}
	if f := Pecan(); f.Name != "pecan" {
		t.Fatal("Pecan factory")
	}
	if f := Minato(core.Config{WarmupSamples: 5}); f.Name != "minato" {
		t.Fatal("Minato factory")
	}
}

// sessionEnv is a small single-GPU testbed on k.
func sessionEnv(k *simtime.Virtual) *loader.Env {
	tb := hardware.NewTestbed(k, hardware.ConfigA().WithGPUs(1))
	return &loader.Env{RT: k, CPU: tb.CPU, GPUs: tb.GPUs, Store: tb.Store,
		WG: simtime.NewWaitGroup(k), Pool: data.NewPool()}
}

// TestCancelledSessionTerminates: an index draw is a cursor step that checks
// no context, so a session whose context is cancelled — without Stop — must
// wind down through the operations that do observe it. A task left behind is a kernel
// deadlock report two seconds later. The same run shows no loader spends a
// task on feeding indices.
func TestCancelledSessionTerminates(t *testing.T) {
	for _, f := range Defaults() {
		t.Run(f.Name, func(t *testing.T) {
			k := simtime.NewVirtual()
			var (
				env    *loader.Env
				ld     loader.Loader
				ctx    context.Context
				cancel context.CancelFunc
			)
			k.Run(func() {
				env = sessionEnv(k)
				spec := workload.Speech(1, 3*time.Second).WithIterations(1000).Spec()
				ld = f.New(env, spec)
				var scope simtime.CancelScope
				ctx, cancel = scope.Begin(k, context.Background()), scope.Cancel
				if err := ld.Start(ctx); err != nil {
					t.Fatal(err)
				}
			})
			if names := k.TaskNames(); slices.Contains(names, "index-source") {
				t.Errorf("tasks %v: the index stream is a cursor, not a task", names)
			}
			k.Run(func() {
				for i := 0; i < 3; i++ {
					b, err := ld.Next(ctx, 0)
					if err != nil {
						t.Fatal(err)
					}
					b.Release()
				}
				cancel()
				if err := env.WG.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			})
			// Run returns when its body has, which can be a moment before
			// the kernel retires the task that carried it: wait for that.
			// A task the session left behind turns this wait into the
			// deadlock report, by name.
			k.Drain()
		})
	}
}

// TestStepPanicNamesItsTask: a baseline's tasks run user code (a transform's
// Cost) inside wake steps, on the kernel loop's stack. A panic there still
// crashes the process as a panic of the task the step served, by name, as it
// did when the task ran that code itself — not as an unnamed panic of the
// loop, and not as a hang. Each loader runs in a child process of this test
// binary, which the panic ends.
func TestStepPanicNamesItsTask(t *testing.T) {
	const childEnv = "MINATO_STEP_PANIC_LOADER"
	if name := os.Getenv(childEnv); name != "" {
		panicInStep(name)
		t.Fatal("the loader ran to its end through a panicking transform")
	}
	for _, c := range []struct{ loader, task string }{
		{"pytorch", "pytorch-worker"},
		{"dali", "dali-gpu-pipe"},
	} {
		t.Run(c.loader, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestStepPanicNamesItsTask$")
			cmd.Env = append(os.Environ(), childEnv+"="+c.loader)
			out, err := cmd.CombinedOutput()
			want := `simtime: task "` + c.task + `" panicked: transform panics on sample 50`
			if err == nil || !strings.Contains(string(out), want) {
				t.Fatalf("child ended with %v, output lacks %q:\n%s", err, want, out)
			}
		})
	}
}

// panicInStep runs the named loader over a pipeline whose transform panics
// on its 50th sample, long after every task parked in its step.
func panicInStep(name string) {
	f, _ := ByName(name)
	n := 0
	boom := transform.NewTransform("boom", func(*data.Sample) time.Duration {
		if n++; n == 50 {
			panic("transform panics on sample 50")
		}
		return time.Millisecond
	}, nil)
	k := simtime.NewVirtual()
	k.Run(func() {
		spec := workload.Speech(1, 3*time.Second).WithIterations(20).Spec()
		spec.Pipeline = transform.NewPipeline("boom", boom)
		ld := f.New(sessionEnv(k), spec)
		ctx := context.Background()
		_ = ld.Start(ctx)
		for b, err := ld.Next(ctx, 0); err == nil; b, err = ld.Next(ctx, 0) {
			b.Release()
		}
	})
}
