// Package gpu models training accelerators on top of the shared-capacity
// device abstraction. A GPU executes train steps, (for DALI) preprocessing
// kernels, and host-to-device copies. Its compute device has capacity
// slightly above 1: two concurrent CUDA streams make some progress in
// parallel but contend for SMs, reproducing §3.5's observation that GPU
// preprocessing interferes with training (Takeaway 5).
package gpu

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/simtime"
)

// Arch describes a GPU architecture. Speed is relative to an A100: work
// durations are specified in A100-seconds and divided by Speed.
type Arch struct {
	Name  string
	Speed float64
}

// The two architectures of the paper's testbeds (§3).
var (
	A100 = Arch{Name: "A100", Speed: 1.0}
	V100 = Arch{Name: "V100", Speed: 0.50}
)

// streamCapacity models imperfect overlap of concurrent CUDA streams:
// two streams progress at 0.65× each rather than 0.5× (some overlap
// benefit) or 1× (no contention).
const streamCapacity = 1.3

// ErrOutOfMemory is returned when a reservation exceeds GPU memory.
var ErrOutOfMemory = errors.New("gpu: out of memory")

// GPU is one simulated accelerator.
type GPU struct {
	ID   int
	Arch Arch

	compute *device.Device

	memCap   int64 // plain from here on: a GPU is used by the tasks of one kernel
	memUsed  int64
	memPeak  int64
	trainSec float64 // cumulative A100-normalized train work
}

// New returns a GPU with the given architecture and memory capacity. Its
// compute device is named after the architecture: a name per GPU would be
// formatted on every run, for a field nothing reads on the run's path.
func New(rt *simtime.Virtual, id int, arch Arch, memBytes int64) *GPU {
	g := &GPU{
		ID: id, Arch: arch,
		compute: device.New(rt, arch.Name, streamCapacity),
		memCap:  memBytes,
	}
	g.SetNode(0)
	return g
}

// SetNode labels the GPU as one of the given node's. On a traced kernel a GPU
// records a StageDeviceRun occupancy span for every kernel (train step,
// preprocessing, copy) it executes: tenant 0, its node, and its ID as Key.
// The per-tenant step anatomy comes from consumer-side spans.
func (g *GPU) SetNode(node int32) { g.compute.TraceAs(0, node, int64(g.ID)) }

// Train occupies the GPU for an A100-normalized work duration.
func (g *GPU) Train(ctx context.Context, work time.Duration) error {
	g.trainSec += work.Seconds()
	return g.compute.Run(ctx, g.scale(work))
}

// Preprocess occupies the GPU with preprocessing kernels (DALI's offload
// path). It contends with Train through the shared stream capacity.
func (g *GPU) Preprocess(ctx context.Context, work time.Duration) error {
	return g.compute.Run(ctx, g.scale(work))
}

func (g *GPU) scale(work time.Duration) time.Duration {
	return time.Duration(float64(work) / g.Arch.Speed)
}

// Executor adapts the GPU's preprocessing path to transform.Executor.
type Executor struct{ G *GPU }

// Run implements transform.Executor.
func (e Executor) Run(ctx context.Context, work time.Duration) error {
	return e.G.Preprocess(ctx, work)
}

// Reserve claims GPU memory (prefetch buffers, preprocessing workspace).
func (g *GPU) Reserve(bytes int64) error {
	if g.memUsed+bytes > g.memCap {
		return fmt.Errorf("%w: used %d + %d > cap %d", ErrOutOfMemory, g.memUsed, bytes, g.memCap)
	}
	g.memUsed += bytes
	if g.memUsed > g.memPeak {
		g.memPeak = g.memUsed
	}
	return nil
}

// Release frees GPU memory.
func (g *GPU) Release(bytes int64) {
	g.memUsed -= bytes
	if g.memUsed < 0 {
		g.memUsed = 0
	}
}

// MemUsed returns current reserved memory.
func (g *GPU) MemUsed() int64 {
	return g.memUsed
}

// MemPeak returns the high-water mark of reserved memory.
func (g *GPU) MemPeak() int64 {
	return g.memPeak
}

// BusySeconds exposes cumulative compute busy time (for utilization).
func (g *GPU) BusySeconds() float64 { return g.compute.BusySeconds() }

// Pool creates n GPUs of the same architecture.
func Pool(rt *simtime.Virtual, n int, arch Arch, memBytes int64) []*GPU {
	gs := make([]*GPU, n)
	for i := range gs {
		gs[i] = New(rt, i, arch, memBytes)
	}
	return gs
}
