// Package hardware assembles the paper's two testbeds (§3) from the
// simulated substrates:
//
//	Config A: 2×64-core AMD EPYC (128 cores), 512 GB RAM, 4×A100-40GB,
//	          shared Lustre filesystem over a 200 Gb/s interconnect.
//	Config B: 2×40-core Intel Xeon (80 cores), 512 GB RAM, 8×V100-32GB,
//	          7 GB/s local NVMe SSD.
package hardware

import (
	"fmt"
	"math"

	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
)

const (
	gib = int64(1) << 30
)

// Config describes a testbed.
type Config struct {
	Name     string
	Cores    int
	MemBytes int64

	GPUCount    int
	GPUArch     gpu.Arch
	GPUMemBytes int64

	// Storage: aggregate bandwidth and how many concurrent streams reach
	// full per-stream speed.
	StorageName        string
	StorageBandwidth   float64
	StorageParallelism float64
}

// ConfigA is the paper's A100 server (§3).
func ConfigA() Config {
	return Config{
		Name: "ConfigA", Cores: 128, MemBytes: 512 * gib,
		GPUCount: 4, GPUArch: gpu.A100, GPUMemBytes: 40 * gib,
		StorageName: "lustre", StorageBandwidth: 20e9, StorageParallelism: 4,
	}
}

// ConfigB is the paper's V100 server (§3).
func ConfigB() Config {
	return Config{
		Name: "ConfigB", Cores: 80, MemBytes: 512 * gib,
		GPUCount: 8, GPUArch: gpu.V100, GPUMemBytes: 32 * gib,
		StorageName: "nvme", StorageBandwidth: 7e9, StorageParallelism: 2,
	}
}

// Validate reports the first field of c that no testbed can be built from:
// a core count, GPU count, GPU speed or storage bandwidth that is not
// positive and finite.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Cores", float64(c.Cores)},
		{"GPUCount", float64(c.GPUCount)},
		{"GPUArch.Speed", c.GPUArch.Speed},
		{"StorageBandwidth", c.StorageBandwidth},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("%s %v must be positive and finite", f.name, f.v)
		}
	}
	return nil
}

// WithGPUs returns a copy of c with a different GPU count (the Fig 9
// scalability sweeps).
func (c Config) WithGPUs(n int) Config {
	c.GPUCount = n
	return c
}

// WithMemoryLimit returns a copy of c with a cgroup-style memory cap
// (§5.5).
func (c Config) WithMemoryLimit(bytes int64) Config {
	c.MemBytes = bytes
	return c
}

// Testbed is an instantiated machine.
type Testbed struct {
	Cfg   Config
	RT    *simtime.Virtual
	CPU   *device.Device
	GPUs  []*gpu.GPU
	Disk  *storage.Disk
	Cache *storage.PageCache
	Store *storage.Store
}

// NewTestbed builds the devices for a config. The page cache receives the
// machine's memory minus a fixed working-set reservation, mirroring how the
// OS page cache shrinks under a cgroup limit.
func NewTestbed(rt *simtime.Virtual, cfg Config) *Testbed {
	const workingSet = 16 * gib
	cacheBytes := cfg.MemBytes - workingSet
	if cacheBytes < gib {
		cacheBytes = gib
	}
	disk := storage.NewDisk(rt, cfg.StorageName, cfg.StorageBandwidth, cfg.StorageParallelism)
	cache := storage.NewPageCache(cacheBytes)
	return &Testbed{
		Cfg:   cfg,
		RT:    rt,
		CPU:   device.New(rt, "cpu", float64(cfg.Cores)),
		GPUs:  gpu.Pool(rt, cfg.GPUCount, cfg.GPUArch, cfg.GPUMemBytes),
		Disk:  disk,
		Cache: cache,
		Store: &storage.Store{Disk: disk, Cache: cache},
	}
}

// Recycle hands the testbed's per-run storage to the process-wide pools the
// next run's testbeds draw from: the entries of every device (CPU, GPUs,
// disk) and the page cache's storage. The owner of the run calls it at
// teardown, once the run's tasks have exited; a device still occupied keeps
// its storage, and every part stays usable.
func (tb *Testbed) Recycle() {
	tb.CPU.Recycle()
	for _, g := range tb.GPUs {
		g.Recycle()
	}
	tb.Disk.Recycle()
	tb.Cache.Recycle()
}
