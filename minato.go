// Package minato is the public API of MinatoLoader-Go, a reproduction of
// "MinatoLoader: Accelerating Machine Learning Training Through Efficient
// Data Preprocessing" (EUROSYS '26).
//
// MinatoLoader is a data loader that eliminates head-of-line blocking in
// training input pipelines: a per-sample timeout classifies samples as fast
// or slow on the fly, batches are built from whichever samples are ready,
// and slow samples finish preprocessing in the background and join later
// batches. An adaptive scheduler grows and shrinks the preprocessing worker
// pool to track GPU demand.
//
// The package re-exports the building blocks from internal packages:
//
//   - what a custom input pipeline is written in (Sample, Dataset, Transform,
//     Pipeline, NewTransform, NewPipeline, LibriSpeech, SubsetDataset) and
//     the loaders that run it: MinatoLoader (Loader, Config, DefaultConfig)
//     and the paper's baselines, registered by name ("pytorch", "pecan",
//     "dali"; Loaders, LoaderByName, RegisterLoader);
//   - the simulated machines they run on (HardwareConfig, ConfigA, ConfigB,
//     EnvConfig) and the Runtime handle of their virtual-time kernel, since
//     Go has no CUDA/PyTorch stack — see DESIGN.md for the substitution
//     table;
//   - the paper's workloads by name (Workloads, WorkloadByName,
//     SpeechWorkload), the training Report, and the tracing, chaos and
//     serving layers around a run.
//
// The v2 API is session-centric. A session over a custom dataset streams
// batches through a context-aware iterator:
//
//	sess, err := minato.Open(dataset,
//	    minato.WithPipeline(pipeline),
//	    minato.WithBatchSize(64),
//	    minato.WithIterations(1000),
//	)
//	for batch, err := range sess.Batches(ctx) { ... }
//	rep, err := sess.Close()
//
// Full training sessions take a workload, built by name and seed through
// the workload registry (RegisterWorkload), and resolve the loader backend
// through the loader registry (RegisterLoader):
//
//	w, _ := minato.WorkloadByName("speech-3s", 1)
//	rep, err := minato.Train(w,
//	    minato.WithLoader("pytorch"),
//	    minato.WithHardware(minato.ConfigA()),
//	)
//	// rep.TrainTime, rep.AvgGPUUtil, ...
//
// Many concurrent sessions share one machine through a Cluster — one
// runtime, worker pool, page cache, and sample pool, multiplexed across
// tenants with admission control and priority-weighted worker arbitration:
//
//	cluster, err := minato.NewCluster(
//	    minato.WithHardware(minato.ConfigA()),
//	    minato.WithMaxSessions(16),
//	)
//	sess, err := cluster.Open(dataset, minato.WithPriority(2))
//	rep, err := cluster.Train(w, minato.WithLoader("pytorch"))
//
// Open and Train are thin wrappers over an implicit single-session
// cluster. Every With* constructor returns the one Option type and declares
// the entry points that accept it; an entry point handed any other returns a
// *ConfigError naming it (README.md has the option × entry-point table). API
// misuse surfaces as typed errors — *ConfigError plus the sentinels
// ErrSessionConsumed, ErrSessionClosed, ErrClusterSaturated,
// ErrClusterClosed; see errors.go for the taxonomy.
//
// A served cluster (Serve) streams the same batches to remote clients: Dial
// returns a RemoteSession whose Batches is the same loop over another
// transport — one pump, two sources.
//
// Multi-node data-parallel training is Train given WithNodes or
// WithTopology: each node is a full testbed with its own loader over a
// dataset shard, and gradient all-reduce runs as ring-reduce flows over a
// simulated cluster interconnect that dataset fetches contend with. The
// same Report comes back, with the multi-node fields filled:
//
//	rep, err := minato.Train(w,
//	    minato.WithNodes(4),
//	    minato.WithLoader("minato"),
//	)
//	// rep.Nodes, rep.StepTime(), rep.NetworkStallShare(), rep.PerNode, ...
//
// The v1 shims New, Simulate, and BaselineFactory were removed in v3 —
// migrate to Open, Train, and LoaderByName.
//
// For embedding the loader around custom datasets and pipelines, see
// examples/quickstart, examples/multitenant, and examples/multinode;
// README.md has the quickstart walkthrough and DESIGN.md the simulation
// substitution table.
package minato

import (
	"time"

	"github.com/minatoloader/minato/internal/cache"
	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/transform"
	"github.com/minatoloader/minato/internal/workload"
)

// Core vocabulary types.
type (
	// Sample is one training example flowing through a pipeline.
	Sample = data.Sample
	// Key identifies a stored object (sample bytes, paired modality)
	// without allocating: a constant namespace string plus an index.
	Key = data.Key
	// Features are the hidden cost-model inputs of a synthetic sample.
	Features = data.Features
	// Batch is a set of preprocessed samples ready for training.
	Batch = data.Batch
	// Transform is one preprocessing step.
	Transform = transform.Transform
	// Pipeline is an ordered list of transforms with budget semantics.
	Pipeline = transform.Pipeline
	// Dataset enumerates samples.
	Dataset = dataset.Dataset
	// Spec describes what a loader serves.
	Spec = loader.Spec
	// Env bundles the hardware a loader runs on.
	Env = loader.Env
	// DataLoader is the interface all loaders implement.
	DataLoader = loader.Loader
	// Config holds MinatoLoader's tuning knobs.
	Config = core.Config
	// Loader is MinatoLoader itself.
	Loader = core.Loader
	// Workload is one end-to-end training task.
	Workload = workload.Workload
	// Report is a training run's outcome, on one machine or across nodes.
	Report = trainer.Report
	// Params tunes what a session records.
	Params = trainer.Params
	// Factory builds loaders for training sessions.
	Factory = trainer.Factory
	// HardwareConfig describes a testbed.
	HardwareConfig = hardware.Config
	// CacheStats is a snapshot of one cache tier — the page cache, or the
	// materialized preprocessed-sample cache (see WithMaterializedCache) —
	// whole-cache or per-tenant, depending on where it came from: hits,
	// misses, fills, evictions, and the compute hits saved.
	CacheStats = cache.Stats
	// PoolStats is a snapshot of sample-pool activity.
	PoolStats = data.PoolStats
)

// Runtime is the virtual-time kernel a cluster, its sessions and a service
// fabric run on, held as an opaque handle. NewCluster and NewServiceNet make
// one, Cluster.Runtime, Session.Runtime and ServiceNet.Runtime return it, and
// WithRuntime and NewServiceNet run on it. Simulated time advances only when
// every task on the kernel is parked.
type Runtime struct{ k *simtime.Virtual }

// Now returns the runtime's current virtual time.
func (r *Runtime) Now() time.Duration { return r.k.Now() }

// DefaultConfig returns the paper's MinatoLoader configuration (§5.1).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewTransform builds a custom preprocessing step from a cost model and a
// size effect (either may be nil).
func NewTransform(name string, cost func(*Sample) time.Duration, size func(*Sample) float64) Transform {
	return transform.NewTransform(name, cost, size)
}

// NewPipeline builds a preprocessing pipeline.
func NewPipeline(name string, ts ...Transform) *Pipeline { return transform.NewPipeline(name, ts...) }

// ConfigA is the paper's 128-core, 4×A100 server (§3).
func ConfigA() HardwareConfig { return hardware.ConfigA() }

// ConfigB is the paper's 80-core, 8×V100 server (§3).
func ConfigB() HardwareConfig { return hardware.ConfigB() }

// SpeechWorkload is LibriSpeech → RNN-T with the given HeavyStep duration
// (3s or 10s). The paper's workloads (§2.2, Table 3) are registered by name:
// WorkloadByName builds any of them.
func SpeechWorkload(seed uint64, heavy time.Duration) Workload { return workload.Speech(seed, heavy) }

// Synthetic datasets (§2.2).

// LibriSpeech returns the synthetic LibriSpeech corpus with every n-th
// sample heavy.
func LibriSpeech(seed uint64, heavyEvery int) Dataset {
	return dataset.NewLibriSpeech(seed, heavyEvery)
}

// SubsetDataset restricts a dataset to its first n samples.
func SubsetDataset(d Dataset, n int) Dataset { return dataset.Subset(d, n) }

// EnvConfig sizes a custom machine (WithEnv) for callers who are not
// using one of the paper's testbeds.
type EnvConfig struct {
	// Cores is the CPU pool size (default 8).
	Cores int
	// GPUs is the number of training consumers (default 1).
	GPUs int
	// DiskBandwidth is storage throughput in bytes/s (default 2 GB/s).
	DiskBandwidth float64
	// CacheBytes is the page-cache capacity (default 8 GiB).
	CacheBytes int64
}

// buildEnv builds the machine cfg sizes on kernel rt.
func buildEnv(rt *simtime.Virtual, cfg EnvConfig) *hardware.Testbed {
	if cfg.Cores <= 0 {
		cfg.Cores = 8
	}
	if cfg.GPUs <= 0 {
		cfg.GPUs = 1
	}
	if cfg.DiskBandwidth <= 0 {
		cfg.DiskBandwidth = 2e9
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 8 << 30
	}
	disk := storage.NewDisk(rt, "disk", cfg.DiskBandwidth, 2)
	cache := storage.NewPageCache(cfg.CacheBytes)
	return &hardware.Testbed{
		RT:    rt,
		CPU:   device.New(rt, "cpu", float64(cfg.Cores)),
		GPUs:  gpu.Pool(rt, cfg.GPUs, gpu.A100, 40<<30),
		Disk:  disk,
		Cache: cache,
		Store: &storage.Store{Disk: disk, Cache: cache},
	}
}
