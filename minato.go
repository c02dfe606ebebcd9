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
//   - the loader itself (New, Config) plus the paper's baselines
//     (PyTorchLoader, DALILoader, PecanLoader) for comparison;
//   - the simulated substrate it runs on (runtimes, testbeds, devices),
//     since Go has no CUDA/PyTorch stack — see DESIGN.md for the
//     substitution table;
//   - the paper's workloads, the trainer, and the experiment registry that
//     regenerates every table and figure of the evaluation.
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
// Full training sessions resolve workloads and loader backends through
// the registries (RegisterLoader / RegisterWorkload):
//
//	rep, err := minato.Train("speech-3s",
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
//	rep, err := cluster.Train("speech-3s", minato.WithLoader("pytorch"))
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
// Multi-node data-parallel training runs through TrainMultiNode: each
// node is a full testbed with its own loader over a dataset shard, and
// gradient all-reduce runs as ring-reduce flows over a simulated cluster
// interconnect that dataset fetches contend with:
//
//	rep, err := minato.TrainMultiNode("speech-3s",
//	    minato.WithNodes(4),
//	    minato.WithLoader("minato"),
//	)
//	// rep.StepTime(), rep.NetworkStallShare(), rep.PerNode, ...
//
// The v1 shims New, Simulate, and BaselineFactory were removed in v3 —
// migrate to Open, Train/TrainWorkload, and LoaderByName.
//
// For embedding the loader around custom datasets and pipelines, see
// examples/quickstart, examples/multitenant, and examples/multinode;
// README.md has the quickstart walkthrough and DESIGN.md the simulation
// substitution table.
package minato

import (
	"time"

	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/matcache"
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
	// Report is a training session's outcome.
	Report = trainer.Report
	// Params tunes what a session records.
	Params = trainer.Params
	// Factory builds loaders for training sessions.
	Factory = trainer.Factory
	// HardwareConfig describes a testbed.
	HardwareConfig = hardware.Config
	// CacheStats is a snapshot of page-cache counters (whole-cache or
	// per-tenant, depending on where it came from).
	CacheStats = storage.CacheStats
	// MatCacheStats is a snapshot of the materialized preprocessed-sample
	// cache (see WithMaterializedCache): hits, fills, evictions, and the
	// preprocessing time hits saved.
	MatCacheStats = matcache.Stats
	// PoolStats is a snapshot of sample-pool activity.
	PoolStats = data.PoolStats
	// Testbed is an instantiated simulated machine.
	Testbed = hardware.Testbed
	// Runtime is the virtual-time kernel a session, cluster or service
	// fabric runs on; NewVirtualRuntime makes one.
	Runtime = *simtime.Virtual
)

// DefaultConfig returns the paper's MinatoLoader configuration (§5.1).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewTransform builds a custom preprocessing step from a cost model and a
// size effect (either may be nil).
func NewTransform(name string, cost func(*Sample) time.Duration, size func(*Sample) float64) Transform {
	return transform.NewTransform(name, cost, size)
}

// NewPipeline builds a preprocessing pipeline.
func NewPipeline(name string, ts ...Transform) *Pipeline { return transform.NewPipeline(name, ts...) }

// NewVirtualRuntime returns the deterministic discrete-event runtime used
// by experiments: simulated time advances only when all tasks are parked.
func NewVirtualRuntime() Runtime { return simtime.NewVirtual() }

// NewTestbed instantiates the devices for a hardware config.
func NewTestbed(rt Runtime, cfg HardwareConfig) *Testbed { return hardware.NewTestbed(rt, cfg) }

// ConfigA is the paper's 128-core, 4×A100 server (§3).
func ConfigA() HardwareConfig { return hardware.ConfigA() }

// ConfigB is the paper's 80-core, 8×V100 server (§3).
func ConfigB() HardwareConfig { return hardware.ConfigB() }

// The paper's workloads (§2.2, Table 3).

// ImageSegmentationWorkload is KiTS19 → 3D-UNet.
func ImageSegmentationWorkload(seed uint64) Workload { return workload.ImageSegmentation(seed) }

// ObjectDetectionWorkload is COCO → Mask R-CNN.
func ObjectDetectionWorkload(seed uint64) Workload { return workload.ObjectDetection(seed) }

// SpeechWorkload is LibriSpeech → RNN-T with the given HeavyStep duration
// (3s or 10s).
func SpeechWorkload(seed uint64, heavy time.Duration) Workload { return workload.Speech(seed, heavy) }

// Loader factories for training sessions.

// MinatoFactory builds MinatoLoader with the paper's defaults.
func MinatoFactory() Factory { return loaders.Minato(core.DefaultConfig()) }

// MinatoFactoryWith builds MinatoLoader with a custom config.
func MinatoFactoryWith(cfg Config) Factory { return loaders.Minato(cfg) }

// AllFactories returns the paper's four systems in comparison order.
func AllFactories() []Factory { return loaders.Defaults() }

// Synthetic datasets (§2.2).

// KiTS19 returns the synthetic kidney-tumor CT dataset (≈29 GB).
func KiTS19(seed uint64) Dataset { return dataset.NewKiTS19(seed) }

// COCO returns the synthetic COCO 2017 train split (≈58 GB).
func COCO(seed uint64) Dataset { return dataset.NewCOCO(seed) }

// LibriSpeech returns the synthetic LibriSpeech corpus with every n-th
// sample heavy.
func LibriSpeech(seed uint64, heavyEvery int) Dataset {
	return dataset.NewLibriSpeech(seed, heavyEvery)
}

// SubsetDataset restricts a dataset to its first n samples.
func SubsetDataset(d Dataset, n int) Dataset { return dataset.Subset(d, n) }

// ReplicateDataset enlarges a dataset by a factor with distinct storage
// keys (§5.5's 230 GB variant).
func ReplicateDataset(d Dataset, factor int) Dataset { return dataset.Replicate(d, factor) }

// ShardDataset returns the i-th of n strided shards (distributed data
// parallelism, §6).
func ShardDataset(d Dataset, i, n int) Dataset { return dataset.Shard(d, i, n) }

// EnvConfig sizes a custom loader environment for library embedders who
// are not using one of the paper's testbeds.
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

// NewEnv builds a loader environment on rt with the given sizing. The
// returned Env is ready for New; the caller drives consumption via
// Loader.Next and waits on Env.WG for shutdown. Sessions opened through
// Open manage all of this automatically.
func NewEnv(rt Runtime, cfg EnvConfig) *Env {
	env, _, _ := buildEnv(rt, cfg)
	return env
}

// buildEnv is NewEnv keeping handles to the disk and cache so sessions can
// report storage statistics.
func buildEnv(rt Runtime, cfg EnvConfig) (*Env, *storage.Disk, *storage.PageCache) {
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
	env := &Env{
		RT:    rt,
		CPU:   device.New(rt, "cpu", float64(cfg.Cores)),
		GPUs:  gpu.Pool(rt, cfg.GPUs, gpu.A100, 40<<30),
		Store: &storage.Store{Disk: disk, Cache: cache},
		WG:    simtime.NewWaitGroup(rt),
	}
	return env, disk, cache
}
