package main

// The metric dictionary. BENCHMARK.json at the repository root repeats the
// names, units, directions and bounds (its schema has no room for more);
// TestBenchmarkJSONConsistent keeps the two in step. README.md renders the same tables for
// people.

// Source tags say where a number was taken from — always from outside the
// program.
const (
	srcMeasured = "E" // measured phase: tracing and profiling off
	srcStats    = "S" // read from returned reports and stats; exact counts
	srcProfile  = "P" // profiled phase: CPU samples charged to an owner
	srcTraced   = "T" // traced phase: sums over TraceSink spans
	srcProbe    = "M" // layer probe: microdriver over exported functions
	srcHost     = "H" // host spans and process counters the benchmark records
)

// notApplicable is what a contract run prints for an end-to-end metric on a
// workload where it is not defined (the contract wants every metric from
// every workload, never 0). Human output prints "n/a" and result files omit
// the pair.
const notApplicable = 1.0

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound  float64
	Source string
	Clock  string   // "sim" (virtual clock) or "host"
	On     []string // workloads where it is defined; nil means all five
	Doc    string
}

const (
	wlHeadline  = "headline-speech3s"
	wlFleet     = "fleet-64gpu"
	wlWarm      = "warm-tenants16"
	wlMultiNode = "multinode8-flashcrowd"
	wlServe     = "serve-256"
)

var gpuWorkloads = []string{wlHeadline, wlFleet, wlMultiNode}

// endToEnd lists the ten metrics a user of the system sees. Simulated
// bounds are sized from the spread across seeds (the inputs differ, so the
// simulated result does); a change that only touches the simulator must
// leave every sim_ value of a seed bit-identical, which the `exact`
// fingerprints check far below these bounds.
var endToEnd = []metricDef{
	{Name: "sim_train_s", Unit: "s", Better: "lower", Bound: 0.05, Source: srcStats, Clock: "sim",
		Doc: "virtual seconds until the last consumer finishes the fixed sample budget"},
	{Name: "sim_gpu_util_pct", Unit: "%", Better: "higher", Bound: 0.05, Source: srcStats, Clock: "sim", On: gpuWorkloads,
		Doc: "mean simulated GPU utilization (the minato run on the headline)"},
	{Name: "sim_step_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Source: srcStats, Clock: "sim",
		Doc: "p99 interval between consecutive batch deliveries to one consumer, worst consumer"},
	{Name: "sim_speedup_vs_pytorch_x", Unit: "x", Better: "higher", Bound: 0.12, Source: srcStats, Clock: "sim", On: []string{wlHeadline},
		Doc: "sim_train_s(pytorch) / sim_train_s(minato); model unvalidated against the paper, no error figure"},
	{Name: "sim_speedup_vs_dali_x", Unit: "x", Better: "higher", Bound: 0.06, Source: srcStats, Clock: "sim", On: []string{wlHeadline},
		Doc: "sim_train_s(dali) / sim_train_s(minato); model unvalidated against the paper, no error figure"},
	{Name: "sim_warm_speedup_x", Unit: "x", Better: "higher", Bound: 0.08, Source: srcStats, Clock: "sim", On: []string{wlWarm},
		Doc: "cold-epoch / warm-epoch virtual time"},
	{Name: "wall_samples_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Source: srcMeasured, Clock: "host",
		Doc: "simulated samples per op / median op wall seconds"},
	{Name: "cpu_us_per_sample", Unit: "us", Better: "lower", Bound: 0.25, Source: srcMeasured, Clock: "host",
		Doc: "process user+sys CPU (getrusage) over the measured ops / samples delivered"},
	{Name: "allocs_per_sample", Unit: "count", Better: "lower", Bound: 0.07, Source: srcMeasured, Clock: "host",
		Doc: "MemStats.Mallocs delta over the measured ops / samples delivered"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Source: srcMeasured, Clock: "host",
		Doc: "wall seconds from child-process start to the first measured op (construction plus 3 warm-up ops); median of 5 processes"},
}

func cpuShare(layer string) metricDef {
	return metricDef{Name: layer + ".cpu_share_pct", Unit: "%", Better: "lower", Source: srcProfile, Clock: "host",
		Doc: "share of profiled-phase CPU samples whose first repo frame (leaf to root) is in this layer"}
}

func probe(name, doc string) metricDef {
	return metricDef{Name: name, Unit: "ns", Better: "lower", Source: srcProbe, Clock: "host", Doc: doc}
}

func simSeconds(name, doc string, on ...string) metricDef {
	return metricDef{Name: name, Unit: "s", Better: "lower", Source: srcTraced, Clock: "sim", Doc: doc, On: on}
}

// perLayer lists the per-layer metrics, grouped by the package (layer) they
// describe. A layer that does no work on a workload reports 0 there.
var perLayer = []metricDef{
	// simtime: the virtual-time kernel, plus the Go runtime time that no
	// repo frame owns (goroutine handoffs, GC).
	cpuShare("simtime"),
	{Name: "simtime.goruntime_sched_cpu_share_pct", Unit: "%", Better: "lower", Source: srcProfile, Clock: "host",
		Doc: "CPU samples with no repo frame outside the GC: scheduler, futex, park/unpark"},
	{Name: "simtime.goruntime_gc_cpu_share_pct", Unit: "%", Better: "lower", Source: srcProfile, Clock: "host",
		Doc: "CPU samples with no repo frame inside the garbage collector"},
	{Name: "simtime.sim_divergence_pct", Unit: "%", Better: "lower", Source: srcStats, Clock: "sim",
		Doc: "(max-min)/median of sim_train_s across measured ops of one seed; 0 on exact workloads"},
	probe("simtime.probe_sleep_ns", "ns per Sleep with 1k concurrent sleepers on distinct deadlines"),
	probe("simtime.probe_selector_wake_ns", "ns per Selector Reset+TryWake+Wait cycle"),
	probe("simtime.probe_same_deadline_ns", "ns per Sleep with 1k sleepers sharing every deadline"),

	cpuShare("queue"),
	simSeconds("queue.sim_wait_s", "virtual time batches sat in delivery queues (queue-wait spans)"),
	probe("queue.probe_put_get_ns", "ns per item handed producer to consumer through an 8-slot queue"),
	{Name: "queue.probe_put_get_allocs", Unit: "count", Better: "lower", Source: srcProbe, Clock: "host",
		Doc: "allocations per item in the same hand-off"},
	probe("queue.probe_waitany_ns", "ns per item when the consumer waits on two queues with WaitAny"),

	cpuShare("device"),
	simSeconds("device.sim_busy_s", "virtual time of device-run spans (GPU kernel occupancy)"),
	probe("device.probe_run_ns_k1", "ns per Device.Run, one occupant"),
	probe("device.probe_run_ns_k16", "ns per Device.Run with 16 co-occupants on capacity 4"),

	cpuShare("storage"),
	{Name: "storage.disk_bytes", Unit: "count", Better: "lower", Source: srcStats, Clock: "sim",
		Doc: "bytes read from the simulated disk per op"},
	{Name: "storage.page_hit_pct", Unit: "%", Better: "higher", Source: srcStats, Clock: "sim",
		Doc: "page-cache hits / lookups"},
	{Name: "storage.page_misses_per_key", Unit: "count", Better: "lower", Source: srcStats, Clock: "sim",
		Doc: "page-cache misses / unique keys (1 = single-flight holds)", On: []string{wlWarm, wlServe}},
	simSeconds("storage.sim_disk_busy_s", "virtual time of disk-read spans"),
	simSeconds("storage.sim_cache_wait_s", "virtual time followers parked on a page-cache fill"),
	simSeconds("storage.sim_remote_fetch_s", "virtual time of remote-fetch spans", wlMultiNode),
	probe("storage.probe_read_hit_ns", "ns per Store.ReadSample of a cached key"),
	probe("storage.probe_read_miss_ns", "ns per Store.ReadSample of an uncached key (disk read on the virtual clock)"),

	cpuShare("matcache"),
	{Name: "matcache.hit_pct", Unit: "%", Better: "higher", Source: srcStats, Clock: "sim", On: []string{wlWarm},
		Doc: "materialized-cache hits / lookups"},
	{Name: "matcache.fills_per_key", Unit: "count", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlWarm},
		Doc: "fills / unique keys (1 = single-flight holds)"},
	{Name: "matcache.evictions", Unit: "count", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlWarm}},
	{Name: "matcache.saved_s", Unit: "s", Better: "higher", Source: srcStats, Clock: "sim", On: []string{wlWarm},
		Doc: "preprocessing time hits skipped"},
	{Name: "matcache.sim_cold_epoch_s", Unit: "s", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlWarm},
		Doc: "virtual time until the last tenant finishes epoch 1 (the cache's write path)"},
	{Name: "matcache.sim_warm_epoch_s", Unit: "s", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlWarm},
		Doc: "virtual time of epoch 2 (the cache's read path)"},
	simSeconds("matcache.sim_fill_wait_s", "virtual time followers parked on a materialized fill", wlWarm),
	probe("matcache.probe_hit_ns", "ns per GetOrBegin hit"),
	probe("matcache.probe_fill_ns", "ns per GetOrBegin miss + Complete"),

	cpuShare("data"),
	{Name: "data.pool_reuse_pct", Unit: "%", Better: "higher", Source: srcStats, Clock: "host", On: []string{wlWarm, wlServe},
		Doc: "sample-pool gets served from the freelist"},
	{Name: "data.pool_live_peak", Unit: "count", Better: "lower", Source: srcStats, Clock: "host", On: []string{wlWarm, wlServe},
		Doc: "high-water of samples outstanding"},
	probe("data.probe_get_put_ns", "ns per Pool.Get + Pool.Put"),

	cpuShare("transform"),
	simSeconds("transform.sim_busy_s", "virtual time of transform spans (worker pipeline executions)"),
	probe("transform.probe_cost_model_ns", "ns per Pipeline.TotalCost on a Speech-3s sample"),

	cpuShare("core"),
	{Name: "core.sim_data_stall_pct", Unit: "%", Better: "lower", Source: srcStats, Clock: "sim", On: gpuWorkloads,
		Doc: "consumer time blocked on the loader / consumer time"},
	{Name: "core.sim_slow_sample_pct", Unit: "%", Better: "lower", Source: srcTraced, Clock: "sim",
		Doc: "samples whose preprocessing was interrupted and resumed (more than one transform span)"},
	simSeconds("core.sim_assemble_s", "virtual time of batch-assembly windows"),
	{Name: "core.wall_ms_minato", Unit: "ms", Better: "lower", Source: srcHost, Clock: "host", On: []string{wlHeadline, wlFleet},
		Doc: "host wall of the minato TrainWorkload call alone, median over measured ops"},
	probe("core.probe_profiler_record_ns", "ns per Profiler.Record"),

	cpuShare("loaders"),
	{Name: "loaders.wall_ms_pytorch", Unit: "ms", Better: "lower", Source: srcHost, Clock: "host", On: []string{wlHeadline},
		Doc: "host wall of the pytorch TrainWorkload call"},
	{Name: "loaders.wall_ms_dali", Unit: "ms", Better: "lower", Source: srcHost, Clock: "host", On: []string{wlHeadline},
		Doc: "host wall of the dali TrainWorkload call"},

	cpuShare("loader"),

	cpuShare("trainer"),
	simSeconds("trainer.sim_copy_s", "critical-path host-to-device copy time, all batches", gpuWorkloads...),
	simSeconds("trainer.sim_gpu_step_s", "critical-path GPU step time, all batches", gpuWorkloads...),

	cpuShare("netsim"),
	{Name: "netsim.bytes", Unit: "count", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlMultiNode, wlServe},
		Doc: "bytes the fabric carried per op"},
	{Name: "netsim.flows", Unit: "count", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlMultiNode, wlServe},
		Doc: "flows completed per op ([S] on serve-256, flow spans [T] on multinode8-flashcrowd)"},
	{Name: "netsim.sim_net_stall_pct", Unit: "%", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlMultiNode},
		Doc: "consumer time in gradient synchronization / consumer time"},
	probe("netsim.probe_flow_ns_f16", "ns per flow start to finish with 16 flows live"),
	probe("netsim.probe_flow_ns_f256", "ns per flow with 256 live; its ratio to f16 is the O(flows) reshare cost"),

	cpuShare("distributed"),
	{Name: "distributed.sim_step_ms", Unit: "ms", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlMultiNode},
		Doc: "whole-cluster synchronized step time"},
	{Name: "distributed.sim_barrier_stall_pct", Unit: "%", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlMultiNode}},
	{Name: "distributed.sim_data_stall_pct", Unit: "%", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlMultiNode}},

	cpuShare("chaos"),
	{Name: "chaos.faults_applied", Unit: "count", Better: "higher", Source: srcStats, Clock: "sim", On: []string{wlMultiNode},
		Doc: "fault windows in the report"},
	{Name: "chaos.sim_fault_stall_s", Unit: "s", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlMultiNode},
		Doc: "stall accumulated while fault windows were open"},

	cpuShare("service"),
	{Name: "service.batches_sent", Unit: "count", Better: "higher", Source: srcStats, Clock: "sim", On: []string{wlServe}},
	{Name: "service.bytes_sent", Unit: "count", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlServe}},
	{Name: "service.max_pending", Unit: "count", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlServe},
		Doc: "send-window high-water; never above the window"},
	{Name: "service.rejected", Unit: "count", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlServe}},
	{Name: "service.retries", Unit: "count", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlServe}},
	{Name: "service.sim_wait_p50_ms", Unit: "ms", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlServe},
		Doc: "batch-wait p50 of the median client"},
	{Name: "service.sim_wait_p99_ms", Unit: "ms", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlServe},
		Doc: "batch-wait p99 of the worst client"},

	{Name: "trace.cpu_share_pct", Unit: "%", Better: "lower", Source: srcProfile, Clock: "host",
		Doc: "CPU share of internal/trace, taken in the traced phase (not part of the profiled phase's 100%)"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Source: srcTraced, Clock: "sim", Doc: "spans one traced op records"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Source: srcTraced, Clock: "host",
		Doc: "median traced op wall / median profiled-phase op wall - 1 (both under the CPU profiler)"},
	{Name: "trace.snapshot_ms", Unit: "ms", Better: "lower", Source: srcTraced, Clock: "host",
		Doc: "first Spans() + CriticalPath() after a traced op"},
	{Name: "trace.export_mb", Unit: "MB", Better: "lower", Source: srcTraced, Clock: "host",
		Doc: "WriteChrome output size"},
	probe("trace.probe_record_ns", "ns per Recorder.Record"),

	cpuShare("minato"),
	{Name: "minato.setup_ms", Unit: "ms", Better: "lower", Source: srcHost, Clock: "host", On: []string{wlWarm, wlServe},
		Doc: "host span around NewCluster/Serve/Open/Dial, median over measured ops"},
	{Name: "minato.stream_ms", Unit: "ms", Better: "lower", Source: srcHost, Clock: "host", On: []string{wlWarm, wlServe},
		Doc: "host span around the consume loop"},
	{Name: "minato.close_ms", Unit: "ms", Better: "lower", Source: srcHost, Clock: "host", On: []string{wlWarm, wlServe},
		Doc: "host span around Close"},
	{Name: "minato.admission_rejected", Unit: "count", Better: "lower", Source: srcStats, Clock: "sim", On: []string{wlWarm, wlServe}},

	{Name: "host.other_cpu_share_pct", Unit: "%", Better: "lower", Source: srcProfile, Clock: "host",
		Doc: "CPU samples owned by the benchmark's own frames or a repo package without a row here"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower", Source: srcHost, Clock: "host"},
	{Name: "host.alloc_bytes_per_sample", Unit: "B", Better: "lower", Source: srcHost, Clock: "host",
		Doc: "MemStats.TotalAlloc delta / samples; informational, swings run to run"},
	{Name: "host.wall_op_ms_p50", Unit: "ms", Better: "lower", Source: srcHost, Clock: "host"},
	{Name: "host.wall_op_ms_p90", Unit: "ms", Better: "lower", Source: srcHost, Clock: "host"},
	{Name: "host.build_s", Unit: "s", Better: "lower", Source: srcHost, Clock: "host",
		Doc: "go build wall reported by run.sh; informational (0 when the binary was started directly)"},
}

// definedOn reports whether the metric has a meaning on the workload.
func (m metricDef) definedOn(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// cpuShareLayers are the owners a profile sample can be charged to, in the
// order the shares are printed. Everything else lands in "other".
var cpuShareLayers = []string{"simtime", "queue", "device", "storage", "matcache", "data", "transform", "core",
	"loaders", "loader", "trainer", "netsim", "distributed", "chaos", "service", "trace", "minato"}
