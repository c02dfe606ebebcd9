// Package trainer drives end-to-end training sessions: per-GPU consumer
// tasks pull batches from a data loader, pay the host-to-device copy when
// the loader has not prefetched, and occupy their GPU for the workload's
// step cost. The trainer records everything the paper's evaluation reports:
// training time, throughput over time, CPU/GPU utilization, disk reads,
// accuracy-vs-iteration curves, and batch-composition statistics. A run's
// consumer stalls, step intervals and fault windows are counted in its
// ledger, chaos.Controller, which every report producer reads through
// ReadLedger.
package trainer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/minatoloader/minato/internal/cache"
	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
	"github.com/minatoloader/minato/internal/workload"
)

// Factory builds a loader for a session. Loader packages provide adapters.
type Factory struct {
	// Name is the loader's name in every report: the registry's key, or
	// the name a caller gives a one-off configuration.
	Name string
	// New returns a new loader that only the session holds: a training
	// run recycles a MinatoLoader once the run is over.
	New func(env *loader.Env, spec loader.Spec) loader.Loader
}

// What a session records at fixed settings.
const (
	// metricsInterval is the Collect sampling period, in virtual time.
	metricsInterval = time.Second
	// copyBandwidth is the host-to-device PCIe bandwidth, in bytes/s, paid
	// by loaders that do not prefetch to the GPU.
	copyBandwidth = 16e9
	// slowThresholdPercentile classifies samples for composition analysis,
	// matching MinatoLoader's profiler.
	slowThresholdPercentile = 0.75
	// accuracyEvery is the accuracy-curve spacing (Fig 11a), in global
	// iterations.
	accuracyEvery = 10
)

// Params tunes what a session records.
type Params struct {
	// Collect enables time-series sampling (CPU/GPU/disk/throughput), one
	// point per second of virtual time.
	Collect bool
	// TrackComposition enables Fig 11's per-batch slow-sample accounting,
	// with an accuracy point every accuracyEvery global iterations.
	TrackComposition bool
	// TraceSamples records a per-sample timeline (load, preprocessing
	// window, classification, delivery) into Report.SampleTraces — the raw
	// material for pipeline forensics. Costs memory proportional to the
	// sample count.
	TraceSamples bool
}

// AccPoint is one accuracy-curve sample (Fig 11a).
type AccPoint struct {
	Iter     int64
	Elapsed  time.Duration
	Accuracy float64
}

// SampleTrace is one sample's pipeline timeline.
type SampleTrace struct {
	Index        int
	Epoch        int
	RawBytes     int64
	LoadedAt     time.Duration
	PreprocStart time.Duration
	PreprocEnd   time.Duration
	PreprocCost  time.Duration
	MarkedSlow   bool
	TimesResumed int
	BatchSeq     int64
	TrainedAt    time.Duration
	GPU          int
}

// Report is the outcome of one training run, on one machine (RunEnv) or
// across nodes (distributed.Run).
type Report struct {
	Workload string
	Loader   string
	// GPUs is the number of training consumers, summed across nodes.
	GPUs int
	// Nodes is the multi-node cluster's size; zero on one machine.
	Nodes int

	TrainTime time.Duration
	Batches   int64
	Samples   int64
	// Steps is the number of whole-cluster synchronized steps a multi-node
	// run completed; zero on one machine, whose consumers never synchronize.
	Steps int64
	// TrainedBytes is the cumulative processed size trained, the paper's
	// throughput numerator (§5.1).
	TrainedBytes int64

	// Average utilizations in percent, over the whole run.
	AvgGPUUtil float64
	AvgCPUUtil float64

	// Time series when Params.Collect is set: "cpu", "gpu" (percent),
	// "disk" (bytes/s), "throughput" (bytes/s), plus loader-specific
	// gauges (e.g. minato_workers).
	Series map[string]*metrics.TimeSeries

	// Composition (Fig 11) when Params.TrackComposition is set.
	SlowThreshold time.Duration
	SlowHist      []int64    // batches by number of slow samples (0..BatchSize)
	SlowPropByIt  []float64  // per-iteration slow proportion, delivery order
	AccCurve      []AccPoint // accuracy curve (Fig 11a)

	// CacheStats and MatCacheStats snapshot the page cache and the
	// materialized preprocessed-sample cache (per-tenant on a shared
	// substrate, whole-cache otherwise); zero for a cache that is not there.
	CacheStats    cache.Stats
	MatCacheStats cache.Stats
	DiskBytes     int64

	// SampleTraces holds per-sample timelines when Params.TraceSamples is
	// set, in delivery order.
	SampleTraces []SampleTrace

	// StallBreakdown attributes the run's consumer stalls (across nodes,
	// the PerNode sums; the barrier and network fields stay zero on a
	// single machine), the step-time quantiles, and the absorbed fault
	// windows. The run's ledger fills it, traced or not, and records each
	// wait's span from the instants it counts.
	StallBreakdown
	// PreemptStall is the total time consumers spent parked by Preempt
	// events (across GPUs).
	PreemptStall time.Duration

	// StepHist is the step-interval histogram behind StepP50/StepP99,
	// exportable through WritePrometheus.
	StepHist *metrics.LogHist

	// NetworkBytes is the traffic a multi-node run's fabric carried:
	// gradient flows plus (on a remote-store cluster) dataset fetches.
	NetworkBytes int64
	// PerNode attributes each node's stalls, in node order; nil on one
	// machine.
	PerNode []NodeStats

	// Recorded is the session's trace: Trace and CriticalPath, snapshotted
	// lazily from the recorder the session recorded into.
	trace.Recorded
}

// WriteTraceCSV exports the sample trace for offline analysis.
func (r *Report) WriteTraceCSV(dir, name string) error {
	header := []string{"index", "epoch", "raw_bytes", "loaded_s", "preproc_start_s",
		"preproc_end_s", "preproc_cost_ms", "slow", "resumed", "batch_seq", "trained_s", "gpu"}
	rows := make([][]string, 0, len(r.SampleTraces))
	for _, tr := range r.SampleTraces {
		rows = append(rows, []string{
			fmt.Sprint(tr.Index), fmt.Sprint(tr.Epoch), fmt.Sprint(tr.RawBytes),
			fmt.Sprintf("%.3f", tr.LoadedAt.Seconds()),
			fmt.Sprintf("%.3f", tr.PreprocStart.Seconds()),
			fmt.Sprintf("%.3f", tr.PreprocEnd.Seconds()),
			fmt.Sprintf("%.1f", float64(tr.PreprocCost)/float64(time.Millisecond)),
			fmt.Sprint(tr.MarkedSlow), fmt.Sprint(tr.TimesResumed),
			fmt.Sprint(tr.BatchSeq),
			fmt.Sprintf("%.3f", tr.TrainedAt.Seconds()),
			fmt.Sprint(tr.GPU),
		})
	}
	return metrics.WriteCSV(dir, name, header, rows)
}

// WritePrometheus exports the session's collected metrics as Prometheus
// text format: one gauge per time series (Params.Collect) and the
// step-interval histogram when SLO tracking ran. Deterministic byte output
// for a deterministic run.
func (r *Report) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(r.Series))
	for name := range r.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	series := make([]*metrics.TimeSeries, 0, len(names))
	for _, name := range names {
		series = append(series, r.Series[name])
	}
	return metrics.WritePrometheus(w, series, "step_interval_seconds", r.StepHist)
}

// Throughput returns average trained MB/s over the run.
func (r *Report) Throughput() float64 {
	sec := r.TrainTime.Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(r.TrainedBytes) / 1e6 / sec
}

// StepTime is the whole-cluster synchronized step time of a multi-node run
// — the number the per-step barrier makes everyone pay together; zero on
// one machine.
func (r *Report) StepTime() time.Duration {
	if r.Steps == 0 {
		return 0
	}
	return r.TrainTime / time.Duration(r.Steps)
}

// DataStallShare is the fraction of consumer time spent waiting on the
// loaders.
func (r *Report) DataStallShare() float64 { return r.share(r.DataStall) }

// BarrierStallShare is the fraction of consumer time spent waiting at the
// step barrier for slower ranks (zero on one machine).
func (r *Report) BarrierStallShare() float64 { return r.share(r.BarrierStall) }

// NetworkStallShare is the fraction of consumer time spent in gradient
// synchronization over the fabric (zero on one machine).
func (r *Report) NetworkStallShare() float64 { return r.share(r.NetworkStall) }

// share is sum over the run's consumer time: every GPU for the whole run.
// Across nodes the GPU-seconds are added node by node, in node order, which
// is the rounding the pinned multi-node tables and benchmark values hold.
func (r *Report) share(sum time.Duration) float64 {
	den := float64(r.GPUs) * r.TrainTime.Seconds()
	if r.PerNode != nil {
		den = 0
		for _, n := range r.PerNode {
			den += float64(n.GPUs) * r.TrainTime.Seconds()
		}
	}
	if den <= 0 {
		return 0
	}
	return min(1, sum.Seconds()/den)
}

// AvgSlowProportion returns the mean per-batch slow-sample proportion.
func (r *Report) AvgSlowProportion() float64 {
	if len(r.SlowPropByIt) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range r.SlowPropByIt {
		sum += v
	}
	return sum / float64(len(r.SlowPropByIt))
}

// Run executes one training session on an existing testbed. It must be
// called from a task tracked by the runtime (e.g. inside Virtual.Run).
func Run(rt *simtime.Virtual, tb *hardware.Testbed, w workload.Workload, f Factory, p Params) (*Report, error) {
	return RunEnv(testbedEnv(rt, tb, data.NewPool()), w, f, p, chaos.Script{})
}

// testbedEnv is the environment of a session that has the testbed to itself.
func testbedEnv(rt *simtime.Virtual, tb *hardware.Testbed, pool *data.Pool) *loader.Env {
	return &loader.Env{RT: rt, CPU: tb.CPU, GPUs: tb.GPUs, Store: tb.Store,
		WG: simtime.NewWaitGroup(rt), Pool: pool}
}

// RunEnv executes one training session over an existing environment — the
// entry point for clusters, whose sessions share one runtime, CPU, GPU set,
// disk, cache, and pool. The env's WG must be private to this session (it is
// waited on during teardown); env.Store's disk and cache may be nil when the
// env has no storage statistics to report. Cache statistics in the report
// are attributed to env.Store.Tenant when the store routes a registered
// tenant, so co-running sessions see their own hits, not the cluster total.
// It replays script, validated for one machine (Script.Validate(0)), against
// the session. Like Run, it must be called from a task tracked by the runtime.
func RunEnv(env *loader.Env, w workload.Workload, f Factory, p Params, script chaos.Script) (*Report, error) {
	ctx := context.Background()

	rt := env.RT
	wg := env.WG
	spec := w.Spec()
	ld := f.New(env, spec)

	rep := &Report{
		Workload: w.Name,
		Loader:   f.Name,
		GPUs:     len(env.GPUs),
	}

	disk := env.Store.Disk
	var trainedBytes int64 // these run-wide tallies are plain: consumers are tasks of one kernel
	collector := metrics.NewCollector(rt, metricsInterval)
	if p.Collect {
		// Utilization is busy time over capacity: the CPU device's cores,
		// one full-speed stream per GPU (nvidia-smi's notion, so a GPU
		// running one kernel back to back reads 100%).
		cpuGauge := metrics.CounterRateGauge(rt, env.CPU.Capacity(), env.CPU.BusySeconds)
		collector.Register("cpu", func() float64 { return 100 * clamp01(cpuGauge()) })
		gpuGauges := make([]func() float64, len(env.GPUs))
		for i, g := range env.GPUs {
			gpuGauges[i] = metrics.CounterRateGauge(rt, 1, g.BusySeconds)
		}
		collector.Register("gpu", func() float64 {
			sum := 0.0
			for _, g := range gpuGauges {
				sum += clamp01(g())
			}
			return 100 * sum / float64(len(gpuGauges))
		})
		if disk != nil {
			collector.Register("disk", metrics.CounterRateGauge(rt, 1, func() float64 {
				return float64(disk.BytesRead())
			}))
		}
		collector.Register("throughput", metrics.CounterRateGauge(rt, 1, func() float64 {
			return float64(trainedBytes)
		}))
		if ins, ok := ld.(loader.Instrumented); ok {
			ins.RegisterMetrics(collector)
		}
		collector.Start(wg)
	}

	var comp *composition
	if p.TrackComposition {
		comp = newComposition(w, slowThresholdPercentile, spec.BatchSize)
		rep.SlowThreshold = comp.threshold
	}

	startBusyCPU := env.CPU.BusySeconds()
	startBusyGPU := 0.0
	for _, g := range env.GPUs {
		startBusyGPU += g.BusySeconds()
	}
	start := rt.Now()

	if err := ld.Start(ctx); err != nil {
		return nil, err
	}

	// Per-GPU consumers.
	consumers := simtime.NewWaitGroup(rt)
	var consumerErr error
	var globalIters int64
	tr, tenant, node := rt.Trace(), env.TraceTenant(), env.TraceNode
	ledger := chaos.NewController(rt, 0, tenant, int(node), len(env.GPUs))
	StartLedger(ledger, env, start, script)
	var lastEnd time.Duration
	perGPUEpoch := spec.BatchesPerEpoch() / len(env.GPUs)
	for g := range env.GPUs {
		g := g
		consumers.Go("gpu-consumer", func() {
			dev := env.GPUs[g]
			sinceValidation := 0
			for {
				// Preemption gate: park here while the session is paused;
				// a terminal preemption ends the stream with ErrPreempted.
				if err := ledger.Wait(ctx); err != nil {
					consumerErr = err
					return
				}
				waitStart := rt.Now()
				b, err := ld.Next(ctx, g)
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					consumerErr = err
					return
				}
				waitEnd := rt.Now()
				ledger.Stalled(int(node), chaos.DataStall, int64(g), b.Seq, waitStart, waitEnd)
				stepStart := waitEnd
				if !b.Resident {
					// Synchronous H2D copy (no prefetch overlap).
					copyTime := time.Duration(float64(b.Bytes()) / copyBandwidth * float64(time.Second))
					if err := rt.Sleep(ctx, copyTime); err != nil {
						return
					}
					copyEnd := rt.Now()
					tr.Record(trace.Span{Start: stepStart, End: copyEnd, Stage: trace.StageCopy,
						Tenant: tenant, Node: node, Key: int64(g), Seq: b.Seq, Detail: b.Bytes()})
					stepStart = copyEnd
				}
				if err := dev.Train(ctx, w.GPUStep); err != nil {
					return
				}
				globalIters++
				it := globalIters
				rep.Batches++
				rep.Samples += int64(len(b.Samples))
				trainedBytes += b.Bytes()
				stepEnd := rt.Now()
				tr.Record(trace.Span{Start: stepStart, End: stepEnd, Stage: trace.StageGPUStep,
					Tenant: tenant, Node: node, Key: int64(g), Seq: b.Seq})
				lastEnd = max(lastEnd, stepEnd)
				ledger.Step(g, stepEnd)

				if comp != nil {
					comp.record(b)
				}
				if it%accuracyEvery == 0 {
					comp.maybeAcc(rep, w, it, rt.Now()-start)
				}
				if p.TraceSamples {
					now := rt.Now()
					for _, s := range b.Samples {
						rep.SampleTraces = append(rep.SampleTraces, SampleTrace{
							Index: s.Index, Epoch: s.Epoch, RawBytes: s.RawBytes,
							LoadedAt: s.LoadedAt, PreprocStart: s.PreprocStart,
							PreprocEnd: s.PreprocEnd, PreprocCost: s.PreprocCost,
							MarkedSlow: s.MarkedSlow, TimesResumed: s.TimesResumed,
							BatchSeq: b.Seq, TrainedAt: now, GPU: g,
						})
					}
				}

				// The consumer owns the batch from Next to here; everything
				// recorded above copies values out, so the samples can go
				// back to the pool for upcoming draws.
				b.Release()

				// Epoch-end validation (img-seg): extra GPU work while
				// loading pauses — the periodic dips of Fig 10.
				if w.ValidationTime > 0 && perGPUEpoch > 0 {
					sinceValidation++
					if sinceValidation >= perGPUEpoch {
						sinceValidation = 0
						if err := dev.Train(ctx, w.ValidationTime); err != nil {
							return
						}
					}
				}
			}
		})
	}

	if err := consumers.Wait(ctx); err != nil {
		return nil, err
	}
	end := lastEnd
	if end < start {
		end = rt.Now()
	}
	rep.TrainTime = end - start
	rep.TrainedBytes = trainedBytes

	ledger.Stop()
	collector.Stop()
	ld.Stop()
	if err := wg.Wait(ctx); err != nil {
		return nil, err
	}
	ReadLedger(rep, ledger)
	// The report keeps the recorder and snapshots lazily (Trace).
	rep.Recorded = trace.RecordedBy(tr)
	if consumerErr != nil {
		return nil, consumerErr
	}
	// Every task of the run has exited and no handle of a user reaches the
	// loader: its queues, lanes and profiler go to the next run.
	core.Recycle(ld)

	// Whole-run utilization from device busy accounting.
	dur := rep.TrainTime.Seconds()
	if dur > 0 {
		rep.AvgCPUUtil = Utilization(env.CPU.BusySeconds()-startBusyCPU, env.CPU.Capacity(), dur)
		busyGPU := 0.0
		for _, g := range env.GPUs {
			busyGPU += g.BusySeconds()
		}
		rep.AvgGPUUtil = Utilization(busyGPU-startBusyGPU, float64(len(env.GPUs)), dur)
	}

	if p.Collect {
		rep.Series = make(map[string]*metrics.TimeSeries)
		for _, ts := range collector.Series() {
			rep.Series[ts.Name] = ts
		}
	}
	if comp != nil {
		rep.SlowHist = comp.hist
		rep.SlowPropByIt = comp.props
	}
	if t := env.Store.Tenant; t > 0 {
		// Shared-substrate session: attribute storage traffic to this
		// tenant rather than reporting cluster-wide totals.
		rep.CacheStats, rep.MatCacheStats = env.Store.Cache.TenantStats(t), env.Mat.TenantStats(t)
		rep.DiskBytes = env.Store.DiskBytes
		return rep, nil
	}
	rep.CacheStats, rep.MatCacheStats = env.Store.Cache.Stats(), env.Mat.Stats()
	if disk != nil {
		rep.DiskBytes = disk.BytesRead()
	}
	return rep, nil
}

// Simulate runs a session on a fresh virtual-time kernel and testbed —
// the entry point experiments and benchmarks use. The kernel, and the
// testbed and sample pool registered with it, die with this call: its
// Recycle hands their storage to the stocks, so the next run starts warm.
func Simulate(cfg hardware.Config, w workload.Workload, f Factory, p Params) (*Report, error) {
	k := simtime.NewVirtual()
	var rep *Report
	var err error
	k.Run(func() {
		pool := data.NewPool()
		k.Own(pool)
		rep, err = RunEnv(testbedEnv(k, hardware.NewTestbed(k, cfg), pool), w, f, p, chaos.Script{})
	})
	k.Recycle()
	return rep, err
}

// Utilization is busy unit-seconds over capacity units for seconds, in
// percent, clamped at 100: every whole-run utilization in a report.
func Utilization(busy, capacity, seconds float64) float64 {
	return min(100, 100*busy/(capacity*seconds))
}

// clamp01 bounds a utilization sample to [0, 1].
func clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// composition tracks Fig 11's batch statistics.
type composition struct {
	threshold time.Duration
	hist      []int64
	props     []float64
}

func newComposition(w workload.Workload, pct float64, batchSize int) *composition {
	return &composition{
		threshold: w.SlowThreshold(pct),
		hist:      make([]int64, batchSize+1),
	}
}

func (c *composition) record(b *data.Batch) {
	slow := 0
	for _, s := range b.Samples {
		if s.PreprocCost > c.threshold {
			slow++
		}
	}
	if slow < len(c.hist) {
		c.hist[slow]++
	}
	c.props = append(c.props, float64(slow)/float64(len(b.Samples)))
}

// maybeAcc appends an accuracy point; safe on a nil receiver so call sites
// stay unconditional.
func (c *composition) maybeAcc(rep *Report, w workload.Workload, iter int64, elapsed time.Duration) {
	if c == nil {
		return
	}
	rep.AccCurve = append(rep.AccCurve, AccPoint{Iter: iter, Elapsed: elapsed, Accuracy: w.Accuracy(iter)})
}
