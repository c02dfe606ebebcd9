package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/minatoloader/minato"
)

// Phases of one workload's child process.
const (
	phaseWarmup   = "warmup"
	phaseMeasured = "measured"
	phaseProfiled = "profiled"
	phaseTraced   = "traced"
)

const (
	warmupOps = 3
	tracedOps = 2
	// minMeasuredOps is the floor of a time-bounded measured phase: medians
	// and quartiles of fewer ops say little.
	minMeasuredOps = 9
	// minProfiledSeconds keeps the profiled phase long enough for a few
	// hundred 100 Hz samples per core.
	minProfiledSeconds = 5.0
	outDir             = "bench/out"
)

// childConfig is what the parent asks of one workload process.
type childConfig struct {
	Workload string
	Seed     uint64
	// Ops fixes the measured-phase op count (a full run pins one per
	// workload); 0 means run for Seconds, at least minMeasuredOps.
	Ops     int
	Seconds float64
	// SetupOnly exits after warm-up: the process exists to time set-up.
	SetupOnly bool
	// Layers adds the profiled and traced phases and the probes.
	Layers bool
	// Quick shrinks every phase to a smoke test: 1 op each, no profile.
	Quick bool
}

type phaseCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// childResult is what one workload process reports on its last stdout line.
type childResult struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`

	Phases   map[string]*phaseCount `json:"phases"`
	Failures []string               `json:"failures,omitempty"`

	SamplesPerOp int64 `json:"samples_per_op"`
	// Fingerprint is op 1's simulated identity on an exact workload;
	// FingerprintPinned says whether it was compared with the value pinned
	// in the source for seed 1.
	Fingerprint       string `json:"fingerprint,omitempty"`
	FingerprintPinned bool   `json:"fingerprint_pinned"`

	// EndToEnd holds the end-to-end metrics defined on the workload, except
	// setup_s (the parent owns that: it times several processes). PerOp
	// carries the per-op distribution behind each of them.
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerOp    map[string]summary `json:"per_op"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// ProfileCharged is the share of profiled-phase samples that landed on
	// a named layer or the Go runtime (everything but "other").
	ProfileCharged float64 `json:"profile_charged_pct,omitempty"`
}

func (r *childResult) attemptedFailed() (attempted, failed int) {
	for _, p := range r.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// child runs one workload's phases in this process.
type child struct {
	cfg   childConfig
	w     *workload
	clk   *hostClock
	res   *childResult
	first string // op 1's fingerprint
	spans []hostSpan

	// What the measured phase leaves for the per-layer metrics.
	walls               []float64            // seconds per successful op
	vals                map[string][]float64 // per successful op, by metric name
	allocBytesPerSample float64
}

// op runs one scenario, counts it, and applies the exact-fingerprint rule.
// The returned bool is false for a failed op, whose result is not used.
func (c *child) op(phase string, i int, sink *minato.TraceSink) (opResult, time.Duration, bool) {
	pc := c.res.Phases[phase]
	pc.Attempted++
	name := fmt.Sprintf("op:%s:%d", phase, i)
	start := time.Since(c.clk.t0)
	r, err := c.w.run(c.cfg.Seed, sink, c.clk)
	end := time.Since(c.clk.t0)
	c.spans = append(c.spans, hostSpan{Name: name, Start: start, End: end})
	for _, s := range r.spans {
		s.Parent = name
		c.spans = append(c.spans, s)
	}
	if err == nil && c.w.exact {
		if c.first == "" {
			c.first = r.fingerprint
		} else if r.fingerprint != c.first {
			err = fmt.Errorf("simulated fingerprint %q differs from op 1's %q", r.fingerprint, c.first)
		}
	}
	if err != nil {
		pc.Failed++
		if len(c.res.Failures) < 8 {
			c.res.Failures = append(c.res.Failures, fmt.Sprintf("%s: %v", name, err))
		}
		return r, end - start, false
	}
	return r, end - start, true
}

// readyLine is what a child prints on stdout when set-up (construction plus
// warm-up) is done: the instant the parent stamps setup_s.
const readyLine = "READY"

// runChild runs one workload's phases; t0 is the process start.
func runChild(cfg childConfig, t0 time.Time, stdout io.Writer) (*childResult, error) {
	w := workloadByName(cfg.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	c := &child{cfg: cfg, w: w, clk: &hostClock{t0: t0}, vals: map[string][]float64{}}
	c.res = &childResult{
		Workload: w.name, Seed: cfg.Seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Phases:   map[string]*phaseCount{phaseWarmup: {}, phaseMeasured: {}},
		EndToEnd: map[string]float64{}, PerOp: map[string]summary{},
	}

	// Warm-up fills dist.PermutationCached, transform.OrderCache, the
	// sync.Pools and the heap, and is part of setup_s.
	n := warmupOps
	if cfg.Quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		c.op(phaseWarmup, i, nil)
	}
	fmt.Fprintln(stdout, readyLine)
	if cfg.SetupOnly {
		return c.res, nil
	}

	c.measured()
	if cfg.Layers {
		if err := c.layers(); err != nil {
			return nil, err
		}
	}
	c.res.Fingerprint = c.first
	if w.exact && w.pinned != "" && cfg.Seed == 1 {
		c.res.FingerprintPinned = true
		if c.first != w.pinned {
			// Every op agreed with op 1, and op 1 is not what this seed
			// produced when the benchmark was defined: all of them are wrong.
			m := c.res.Phases[phaseMeasured]
			m.Failed = m.Attempted
			c.res.Failures = append(c.res.Failures, fmt.Sprintf("fingerprint %q differs from the pinned %q", c.first, w.pinned))
		}
	}
	return c.res, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func buildSeconds() float64 {
	var s float64
	_, _ = fmt.Sscan(os.Getenv("BENCH_BUILD_S"), &s) // unset: 0, the binary was not started by run.sh
	return s
}

func (c *child) moreMeasured(i int, start time.Time, budget time.Duration) bool {
	switch {
	case c.cfg.Quick:
		return i < 1
	case c.cfg.Ops > 0:
		return i < c.cfg.Ops
	}
	return i < minMeasuredOps || time.Since(start) < budget
}

// measured is the phase every end-to-end metric comes from: tracing and
// profiling off.
func (c *child) measured() {
	budget := time.Duration(c.cfg.Seconds * float64(time.Second))
	if c.cfg.Layers {
		budget /= 2 // the other half of a time-bounded run is the profiled phase
	}
	// Totals run over the successful ops only: a failed op's numbers are
	// not used, so its CPU and allocations must not dilute the per-sample
	// figures either.
	var (
		cpus, allocs              []float64 // per successful op, per sample
		samples                   int64
		cpuTotal                  time.Duration
		mallocsTotal, allocdBytes uint64
		ms                        runtime.MemStats
	)
	start := time.Now()
	runtime.ReadMemStats(&ms)
	for i := 0; c.moreMeasured(i, start, budget); i++ {
		cpu0, mallocs0, bytes0 := cpuTime(), ms.Mallocs, ms.TotalAlloc
		r, wall, ok := c.op(phaseMeasured, i, nil)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&ms)
		if !ok {
			continue
		}
		n := float64(r.samples)
		c.walls = append(c.walls, wall.Seconds())
		cpus = append(cpus, float64(cpu.Nanoseconds())/1e3/n)
		allocs = append(allocs, float64(ms.Mallocs-mallocs0)/n)
		for k, v := range r.vals {
			c.vals[k] = append(c.vals[k], v)
		}
		for _, s := range r.spans {
			if m := hostSpanMetric(s.Name); m != "" {
				c.vals[m] = append(c.vals[m], msec(s.End-s.Start))
			}
		}
		samples += r.samples
		cpuTotal += cpu
		mallocsTotal += ms.Mallocs - mallocs0
		allocdBytes += ms.TotalAlloc - bytes0
		c.res.SamplesPerOp = r.samples
	}
	if len(c.walls) == 0 {
		return // every op failed; the counts say so
	}

	e2e, perOp := c.res.EndToEnd, c.res.PerOp
	for _, m := range endToEnd {
		if m.Clock == "sim" && m.definedOn(c.w.name) {
			perOp[m.Name] = summarize(c.vals[m.Name])
			e2e[m.Name] = perOp[m.Name].Median
		}
	}
	perSec := make([]float64, len(c.walls))
	for i, s := range c.walls {
		perSec[i] = float64(c.res.SamplesPerOp) / s
	}
	perOp["wall_samples_per_s"] = summarize(perSec)
	e2e["wall_samples_per_s"] = perOp["wall_samples_per_s"].Median
	perOp["cpu_us_per_sample"] = summarize(cpus)
	e2e["cpu_us_per_sample"] = float64(cpuTotal.Nanoseconds()) / 1e3 / float64(samples)
	perOp["allocs_per_sample"] = summarize(allocs)
	e2e["allocs_per_sample"] = float64(mallocsTotal) / float64(samples)
	c.allocBytesPerSample = float64(allocdBytes) / float64(samples)
}

// hostSpanMetric maps a host span to the per-layer metric that reports its
// median duration, or "".
func hostSpanMetric(span string) string {
	switch span {
	case "train:minato":
		return "core.wall_ms_minato"
	case "train:pytorch":
		return "loaders.wall_ms_pytorch"
	case "train:dali":
		return "loaders.wall_ms_dali"
	case "setup", "stream", "close":
		return "minato." + span + "_ms"
	}
	return ""
}

// layers produces every per-layer metric: [S] and [H] from the measured
// phase just run, [P] from a profiled phase, [T] from a traced phase, [M]
// from the probes.
func (c *child) layers() error {
	pl := map[string]float64{}
	c.res.PerLayer = pl
	for _, m := range perLayer {
		pl[m.Name] = 0 // a layer that does no work here reports 0
	}
	for name, v := range c.vals {
		if _, ok := pl[name]; ok {
			pl[name] = median(v)
		}
	}
	if t := summarize(c.vals["sim_train_s"]); t.Median > 0 {
		pl["simtime.sim_divergence_pct"] = 100 * (t.Max - t.Min) / t.Median
	}
	wall := summarize(c.walls)
	pl["host.alloc_bytes_per_sample"] = c.allocBytesPerSample
	pl["host.wall_op_ms_p50"] = 1e3 * wall.Median
	if len(c.walls) > 0 {
		pl["host.wall_op_ms_p90"] = 1e3 * quantile(sorted(c.walls), 0.9)
	}
	pl["host.build_s"] = buildSeconds()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Traced ops run under the profiler too (for trace.cpu_share_pct), so
	// their baseline is the untraced op under the same profiler; a quick
	// run profiles neither and falls back to the measured median.
	baseline := wall.Median
	if !c.cfg.Quick {
		var err error
		if baseline, err = c.profiled(); err != nil {
			return err
		}
	}
	if err := c.traced(baseline); err != nil {
		return err
	}
	repeats := probeRepeats
	if c.cfg.Quick {
		repeats = 1
	}
	for k, v := range runProbes(repeats) {
		pl[k] = v
	}
	pl["host.peak_rss_mb"] = peakRSSMB()
	return writeHostSpans(filepath.Join(outDir, c.w.name+".hostspans.json"), c.spans)
}

// profiled runs ops under the CPU profiler (tracing off) and charges every
// sample to a layer, the Go runtime, or "other". It returns the median op
// wall seconds under the profiler.
func (c *child) profiled() (float64, error) {
	c.res.Phases[phaseProfiled] = &phaseCount{}
	secs := minProfiledSeconds
	if c.cfg.Ops == 0 && c.cfg.Seconds/2 > secs {
		secs = c.cfg.Seconds / 2
	}
	var walls []float64
	shares, err := cpuProfile(filepath.Join(outDir, c.w.name+".cpu.pb.gz"), func() {
		start := time.Now()
		for i := 0; time.Since(start).Seconds() < secs; i++ {
			if _, wall, ok := c.op(phaseProfiled, i, nil); ok {
				walls = append(walls, wall.Seconds())
			}
		}
	})
	if err != nil {
		return 0, err
	}
	pl := c.res.PerLayer
	other := shares.Share[ownerOther] + shares.Share["trace"] // tracing is off: a stray trace frame has no row in this phase
	for _, l := range cpuShareLayers {
		if l != "trace" {
			pl[l+".cpu_share_pct"] = shares.Share[l]
		}
	}
	pl["simtime.goruntime_sched_cpu_share_pct"] = shares.Share[ownerSched]
	pl["simtime.goruntime_gc_cpu_share_pct"] = shares.Share[ownerGC]
	pl["host.other_cpu_share_pct"] = other
	c.res.ProfileCharged = 100 - other
	return median(walls), nil
}

// traced runs ops with WithTracing attached: simulated time per layer from
// the spans, and what recording, snapshotting and exporting them costs.
func (c *child) traced(untracedWall float64) error {
	c.res.Phases[phaseTraced] = &phaseCount{}
	pl := c.res.PerLayer
	sink := minato.NewTraceSink()
	n := tracedOps
	if c.cfg.Quick {
		n = 1
	}
	var walls []float64
	run := func() {
		for i := 0; i < n; i++ {
			sink.Reset()
			if _, wall, ok := c.op(phaseTraced, i, sink); ok {
				walls = append(walls, wall.Seconds())
			}
		}
	}
	if c.cfg.Quick {
		run()
	} else {
		shares, err := cpuProfile(filepath.Join(outDir, c.w.name+".traced.cpu.pb.gz"), run)
		if err != nil {
			return err
		}
		pl["trace.cpu_share_pct"] = shares.Share["trace"]
	}
	if len(walls) == 0 {
		return nil // the failures are already counted
	}
	if untracedWall > 0 {
		pl["trace.overhead_pct"] = 100 * (median(walls)/untracedWall - 1)
	}

	// The sink holds the last traced op (on the headline: its minato run).
	t0 := time.Now()
	spans := sink.Spans()
	paths := sink.CriticalPath()
	pl["trace.snapshot_ms"] = msec(time.Since(t0))
	pl["trace.spans"] = float64(len(spans))
	var cw countingWriter
	if err := sink.WriteChrome(&cw); err != nil {
		return fmt.Errorf("WriteChrome: %w", err)
	}
	pl["trace.export_mb"] = float64(cw) / 1e6

	for _, p := range paths {
		if sum := p.DataWait + p.Copy + p.GPUStep + p.BarrierWait + p.NetworkWait + p.Downtime + p.Other; sum != p.Latency() || p.Other < 0 {
			pc := c.res.Phases[phaseTraced]
			pc.Failed = pc.Attempted
			c.res.Failures = append(c.res.Failures, fmt.Sprintf(
				"traced: critical-path components of batch (tenant %d node %d gpu %d seq %d) sum to %v, latency %v",
				p.Tenant, p.Node, p.GPU, p.Seq, sum, p.Latency()))
			break
		}
	}
	for k, v := range tracedMetrics(spans, sink.Attribute(nil)) {
		pl[k] = v
	}
	if c.w.name == wlMultiNode {
		pl["netsim.flows"] = float64(countStage(spans, minato.TraceStageFlow))
	}
	return nil
}

func countStage(spans []minato.TraceSpan, stage minato.TraceStage) int {
	n := 0
	for _, s := range spans {
		if s.Stage == stage {
			n++
		}
	}
	return n
}

// tracedMetrics sums one op's spans into the [T] figures: simulated time
// per layer.
func tracedMetrics(spans []minato.TraceSpan, attr minato.TraceAttribution) map[string]float64 {
	stageMetric := map[minato.TraceStage]string{
		minato.TraceStageQueueWait:   "queue.sim_wait_s",
		minato.TraceStageDeviceRun:   "device.sim_busy_s",
		minato.TraceStageDiskRead:    "storage.sim_disk_busy_s",
		minato.TraceStageCacheWait:   "storage.sim_cache_wait_s",
		minato.TraceStageRemoteFetch: "storage.sim_remote_fetch_s",
		minato.TraceStageMatWait:     "matcache.sim_fill_wait_s",
		minato.TraceStageTransform:   "transform.sim_busy_s",
		minato.TraceStageAssemble:    "core.sim_assemble_s",
	}
	out := map[string]float64{}
	type sampleID struct {
		tenant, node int32
		key, seq     int64
	}
	transforms := map[sampleID]int{}
	for _, s := range spans {
		if m, ok := stageMetric[s.Stage]; ok {
			out[m] += (s.End - s.Start).Seconds()
		}
		if s.Stage == minato.TraceStageTransform {
			transforms[sampleID{s.Tenant, s.Node, s.Key, s.Seq}]++
		}
	}
	if len(transforms) > 0 {
		slow := 0
		for _, n := range transforms {
			if n > 1 { // interrupted at the timeout, resumed in the background
				slow++
			}
		}
		out["core.sim_slow_sample_pct"] = 100 * float64(slow) / float64(len(transforms))
	}
	out["trainer.sim_copy_s"] = attr.Copy.Seconds()
	out["trainer.sim_gpu_step_s"] = attr.GPUStep.Seconds()
	return out
}

type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// writeHostSpans writes the host spans as Chrome trace-event JSON (load in
// Perfetto or chrome://tracing): complete events in microseconds since the
// process start, the enclosing op in args.parent.
func writeHostSpans(path string, spans []hostSpan) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		e := event{Name: s.Name, Ph: "X", Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3, Pid: 1, Tid: 1}
		if s.Parent != "" {
			e.Args = map[string]string{"parent": s.Parent}
		}
		events[i] = e
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
