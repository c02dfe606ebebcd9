package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/minatoloader/minato"
)

// opResult is what one complete scenario ("op") hands back to the runner.
// Everything in it was read from outside the program: return values,
// reports, stats snapshots, the virtual clock around a consume loop.
type opResult struct {
	// samples is the number of simulated samples the op delivered; it is
	// the denominator of every per-sample host metric.
	samples int64
	// vals holds the op's simulated end-to-end metrics and its [S]
	// per-layer metrics, keyed by metric name.
	vals map[string]float64
	// fingerprint is the simulated identity of an `exact` workload's op:
	// every field listed in the workload's fingerprint, bit for bit.
	fingerprint string
	// spans are the host-clock spans the benchmark recorded around its
	// calls into the facade (setup / stream / close, or one per Train call).
	spans []hostSpan
}

// hostSpan is one wall-clock interval recorded by the benchmark itself
// around a call into the program, relative to the child's start.
type hostSpan struct {
	Name       string
	Parent     string // the enclosing op span, "" for an op itself
	Start, End time.Duration
}

// workload is one closed-loop scenario. run executes one op and verifies
// it; a verification failure or an error from the program is returned as
// the error and counts as a failed op.
type workload struct {
	name string
	why  string
	// exact workloads repeat their simulated fingerprint on every op of a
	// seed; an op whose fingerprint differs from op 1's fails.
	exact bool
	// pinned is the fingerprint of seed 1 at the commit that defined the
	// benchmark (after ≥50 identical ops); other seeds skip the comparison.
	pinned string
	// ops is the measured-phase op count of a full run; driver runs are
	// bounded by --seconds instead.
	ops int
	run func(seed uint64, sink *minato.TraceSink, clk *hostClock) (opResult, error)
}

// hostClock stamps host spans relative to the process start.
type hostClock struct{ t0 time.Time }

func (c *hostClock) span(name string, spans *[]hostSpan, fn func()) {
	start := time.Since(c.t0)
	fn()
	*spans = append(*spans, hostSpan{Name: name, Start: start, End: time.Since(c.t0)})
}

func workloads() []*workload {
	return []*workload{
		{
			name:  "headline-speech3s",
			why:   "paper headline: Speech-3s on 4xA100 under pytorch, dali and minato; GPU-bound core, no net/cache/service",
			exact: true, ops: 40, run: runHeadline,
			pinned: "pytorch=453790945873 dali=156816959218 minato=64530666780 stall=18090110545 p50=1209105264 p99=2738119393",
		},
		{
			name:  "fleet-64gpu",
			why:   "one minato session feeding 64 GPUs: CPU-starved core, 64 racing constructors, kernel and queue handoffs dominate host time",
			exact: true, ops: 20, run: runFleet,
			pinned: "train=305928439145",
		},
		{
			name: "warm-tenants16",
			why:  "16 tenants share one cluster and materialized cache over two epochs: single-flight fills, fair share, pool sharing",
			ops:  25, run: runWarmTenants,
		},
		{
			name: "multinode8-flashcrowd",
			why:  "8-node data-parallel job under worker stall, disk brownout and link flap: long netsim flows, ring all-reduce, chaos",
			// Not exact: 9 of 100 ops at seed 1 differed from the other 91 in
			// TrainTime or a stall field (by 0.2 ms to 1.2 s of 42 s) on a
			// 2-core host — with or without the chaos script, at 15 steps or
			// 30. The spread is reported as simtime.sim_divergence_pct.
			ops: 40, run: runMultiNode,
		},
		{
			name:  "serve-256",
			why:   "256 dialed clients on one served 8-core cluster: frames, credits, hundreds of short netsim flows, admission",
			exact: true, ops: 10, run: runServe,
			pinned: "waitp99=1691202232",
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- headline-speech3s ------------------------------------------------------

const headlineIterations = 200

func runHeadline(seed uint64, sink *minato.TraceSink, clk *hostClock) (opResult, error) {
	w := minato.SpeechWorkload(seed, 3*time.Second).WithIterations(headlineIterations)
	res := opResult{vals: map[string]float64{}}
	reps := map[string]*minato.Report{}
	for _, name := range []string{"pytorch", "dali", "minato"} {
		// One loader's spans at a time: the three runs share batch
		// identities, and the traced phase reads the last (minato) run.
		sink.Reset()
		var rep *minato.Report
		var err error
		clk.span("train:"+name, &res.spans, func() {
			rep, err = minato.TrainWorkload(w, minato.WithLoader(name), minato.WithHardware(minato.ConfigA()), minato.WithTracing(sink))
		})
		if err != nil {
			return res, fmt.Errorf("TrainWorkload(%s): %w", name, err)
		}
		want := int64(headlineIterations * w.BatchSize)
		if rep.Samples != want || rep.Batches != headlineIterations {
			return res, fmt.Errorf("%s delivered %d samples in %d batches, want %d in %d",
				name, rep.Samples, rep.Batches, want, headlineIterations)
		}
		reps[name] = rep
		res.samples += rep.Samples
	}
	m := reps["minato"]
	res.vals["sim_train_s"] = m.TrainTime.Seconds()
	res.vals["sim_gpu_util_pct"] = m.AvgGPUUtil
	res.vals["sim_step_p99_ms"] = msec(m.StepP99)
	res.vals["sim_speedup_vs_pytorch_x"] = reps["pytorch"].TrainTime.Seconds() / m.TrainTime.Seconds()
	res.vals["sim_speedup_vs_dali_x"] = reps["dali"].TrainTime.Seconds() / m.TrainTime.Seconds()
	trainStats(res.vals, m)
	// AvgGPUUtil is left out: at seed 1 it repeated on 56 of 56 ops, at
	// seeds 5, 7 and 10 it wobbled in its last digit on about one op in ten
	// (a float sum whose order the scheduler picks). Dropped, not rounded.
	res.fingerprint = fmt.Sprintf("pytorch=%d dali=%d minato=%d stall=%d p50=%d p99=%d",
		reps["pytorch"].TrainTime, reps["dali"].TrainTime, m.TrainTime, m.DataStall, m.StepP50, m.StepP99)
	return res, nil
}

// trainStats copies the [S] figures a single-machine training Report
// carries.
func trainStats(vals map[string]float64, rep *minato.Report) {
	vals["storage.disk_bytes"] = float64(rep.DiskBytes)
	if n := rep.CacheStats.Hits + rep.CacheStats.Misses; n > 0 {
		vals["storage.page_hit_pct"] = 100 * float64(rep.CacheStats.Hits) / float64(n)
	}
	if c := float64(rep.GPUs) * rep.TrainTime.Seconds(); c > 0 {
		vals["core.sim_data_stall_pct"] = 100 * rep.DataStall.Seconds() / c
	}
}

// ---- fleet-64gpu ------------------------------------------------------------

const (
	fleetGPUs          = 64
	fleetBatchesPerGPU = 25
)

func runFleet(seed uint64, sink *minato.TraceSink, clk *hostClock) (opResult, error) {
	iters := fleetGPUs * fleetBatchesPerGPU
	w := minato.SpeechWorkload(seed, 3*time.Second).WithIterations(iters)
	res := opResult{vals: map[string]float64{}}
	var rep *minato.Report
	var err error
	clk.span("train:minato", &res.spans, func() {
		rep, err = minato.TrainWorkload(w, minato.WithLoader("minato"),
			minato.WithHardware(minato.ConfigA().WithGPUs(fleetGPUs)), minato.WithTracing(sink))
	})
	if err != nil {
		return res, fmt.Errorf("TrainWorkload: %w", err)
	}
	if want := int64(iters * w.BatchSize); rep.Samples != want || rep.Batches != int64(iters) {
		return res, fmt.Errorf("delivered %d samples in %d batches, want %d in %d", rep.Samples, rep.Batches, want, iters)
	}
	res.samples = rep.Samples
	res.vals["sim_train_s"] = rep.TrainTime.Seconds()
	res.vals["sim_gpu_util_pct"] = rep.AvgGPUUtil
	res.vals["sim_step_p99_ms"] = msec(rep.StepP99)
	trainStats(res.vals, rep)
	// StepP99 and the utilization are left out: with 64 racing batch
	// constructors the first wanders by percents and the second in its last
	// digits from op to op, so they are reported but cannot be part of an
	// identity (a field is dropped, never rounded).
	res.fingerprint = fmt.Sprintf("train=%d", rep.TrainTime)
	return res, nil
}

// ---- shared corpus ----------------------------------------------------------

// corpus is the prepared dataset the tenant and service workloads share:
// allocation-free (FillSample), with storage keys common to every
// consumer so co-running sessions share one pass through the caches.
// Object sizes are drawn from the benchmark seed (0.75–1.25 MiB), so the
// seed reaches the disk and cache timing and not only the shuffle.
type corpus struct {
	n    int
	seed uint64
}

const corpusKeySpace = "bench-corpus"

func (d corpus) Name() string { return corpusKeySpace }
func (d corpus) Len() int     { return d.n }
func (d corpus) Sample(epoch, i int) *minato.Sample {
	s := &minato.Sample{}
	d.FillSample(epoch, i, s)
	return s
}
func (d corpus) FillSample(epoch, i int, s *minato.Sample) {
	s.Index, s.Epoch = i, epoch
	s.Key = minato.Key{Space: corpusKeySpace, Index: int64(i)}
	size := int64(768<<10) + int64(splitmix(d.seed^uint64(i)*0x9e3779b97f4a7c15)%(512<<10))
	s.RawBytes, s.Bytes = size, size
}

// splitmix is the SplitMix64 finalizer: a stateless hash from (seed, index)
// to 64 well-mixed bits.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fixedCostPipeline(name string, cost time.Duration) *minato.Pipeline {
	return minato.NewPipeline(name,
		minato.NewTransform("step", func(*minato.Sample) time.Duration { return cost }, nil))
}

// seenOnce tracks that a consumer sees every (epoch, index) at most once,
// and — with complete() — exactly once.
type seenOnce struct {
	n    int
	seen []bool // epoch*n + index
}

func newSeenOnce(n, epochs int) *seenOnce { return &seenOnce{n: n, seen: make([]bool, n*epochs)} }

func (s *seenOnce) add(b *minato.Batch) error {
	for _, smp := range b.Samples {
		k := smp.Epoch*s.n + smp.Index
		if smp.Index < 0 || smp.Index >= s.n || k < 0 || k >= len(s.seen) {
			return fmt.Errorf("sample (epoch %d, index %d) outside the budget", smp.Epoch, smp.Index)
		}
		if s.seen[k] {
			return fmt.Errorf("sample (epoch %d, index %d) delivered twice", smp.Epoch, smp.Index)
		}
		s.seen[k] = true
	}
	return nil
}

func (s *seenOnce) complete() error {
	for k, ok := range s.seen {
		if !ok {
			return fmt.Errorf("sample (epoch %d, index %d) never delivered", k/s.n, k%s.n)
		}
	}
	return nil
}

// p99 is the nearest-rank 99th percentile of a consumer's delivery
// intervals on the virtual clock.
func p99(intervals []time.Duration) time.Duration {
	if len(intervals) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), intervals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := (99*len(s) + 99) / 100 // ceil(0.99 n)
	return s[rank-1]
}

// ---- warm-tenants16 ---------------------------------------------------------

const (
	warmTenants   = 16
	warmCorpus    = 2048
	warmBatch     = 32
	warmEpochs    = 2
	warmTransform = 5 * time.Millisecond
)

type tenantOutcome struct {
	samples int64
	coldEnd time.Duration // virtual time of the last epoch-1 batch
	end     time.Duration
	p99     time.Duration
	rep     *minato.Report
	err     error
}

func runWarmTenants(seed uint64, sink *minato.TraceSink, clk *hostClock) (opResult, error) {
	res := opResult{vals: map[string]float64{}}
	ds := corpus{n: warmCorpus, seed: seed}
	var cl *minato.Cluster
	sessions := make([]*minato.Session, warmTenants)
	var err error
	clk.span("setup", &res.spans, func() {
		cl, err = minato.NewCluster(minato.WithHardware(minato.ConfigA()), minato.WithMaterializedCache(4<<30), minato.WithTracing(sink))
		if err != nil {
			return
		}
		for t := range sessions {
			sessions[t], err = cl.Open(ds,
				minato.WithPipeline(fixedCostPipeline("warm-bench", warmTransform)),
				minato.WithBatchSize(warmBatch),
				minato.WithEpochs(warmEpochs),
				minato.WithGPUs(1),
				minato.WithSeed(seed+uint64(t)),
			)
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		if cl != nil {
			_ = cl.Close()
		}
		return res, fmt.Errorf("setup: %w", err)
	}

	perEpoch := warmCorpus / warmBatch
	out := make([]tenantOutcome, warmTenants)
	clk.span("stream", &res.spans, func() {
		var wg sync.WaitGroup
		for t, sess := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[t] = consumeTenant(sess, perEpoch)
			}()
		}
		wg.Wait()
	})

	var stats minato.ClusterStats
	clk.span("close", &res.spans, func() {
		for t, sess := range sessions {
			out[t].rep, err = sess.Close()
			if err != nil && out[t].err == nil {
				out[t].err = err
			}
		}
		err = cl.Close()
		stats = cl.Stats()
	})
	if err != nil {
		return res, fmt.Errorf("Cluster.Close: %w", err)
	}

	var coldEnd, end, worstP99 time.Duration
	for t, o := range out {
		if o.err != nil {
			return res, fmt.Errorf("tenant %d: %w", t, o.err)
		}
		if want := int64(warmEpochs * warmCorpus); o.samples != want || o.rep.Samples != want {
			return res, fmt.Errorf("tenant %d delivered %d samples (report %d), want %d", t, o.samples, o.rep.Samples, want)
		}
		res.samples += o.samples
		coldEnd = max(coldEnd, o.coldEnd)
		end = max(end, o.end)
		worstP99 = max(worstP99, o.p99)
	}
	if stats.Pool.Gets != stats.Pool.Puts {
		return res, fmt.Errorf("pool gets %d != puts %d after Close", stats.Pool.Gets, stats.Pool.Puts)
	}
	mc, pc := stats.MatCache, stats.Cache
	if mc.Fills != warmCorpus || pc.Misses != warmCorpus {
		return res, fmt.Errorf("matcache fills %d, page-cache misses %d, want %d unique keys each", mc.Fills, pc.Misses, warmCorpus)
	}

	cold, warm := coldEnd.Seconds(), (end - coldEnd).Seconds()
	res.vals["sim_train_s"] = end.Seconds()
	res.vals["sim_step_p99_ms"] = msec(worstP99)
	res.vals["sim_warm_speedup_x"] = cold / warm
	res.vals["matcache.sim_cold_epoch_s"] = cold
	res.vals["matcache.sim_warm_epoch_s"] = warm
	res.vals["matcache.hit_pct"] = 100 * mc.HitRate()
	res.vals["matcache.fills_per_key"] = float64(mc.Fills) / warmCorpus
	res.vals["matcache.evictions"] = float64(mc.Evictions)
	res.vals["matcache.saved_s"] = mc.Saved.Seconds()
	clusterStats(res.vals, stats, warmCorpus)
	var disk int64
	for _, o := range out {
		disk += o.rep.DiskBytes
	}
	res.vals["storage.disk_bytes"] = float64(disk)
	return res, nil
}

// consumeTenant drains one session, stamping the virtual clock around each
// delivery and checking exactly-once delivery per epoch.
func consumeTenant(sess *minato.Session, perEpoch int) tenantOutcome {
	var o tenantOutcome
	rt := sess.Runtime()
	seen := newSeenOnce(warmCorpus, warmEpochs)
	intervals := make([]time.Duration, 0, warmEpochs*perEpoch)
	var last *minato.Batch
	var prev time.Duration
	n := 0
	for b, err := range sess.Batches(context.Background()) {
		if err != nil {
			o.err = err
			return o
		}
		now := rt.Now()
		if n > 0 {
			intervals = append(intervals, now-prev)
		}
		prev = now
		n++
		if n == perEpoch {
			o.coldEnd = now
		}
		if err := seen.add(b); err != nil {
			o.err = err
			return o
		}
		o.samples += int64(b.Size())
		last = b
	}
	if last != nil {
		last.Release() // the final batch is never recycled by the iterator
	}
	o.end = prev
	o.p99 = p99(intervals)
	o.err = seen.complete()
	return o
}

// clusterStats copies the [S] figures a ClusterStats snapshot carries.
func clusterStats(vals map[string]float64, st minato.ClusterStats, uniqueKeys int) {
	if n := st.Cache.Hits + st.Cache.Misses; n > 0 {
		vals["storage.page_hit_pct"] = 100 * float64(st.Cache.Hits) / float64(n)
	}
	vals["storage.page_misses_per_key"] = float64(st.Cache.Misses) / float64(uniqueKeys)
	if st.Pool.Gets > 0 {
		vals["data.pool_reuse_pct"] = 100 * float64(st.Pool.Reuses) / float64(st.Pool.Gets)
	}
	vals["data.pool_live_peak"] = float64(st.Pool.LivePeak)
	vals["minato.admission_rejected"] = float64(st.RejectedTotal)
}

// ---- multinode8-flashcrowd --------------------------------------------------

const (
	multiNodes = 8
	multiSteps = 30
)

func flashCrowd() minato.ChaosScript {
	return minato.ComposeChaos("flashcrowd",
		minato.StallWorkers(0, 5*time.Second, 2, 5*time.Second),
		minato.BrownoutDisk(5*time.Second, 8, 10*time.Second),
		minato.FlapLink(2, 6*time.Second, 8, 6*time.Second),
	)
}

func runMultiNode(seed uint64, sink *minato.TraceSink, clk *hostClock) (opResult, error) {
	w := minato.SpeechWorkload(seed, 3*time.Second).WithIterations(multiSteps)
	res := opResult{vals: map[string]float64{}}
	var rep *minato.MultiNodeReport
	var err error
	clk.span("train:multinode", &res.spans, func() {
		rep, err = minato.TrainMultiNodeWorkload(w, minato.WithNodes(multiNodes), minato.WithGPUs(1),
			minato.WithChaos(flashCrowd()), minato.WithTracing(sink))
	})
	if err != nil {
		return res, fmt.Errorf("TrainMultiNodeWorkload: %w", err)
	}
	want := int64(multiNodes * multiSteps * w.BatchSize)
	if rep.Steps != multiSteps || rep.Samples != want {
		return res, fmt.Errorf("completed %d steps and %d samples, want %d and %d", rep.Steps, rep.Samples, multiSteps, want)
	}
	res.samples = rep.Samples
	res.vals["sim_train_s"] = rep.TrainTime.Seconds()
	res.vals["sim_gpu_util_pct"] = rep.AvgGPUUtil
	res.vals["sim_step_p99_ms"] = msec(rep.StepP99)
	res.vals["netsim.bytes"] = float64(rep.NetworkBytes)
	res.vals["netsim.sim_net_stall_pct"] = 100 * rep.NetworkStallShare()
	res.vals["distributed.sim_step_ms"] = msec(rep.StepTime())
	res.vals["distributed.sim_barrier_stall_pct"] = 100 * rep.BarrierStallShare()
	res.vals["distributed.sim_data_stall_pct"] = 100 * rep.DataStallShare()
	res.vals["core.sim_data_stall_pct"] = 100 * rep.DataStallShare()
	res.vals["chaos.faults_applied"] = float64(len(rep.Faults))
	var faultStall time.Duration
	for _, f := range rep.Faults {
		faultStall += f.StallDuring
	}
	res.vals["chaos.sim_fault_stall_s"] = faultStall.Seconds()
	return res, nil
}

// ---- serve-256 --------------------------------------------------------------

const (
	serveClients          = 256
	serveEndpoints        = 264
	serveBatch            = 32
	serveBatchesPerClient = 8
	servePrefetch         = 4
	serveTransform        = time.Millisecond
)

func runServe(seed uint64, sink *minato.TraceSink, clk *hostClock) (opResult, error) {
	res := opResult{vals: map[string]float64{}}
	var (
		sn       *minato.ServiceNet
		cl       *minato.Cluster
		addr     *minato.ServerAddr
		sessions = make([]*minato.RemoteSession, serveClients)
		err      error
	)
	cleanup := func() {
		if addr != nil {
			_ = addr.Close()
		}
		if cl != nil {
			_ = cl.Close()
		}
	}
	clk.span("setup", &res.spans, func() {
		sn = minato.NewServiceNet(nil, minato.ServiceNetConfig{Endpoints: serveEndpoints})
		cl, err = minato.NewCluster(minato.WithRuntime(sn.Runtime()),
			minato.WithEnv(minato.EnvConfig{Cores: 8, GPUs: 1}), minato.WithTracing(sink))
		if err != nil {
			return
		}
		addr, err = minato.Serve(cl, minato.WithServiceNet(sn), minato.WithTracing(sink),
			minato.Publish("corpus", corpus{n: warmCorpus, seed: seed}, fixedCostPipeline("serve-bench", serveTransform)))
		if err != nil {
			return
		}
		for c := range sessions {
			sessions[c], err = minato.Dial(addr,
				minato.WithBatchSize(serveBatch),
				minato.WithIterations(serveBatchesPerClient),
				minato.WithSeed(seed+uint64(c)),
				minato.WithPrefetch(servePrefetch),
			)
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		cleanup()
		return res, fmt.Errorf("setup: %w", err)
	}

	errs := make([]error, serveClients)
	clk.span("stream", &res.spans, func() {
		minato.StreamAll(context.Background(), sessions, func(i int, s *minato.RemoteSession) {
			seen := newSeenOnce(warmCorpus, 1)
			var last *minato.Batch
			for b, err := range s.Batches(context.Background()) {
				if err != nil {
					errs[i] = err
					return
				}
				if err := seen.add(b); err != nil {
					errs[i] = err
					return
				}
				last = b
			}
			if last != nil {
				last.Release()
			}
		})
	})
	simEnd := sn.Runtime().Now()

	var (
		worstWait, worstStep time.Duration
		waitP50s             = make([]float64, 0, serveClients)
		retries              int64
		srv                  minato.ServeStats
		stats                minato.ClusterStats
	)
	clk.span("close", &res.spans, func() {
		for i, s := range sessions {
			cs := s.Stats()
			worstWait = max(worstWait, cs.WaitP99)
			worstStep = max(worstStep, cs.StepP99)
			waitP50s = append(waitP50s, msec(cs.WaitP50))
			retries += cs.Retries
			rep, cerr := s.Close()
			if cerr != nil && errs[i] == nil {
				errs[i] = cerr
			}
			if rep != nil {
				res.samples += rep.Samples
			}
		}
		srv = addr.Stats()
		if cerr := addr.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("ServerAddr.Close: %w", cerr)
		}
		if cerr := cl.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("Cluster.Close: %w", cerr)
		}
		stats = cl.Stats()
	})
	if err != nil {
		return res, err
	}
	for i, e := range errs {
		if e != nil {
			return res, fmt.Errorf("client %d: %w", i, e)
		}
	}
	if want := int64(serveClients * serveBatchesPerClient * serveBatch); res.samples != want {
		return res, fmt.Errorf("delivered %d samples, want %d", res.samples, want)
	}
	if want := int64(serveClients * serveBatchesPerClient); srv.BatchesSent != want {
		return res, fmt.Errorf("server sent %d batches, want %d", srv.BatchesSent, want)
	}
	if srv.MaxPending > servePrefetch {
		return res, fmt.Errorf("send window high-water %d above the window %d", srv.MaxPending, servePrefetch)
	}
	if stats.Pool.Gets != stats.Pool.Puts {
		return res, fmt.Errorf("pool gets %d != puts %d after Close", stats.Pool.Gets, stats.Pool.Puts)
	}

	net := sn.Stats()
	res.vals["sim_train_s"] = simEnd.Seconds()
	res.vals["sim_step_p99_ms"] = msec(worstStep)
	res.vals["service.batches_sent"] = float64(srv.BatchesSent)
	res.vals["service.bytes_sent"] = float64(srv.BytesSent)
	res.vals["service.max_pending"] = float64(srv.MaxPending)
	res.vals["service.rejected"] = float64(srv.RejectedUnauthorized + srv.RejectedQuota + srv.RejectedOverloaded + srv.RejectedUnknown)
	res.vals["service.retries"] = float64(retries)
	res.vals["service.sim_wait_p50_ms"] = median(waitP50s)
	res.vals["service.sim_wait_p99_ms"] = msec(worstWait)
	res.vals["netsim.bytes"] = float64(net.BytesMoved)
	res.vals["netsim.flows"] = float64(net.FlowsCompleted)
	clusterStats(res.vals, stats, warmCorpus)
	res.fingerprint = fmt.Sprintf("waitp99=%d", worstWait)
	return res, nil
}
