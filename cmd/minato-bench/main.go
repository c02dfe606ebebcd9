// Command minato-bench regenerates the paper's tables and figures, and
// runs one-off loader × workload sessions through the public registry.
//
// Usage:
//
//	minato-bench -exp fig7              # one experiment
//	minato-bench -exp all               # everything (several minutes)
//	minato-bench -exp e1 -out results   # also write CSVs for plotting
//	minato-bench -list                  # list experiment IDs
//
//	minato-bench -loader minato -workload speech-3s        # one session
//	minato-bench -loader pytorch -workload img-seg -quick  # shortened
//	minato-bench -fleet                 # scale-out tier: 8/32/64 GPUs
//	minato-bench -tenants               # multi-tenant tier: 1/4/16 sessions
//	minato-bench -nodes                 # multi-node tier: 2/8-node clusters
//	minato-bench -warm                  # warm-start tier: materialized cache
//	minato-bench -chaos                 # fault-injection tier: chaos scenarios
//	minato-bench -serve                 # disaggregated tier: 1/16/256 remote clients
//
// Experiment IDs follow the paper: table1..table3, fig1b..fig12, e1 (the
// artifact appendix run), and abl-* design ablations. Loader and workload
// names resolve through the public registries (minato.RegisterLoader /
// minato.RegisterWorkload), so downstream backends benchmark without
// editing this command. See DESIGN.md for the full index.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato"
	"github.com/minatoloader/minato/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment ID, comma list, or 'all'")
		loader    = flag.String("loader", "", "run one session with this registered loader")
		workload  = flag.String("workload", "", "run one session with this registered workload")
		out       = flag.String("out", "", "directory for CSV output (optional)")
		seed      = flag.Uint64("seed", 1, "random seed")
		quick     = flag.Bool("quick", false, "shrink run lengths (CI mode)")
		fleet     = flag.Bool("fleet", false, "run the multi-GPU scale-out tier (8/32/64 simulated GPUs)")
		tenants   = flag.Bool("tenants", false, "run the multi-tenant cluster tier (1/4/16 concurrent sessions)")
		nodes     = flag.Bool("nodes", false, "run the multi-node tier (2/8-node clusters over the netsim fabric)")
		warm      = flag.Bool("warm", false, "run the warm-start tier (1/4/16 tenants over a shared materialized cache)")
		chaosTier = flag.Bool("chaos", false, "run the fault-injection tier (registered chaos scenarios on an 8-node cluster)")
		serve     = flag.Bool("serve", false, "run the disaggregated-service tier (1/16/256 remote clients on one preprocessing server)")
		traceOut  = flag.String("trace", "", "with -loader/-workload: write Chrome trace-event JSON to this file")
		list      = flag.Bool("list", false, "list experiment IDs and registered names, then exit")
	)
	flag.Parse()

	tiers := []struct {
		flag string
		on   bool
		run  func() int
	}{
		{"-fleet", *fleet, func() int { return runFleet(*loader, *workload, *seed, *quick) }},
		{"-tenants", *tenants, func() int { return runTenants(*workload, *seed, *quick) }},
		{"-nodes", *nodes, func() int { return runNodes(*workload, *seed, *quick) }},
		{"-warm", *warm, func() int { return runWarm(*workload, *seed, *quick) }},
		{"-chaos", *chaosTier, func() int { return runChaos(*workload, *seed, *quick) }},
		{"-serve", *serve, func() int { return runServe(*workload, *seed, *quick) }},
	}
	var picked []string
	var runTier func() int
	for _, t := range tiers {
		if t.on {
			picked, runTier = append(picked, t.flag), t.run
		}
	}
	session := runTier == nil && (*loader != "" || *workload != "") && !*list
	// A flag this invocation would not act on is a usage error, not a no-op.
	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(2)
	}
	switch {
	case len(picked) > 1:
		usage(strings.Join(picked, " ") + " are mutually exclusive: one tier per run")
	case runTier != nil && *exp != "":
		usage(picked[0] + " and -exp are mutually exclusive")
	case session && *exp != "":
		usage("-exp and -loader/-workload are mutually exclusive")
	case *traceOut != "" && !session:
		usage("-trace records one session: give -loader and/or -workload, and no tier flag, -exp or -list")
	case runTier != nil:
		os.Exit(runTier())
	case session:
		os.Exit(runSession(*loader, *workload, *seed, *quick, *traceOut))
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, r := range experiments.All() {
			fmt.Printf("  %-12s %s\n", r.ID, r.Title)
		}
		fmt.Println("\nregistered workloads:", strings.Join(minato.Workloads(), " "))
		fmt.Println("registered loaders:  ", strings.Join(minato.Loaders(), " "))
		if *exp == "" {
			fmt.Println("\nrun with -exp <id>[,<id>...], -exp all, or -loader X -workload Y")
		}
		return
	}

	var ids []string
	if *exp == "all" {
		for _, r := range experiments.All() {
			ids = append(ids, r.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, OutDir: *out}
	failed := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		r, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			failed++
			continue
		}
		start := time.Now()
		res, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed++
			continue
		}
		fmt.Print(res.Render())
		fmt.Printf("(%s completed in %s wall time)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runSession benchmarks a single loader × workload pair via the v2 API,
// resolving both names through the registry.
func runSession(loader, workload string, seed uint64, quick bool, traceOut string) int {
	if loader == "" {
		loader = "minato"
	}
	if workload == "" {
		workload = "speech-3s"
	}
	opts := []minato.Option{
		minato.WithLoader(loader),
		minato.WithSeed(seed),
		minato.WithParams(minato.Params{Collect: true}),
	}
	if quick {
		opts = append(opts, minato.WithIterations(100))
	}
	var sink *minato.TraceSink
	if traceOut != "" {
		sink = minato.NewTraceSink()
		opts = append(opts, minato.WithTracing(sink))
	}
	start := time.Now()
	rep, err := minato.Train(workload, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%s × %s on %d GPUs: train %.1fs, %.1f MB/s, GPU %.1f%%, CPU %.1f%% (%s wall)\n",
		rep.Workload, rep.Loader, rep.GPUs, rep.TrainTime.Seconds(), rep.Throughput(),
		rep.AvgGPUUtil, rep.AvgCPUUtil, time.Since(start).Round(time.Millisecond))
	if sink != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := sink.WriteChrome(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("trace: %s (%d spans)\n", traceOut, sink.Len())
	}
	return 0
}

// runTenants benchmarks the multi-tenant cluster tier: 1, 4, and 16
// concurrent training sessions of the given workload co-running on one
// shared ConfigA cluster — shared page cache (single-flight fills), shared
// sample pool, fairly-arbitrated CPU workers — reporting aggregate
// throughput and per-tenant cache attribution.
func runTenants(workload string, seed uint64, quick bool) int {
	if workload == "" {
		workload = "speech-3s"
	}
	iters := 100
	if quick {
		iters = 25
	}
	for _, n := range []int{1, 4, 16} {
		cl, err := minato.NewCluster(
			minato.WithHardware(minato.ConfigA()),
			minato.WithMaxSessions(n),
		)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		start := time.Now()
		var wg sync.WaitGroup
		var samples, hits atomic.Int64
		failed := atomic.Bool{}
		for t := 0; t < n; t++ {
			t := t
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := cl.Train(workload,
					minato.WithSeed(seed+uint64(t)),
					minato.WithIterations(iters),
					minato.WithGPUs(1),
				)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					failed.Store(true)
					return
				}
				samples.Add(rep.Samples)
				hits.Add(rep.CacheStats.Hits)
			}()
		}
		wg.Wait()
		if failed.Load() {
			cl.Close()
			return 1
		}
		wall := time.Since(start)
		fmt.Printf("tenants %2d × %s: %d samples in %s wall (%.0f samples/s aggregate), %d attributed cache hits\n",
			n, workload, samples.Load(), wall.Round(time.Millisecond),
			float64(samples.Load())/wall.Seconds(), hits.Load())
		if err := cl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// runWarm benchmarks the warm-start tier: 1, 4, and 16 tenants training the
// same workload on one cluster with the materialized preprocessed-sample
// cache enabled. Every tenant uses the same seed, so all sessions walk the
// same shard in the same order — the co-tenant warm-start scenario where
// single-flight fills materialize each entry exactly once and everyone else
// restores instead of preprocessing.
func runWarm(workload string, seed uint64, quick bool) int {
	if workload == "" {
		workload = "speech-3s"
	}
	iters := 100
	if quick {
		iters = 25
	}
	for _, n := range []int{1, 4, 16} {
		cl, err := minato.NewCluster(
			minato.WithHardware(minato.ConfigA()),
			minato.WithMaxSessions(n),
			minato.WithMaterializedCache(4<<30),
		)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		start := time.Now()
		var wg sync.WaitGroup
		var samples atomic.Int64
		failed := atomic.Bool{}
		for t := 0; t < n; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Same seed for every tenant: the warm-start matrix wants
				// the tenants to share one key sequence, not stride apart.
				rep, err := cl.Train(workload,
					minato.WithSeed(seed),
					minato.WithIterations(iters),
					minato.WithGPUs(1),
				)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					failed.Store(true)
					return
				}
				samples.Add(rep.Samples)
			}()
		}
		wg.Wait()
		if failed.Load() {
			cl.Close()
			return 1
		}
		wall := time.Since(start)
		mc := cl.Stats().MatCache
		fmt.Printf("warm %2d tenants × %s: %d samples in %s wall (%.0f samples/s aggregate), mat cache %d hits / %d fills (%.1f%% hit rate), %.1fs preprocessing saved\n",
			n, workload, samples.Load(), wall.Round(time.Millisecond),
			float64(samples.Load())/wall.Seconds(),
			mc.Hits, mc.Fills, 100*mc.HitRate(), mc.Saved.Seconds())
		if err := cl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// runNodes benchmarks the multi-node tier: 2- and 8-node data-parallel
// clusters over the simulated interconnect, comparing the PyTorch-model
// loader against MinatoLoader on whole-cluster step time and network-stall
// share.
func runNodes(workload string, seed uint64, quick bool) int {
	if workload == "" {
		workload = "speech-3s"
	}
	// Per-node budget: every node runs its own loader over its shard, so
	// the per-rank work is constant across tiers.
	itersPerNode := 15
	if quick {
		itersPerNode = 5
	}
	for _, n := range []int{2, 8} {
		for _, loader := range []string{"pytorch", "minato"} {
			start := time.Now()
			rep, err := minato.TrainMultiNode(workload,
				minato.WithNodes(n),
				minato.WithLoader(loader),
				minato.WithSeed(seed),
				minato.WithGPUs(1),
				minato.WithIterations(itersPerNode),
			)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			wall := time.Since(start)
			fmt.Printf("nodes %d × %-7s: %d steps, %.0f ms/step cluster, GPU %.1f%%, stalls data %.1f%% / barrier %.1f%% / net %.1f%% (%s wall)\n",
				n, rep.Loader, rep.Steps, rep.StepTime().Seconds()*1000, rep.AvgGPUUtil,
				100*rep.DataStallShare(), 100*rep.BarrierStallShare(), 100*rep.NetworkStallShare(),
				wall.Round(time.Millisecond))
		}
	}
	return 0
}

// runChaos benchmarks the fault-injection tier: every registered chaos
// scenario that is valid on an 8-node cluster (plus a no-chaos baseline),
// reporting the SLO view: tail step time and measured recovery.
func runChaos(workload string, seed uint64, quick bool) int {
	if workload == "" {
		workload = "speech-3s"
	}
	const nodes = 8
	itersPerNode := 15
	if quick {
		itersPerNode = 5
	}
	run := func(name string, opts ...minato.Option) int {
		start := time.Now()
		opts = append([]minato.Option{
			minato.WithNodes(nodes),
			minato.WithSeed(seed),
			minato.WithGPUs(1),
			minato.WithIterations(itersPerNode),
		}, opts...)
		rep, err := minato.TrainMultiNode(workload, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("chaos %-14s: %d steps, p99 %.0f ms/step, recovery %.0f ms, GPU %.1f%% (%s wall)\n",
			name, rep.Steps, rep.StepP99.Seconds()*1000, rep.RecoveryTime().Seconds()*1000,
			rep.AvgGPUUtil, time.Since(start).Round(time.Millisecond))
		return 0
	}
	if rc := run("baseline"); rc != 0 {
		return rc
	}
	for _, name := range minato.ChaosScenarios() {
		script, _ := minato.ChaosScenarioByName(name)
		if script.Validate(nodes) != nil {
			continue // single-machine-only scenario (preemption etc.)
		}
		if rc := run(name, minato.WithChaosScenario(name)); rc != 0 {
			return rc
		}
	}
	return 0
}

// runFleet benchmarks the scale-out tier: one session per fleet size, each
// GPU consuming a fixed batch budget, reporting simulator wall throughput.
func runFleet(loader, workload string, seed uint64, quick bool) int {
	if loader == "" {
		loader = "minato"
	}
	if workload == "" {
		workload = "speech-3s"
	}
	batchesPerGPU := 25
	if quick {
		batchesPerGPU = 10
	}
	for _, gpus := range []int{8, 32, 64} {
		start := time.Now()
		rep, err := minato.Train(workload,
			minato.WithLoader(loader),
			minato.WithSeed(seed),
			minato.WithGPUs(gpus),
			minato.WithIterations(batchesPerGPU*gpus),
		)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		wall := time.Since(start)
		fmt.Printf("fleet %2d GPUs × %s: %d samples in %s wall (%.0f samples/s), train %.1fs, GPU %.1f%%\n",
			gpus, rep.Loader, rep.Samples, wall.Round(time.Millisecond),
			float64(rep.Samples)/wall.Seconds(), rep.TrainTime.Seconds(), rep.AvgGPUUtil)
	}
	return 0
}

// runServe benchmarks the disaggregated-service tier: one preprocessing
// server (an 8-core cluster) publishes a registered workload's dataset and
// pipeline on a netsim fabric, and 1, 16, and 256 remote clients stream a
// fixed batch budget through Dial concurrently on one kernel. Reported per
// tier: aggregate samples per wall second, the worst client's p99 batch
// wait in virtual time, and the server's stream/rejection counters.
func runServe(workloadName string, seed uint64, quick bool) int {
	if workloadName == "" {
		workloadName = "speech-3s"
	}
	iters := 32
	tiers := []int{1, 16, 256}
	if quick {
		iters = 8
		tiers = []int{1, 16}
	}
	for _, n := range tiers {
		w, ok := minato.WorkloadByName(workloadName, seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (use -list)\n", workloadName)
			return 2
		}
		sn := minato.NewServiceNet(nil, minato.ServiceNetConfig{Endpoints: n + 8})
		cl, err := minato.NewCluster(
			minato.WithRuntime(sn.Runtime()),
			minato.WithEnv(minato.EnvConfig{Cores: 8, GPUs: 1}),
		)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		addr, err := minato.Serve(cl, minato.WithServiceNet(sn),
			minato.Publish(workloadName, w.Dataset, w.Pipeline))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		start := time.Now()
		sessions := make([]*minato.RemoteSession, n)
		for c := range sessions {
			rs, err := minato.Dial(addr,
				minato.WithBatchSize(w.BatchSize),
				minato.WithIterations(iters),
				minato.WithSeed(seed+uint64(c)),
				minato.WithPrefetch(4),
			)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			sessions[c] = rs
		}
		failed := atomic.Bool{}
		minato.StreamAll(context.Background(), sessions, func(_ int, s *minato.RemoteSession) {
			var last *minato.Batch
			for b, err := range s.Batches(context.Background()) {
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					failed.Store(true)
					return
				}
				last = b
			}
			if last != nil {
				last.Release()
			}
		})
		var samples int64
		var worstP99 time.Duration
		for _, s := range sessions {
			if p := s.Stats().WaitP99; p > worstP99 {
				worstP99 = p
			}
			rep, err := s.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed.Store(true)
				continue
			}
			samples += rep.Samples
		}
		wall := time.Since(start)
		ss := addr.Stats()
		if err := addr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := cl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if failed.Load() {
			return 1
		}
		fmt.Printf("serve %3d clients × %s: %d samples in %s wall (%.0f samples/s aggregate), worst p99 batch wait %.1fms virtual, %d streams, %d batches sent\n",
			n, workloadName, samples, wall.Round(time.Millisecond),
			float64(samples)/wall.Seconds(), float64(worstP99)/float64(time.Millisecond),
			ss.StreamsTotal, ss.BatchesSent)
	}
	return 0
}
