// Command minato-trace runs one training scenario with end-to-end tracing
// enabled and renders what the trace says: a Chrome trace-event JSON file
// viewable in Perfetto (ui.perfetto.dev) or chrome://tracing, a per-batch
// critical-path "journey" table attributing each delivered batch's latency
// (data wait, copy, GPU step, barrier, network, downtime), and a
// Prometheus text-format snapshot of the run's collected metrics.
//
//	minato-trace -workload speech-3s -loader minato -out trace.json
//	minato-trace -workload speech-3s -nodes 4 -chaos <scenario> -out trace.json
//	minato-trace -workload img-seg -prom metrics.prom -top 20
//
// The run is deterministic: identical flags produce a bit-identical
// trace.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/minatoloader/minato"
)

func main() {
	var (
		wl      = flag.String("workload", "speech-3s", "registered workload")
		ld      = flag.String("loader", "minato", "registered loader")
		testbed = flag.String("testbed", "A", "A (4×A100) or B (8×V100)")
		nodes   = flag.Int("nodes", 0, "run multi-node with this many nodes (0 = single machine)")
		gpus    = flag.Int("gpus", 0, "override GPU count")
		iters   = flag.Int("iterations", 0, "override iteration budget")
		epochs  = flag.Int("epochs", 0, "override epoch budget")
		seed    = flag.Uint64("seed", 1, "random seed")
		chaosN  = flag.String("chaos", "", "registered chaos scenario to replay")
		out     = flag.String("out", "trace.json", "Chrome trace-event JSON output file")
		prom    = flag.String("prom", "", "write Prometheus text-format metrics snapshot to this file")
		top     = flag.Int("top", 10, "journey-table rows (slowest batches first; 0 disables)")
	)
	flag.Parse()

	sink := minato.NewTraceSink()
	opts := []minato.Option{
		minato.WithLoader(*ld),
		minato.WithSeed(*seed),
		minato.WithTracing(sink),
	}
	cfg := minato.ConfigA()
	if *testbed == "B" || *testbed == "b" {
		cfg = minato.ConfigB()
	}
	if *gpus > 0 {
		opts = append(opts, minato.WithGPUs(*gpus))
	}
	if *iters > 0 {
		opts = append(opts, minato.WithIterations(*iters))
	}
	if *epochs > 0 {
		opts = append(opts, minato.WithEpochs(*epochs))
	}
	if *chaosN != "" {
		opts = append(opts, minato.WithChaosScenario(*chaosN))
	}

	start := time.Now()
	var trainTime time.Duration
	var stalls string
	if *nodes > 0 {
		opts = append(opts, minato.WithNodes(*nodes), minato.WithHardware(cfg))
		rep, err := minato.TrainMultiNode(*wl, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		trainTime = rep.TrainTime
		stalls = fmt.Sprintf("data %.1fs, barrier %.1fs, network %.1fs",
			rep.DataStall.Seconds(), rep.BarrierStall.Seconds(), rep.NetworkStall.Seconds())
	} else {
		opts = append(opts, minato.WithHardware(cfg), minato.WithParams(minato.Params{Collect: true}))
		rep, err := minato.Train(*wl, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		trainTime = rep.TrainTime
		stalls = fmt.Sprintf("data %.1fs", rep.DataStall.Seconds())
		if *prom != "" {
			f, err := os.Create(*prom)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := rep.WritePrometheus(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("metrics: %s\n", *prom)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := sink.WriteChrome(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace:   %s (%d spans)\n", *out, sink.Len())
	}

	fmt.Printf("run:     %s × %s, train %.1fs simulated (%s wall)\n",
		*wl, *ld, trainTime.Seconds(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("stalls:  %s\n", stalls)

	paths := sink.CriticalPath()
	attr := sink.Attribute(nil)
	fmt.Printf("batches: %d traced; latency %.1fs = gpu %.1fs + data %.1fs + copy %.1fs + barrier %.1fs + net %.1fs + down %.1fs + other %.1fs\n",
		attr.Batches, attr.Latency.Seconds(), attr.GPUStep.Seconds(), attr.DataWait.Seconds(),
		attr.Copy.Seconds(), attr.BarrierWait.Seconds(), attr.NetworkWait.Seconds(),
		attr.Downtime.Seconds(), attr.Other.Seconds())

	if *top > 0 && len(paths) > 0 {
		sort.SliceStable(paths, func(i, j int) bool { return paths[i].Latency() > paths[j].Latency() })
		n := *top
		if n > len(paths) {
			n = len(paths)
		}
		fmt.Printf("\nslowest %d batch journeys:\n", n)
		fmt.Printf("  %-6s %-4s %-4s %-6s %10s %10s %10s %10s %10s %10s\n",
			"seq", "node", "gpu", "tenant", "latency", "data", "copy", "gpu-step", "barrier", "net")
		for _, p := range paths[:n] {
			fmt.Printf("  %-6d %-4d %-4d %-6d %10s %10s %10s %10s %10s %10s\n",
				p.Seq, p.Node, p.GPU, p.Tenant,
				ms(p.Latency()), ms(p.DataWait), ms(p.Copy), ms(p.GPUStep), ms(p.BarrierWait), ms(p.NetworkWait))
		}
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}
