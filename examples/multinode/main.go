// Multinode: a four-node data-parallel cluster with one straggler node —
// the scenario where loader quality compounds with scale.
//
// Each node is a full simulated testbed (CPU pool, GPUs, page cache)
// running its own loader over a deterministic shard of the dataset.
// Gradient all-reduce runs as ring-reduce flows over a simulated 200 Gb/s
// interconnect, and cold shard reads are fetched from a shared storage
// server over the same NICs, so data and gradient traffic contend. Node 1
// is a straggler (an eighth of its CPU cores): every synchronous step, the
// whole cluster waits for its preprocessing.
//
// The demo trains the straggler cluster with the PyTorch-model loader and
// with MinatoLoader, prints per-node stall attribution (own input, the
// barrier, the network), and proves determinism by running the Minato
// configuration twice and requiring bit-identical reports — and, with
// tracing attached, a bit-identical Chrome trace export (written to
// multinode-trace.json; load it in Perfetto or chrome://tracing).
//
//	go run ./examples/multinode
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"time"

	"github.com/minatoloader/minato"
)

func train(loader string, extra ...minato.Option) *minato.Report {
	w, ok := minato.WorkloadByName("speech-3s", 1)
	if !ok {
		log.Fatal("speech-3s workload not registered")
	}
	opts := []minato.Option{
		minato.WithTopology(minato.Topology{
			Nodes:      4,
			Stragglers: []minato.NodeFault{{Node: 1, Factor: 8}},
		}),
		minato.WithLoader(loader),
		minato.WithGPUs(1),
		minato.WithIterations(60),
	}
	opts = append(opts, extra...)
	rep, err := minato.Train(w, opts...)
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

// tracedExport reruns the minato configuration with a trace sink attached
// and returns the Chrome trace-event export bytes.
func tracedExport() []byte {
	sink := minato.NewTraceSink()
	train("minato", minato.WithTracing(sink))
	var buf bytes.Buffer
	if err := sink.WriteChrome(&buf); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func printReport(rep *minato.Report) {
	fmt.Printf("\n%s: %d synchronized steps, %.0f ms whole-cluster step, GPU %.1f%%, %.1f GB over the fabric\n",
		rep.Loader, rep.Steps, rep.StepTime().Seconds()*1000, rep.AvgGPUUtil,
		float64(rep.NetworkBytes)/1e9)
	fmt.Printf("  %-6s %-12s %8s %12s %14s %14s %8s\n",
		"node", "hardware", "samples", "data_stall", "barrier_stall", "net_stall", "gpu")
	for _, n := range rep.PerNode {
		fmt.Printf("  %-6d %-12s %8d %11.1fs %13.1fs %13.1fs %7.1f%%\n",
			n.Node, n.Hardware, n.Samples,
			n.DataStall.Seconds(), n.BarrierStall.Seconds(), n.NetworkStall.Seconds(),
			n.GPUUtil)
	}
}

func main() {
	traceOut := flag.String("out", "multinode-trace.json", "Chrome trace-event JSON output path")
	flag.Parse()
	start := time.Now()

	pt := train("pytorch")
	mn := train("minato")
	printReport(pt)
	printReport(mn)

	speedup := float64(pt.StepTime()) / float64(mn.StepTime())
	fmt.Printf("\nwhole-cluster step time: pytorch %.0f ms vs minato %.0f ms — %.2fx speedup under a straggler\n",
		pt.StepTime().Seconds()*1000, mn.StepTime().Seconds()*1000, speedup)

	// Determinism proof: the same topology and seed must reproduce the
	// multi-node report bit-for-bit, per-node stall timings included.
	again := train("minato")
	if !reflect.DeepEqual(mn, again) {
		fmt.Println("\nDETERMINISM FAILURE: multi-node reports diverged between runs")
		fmt.Printf("run 1: %+v\nrun 2: %+v\n", mn, again)
		os.Exit(1)
	}
	fmt.Println("4 nodes × 2 runs: multi-node reports bit-identical (deterministic)")

	// The same proof for the full trace: two traced runs must export
	// byte-identical Chrome trace-event JSON (every span stamped from the
	// virtual clock, every label the one its layer recorded).
	t1, t2 := tracedExport(), tracedExport()
	if !bytes.Equal(t1, t2) {
		fmt.Println("\nDETERMINISM FAILURE: trace exports diverged between runs")
		os.Exit(1)
	}
	if err := os.WriteFile(*traceOut, t1, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %s (%d bytes, bit-identical across runs) — open in Perfetto\n", *traceOut, len(t1))
	fmt.Printf("wall time: %s\n", time.Since(start).Round(time.Millisecond))
}
