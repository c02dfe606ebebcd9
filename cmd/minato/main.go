// Command minato drives the simulator from the shell: one training run, the
// paper's experiments, or the offline preprocessing-cost profile.
//
// Usage:
//
//	minato run [flags]                       # one training run and its report
//	minato exp [-quick] [-seed N] [-out DIR] <id>[,<id>...]|all
//	minato exp -list                         # experiment IDs and registered names
//	minato profile [flags]                   # per-sample preprocessing cost
//
// Examples:
//
//	minato run -workload speech-3s -loader minato -gpus 4
//	minato run -workload img-seg -loader pytorch -testbed B -epochs 10
//	minato run -workload speech-3s -trace trace.json -prom metrics.prom -top 20
//	minato run -workload speech-3s -nodes 4 -chaos link-flap -trace trace.json
//	minato exp fig7                          # one experiment
//	minato exp -out results e1               # also write CSVs for plotting
//	minato profile -workload speech-3s -n 5000 -per-transform
//
// Workload and loader names resolve through the public registries, so
// backends registered via minato.RegisterLoader / minato.RegisterWorkload
// are addressable here without editing this command. Experiment IDs follow
// the paper: table1..table3, fig1b..fig12, e1 (the artifact appendix run),
// and abl-* design ablations; see DESIGN.md for the full index. Every run
// is deterministic: identical flags print identical simulated numbers and
// write a bit-identical trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/minatoloader/minato"
	"github.com/minatoloader/minato/internal/experiments"
	"github.com/minatoloader/minato/internal/metrics"
)

const usageLine = "usage: minato run|exp|profile [flags] (see -h on each)"

func main() {
	if len(os.Args) < 2 {
		usage(usageLine)
	}
	cmds := map[string]func([]string){"run": run, "exp": exp, "profile": profile}
	cmd, ok := cmds[os.Args[1]]
	if !ok {
		usage(fmt.Sprintf("unknown command %q; %s", os.Args[1], usageLine))
	}
	cmd(os.Args[2:])
}

// usage reports a request this command would not carry out as asked: the
// reason on stderr, exit status 2, and nothing run.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(2)
}

// fail reports a run that could not finish.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// parse parses args into fs and rejects leftover positional arguments. It
// returns the names of the flags set on the command line.
func parse(fs *flag.FlagSet, args []string) map[string]bool {
	_ = fs.Parse(args) // flag.ExitOnError: a bad flag exits 2 itself
	if fs.NArg() > 0 {
		usage(fmt.Sprintf("minato %s: unexpected argument %q", fs.Name(), fs.Arg(0)))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// writeFile creates path, hands it to write, and closes it.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fail(err)
	}
}

// run trains one workload with one loader, on one machine or across -nodes
// data-parallel nodes, and prints the report. With -trace, -nodes or -chaos
// the run is traced and the report is followed by the stall breakdown, the
// batch-latency attribution and the slowest batch journeys.
func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		wl       = fs.String("workload", "speech-3s", "registered workload (see -list)")
		ld       = fs.String("loader", "minato", "registered loader (see -list)")
		testbed  = fs.String("testbed", "A", "A (4×A100) or B (8×V100)")
		gpus     = fs.Int("gpus", 0, "override GPU count (per node with -nodes)")
		epochs   = fs.Int("epochs", 0, "override epoch budget")
		iters    = fs.Int("iterations", 0, "override iteration budget")
		seed     = fs.Uint64("seed", 1, "random seed")
		traceCSV = fs.String("trace-csv", "", "write per-sample trace CSV to this directory")
		list     = fs.Bool("list", false, "list registered workloads and loaders, then exit")
		nodes    = fs.Int("nodes", 0, "run multi-node with this many nodes (0 = single machine)")
		chaosN   = fs.String("chaos", "", "registered chaos scenario to replay")
		traceOut = fs.String("trace", "", "write Chrome trace-event JSON (Perfetto-viewable) to this file")
		prom     = fs.String("prom", "", "write Prometheus text-format metrics snapshot to this file")
		top      = fs.Int("top", 10, "journey-table rows of a traced run (slowest batches first; 0 disables)")
	)
	set := parse(fs, args)

	if *list {
		fmt.Println("workloads:", strings.Join(minato.Workloads(), " "))
		fmt.Println("loaders:  ", strings.Join(minato.Loaders(), " "))
		return
	}

	w, ok := minato.WorkloadByName(*wl, *seed)
	if !ok {
		usage(fmt.Sprintf("unknown workload %q (registered: %s)", *wl, strings.Join(minato.Workloads(), ", ")))
	}
	if !slices.Contains(minato.Loaders(), *ld) {
		usage(fmt.Sprintf("unknown loader %q (registered: %s)", *ld, strings.Join(minato.Loaders(), ", ")))
	}
	var cfg minato.HardwareConfig
	switch *testbed {
	case "A", "a":
		cfg = minato.ConfigA()
	case "B", "b":
		cfg = minato.ConfigB()
	default:
		usage(fmt.Sprintf("unknown testbed %q: want A (4×A100) or B (8×V100)", *testbed))
	}
	traced := *traceOut != "" || *nodes > 0 || *chaosN != ""
	switch {
	case *nodes > 0 && *traceCSV != "":
		usage("-trace-csv records a single-machine run's samples; it cannot be combined with -nodes")
	case set["top"] && !traced:
		usage("-top lists a traced run's batch journeys: give -trace, -nodes or -chaos")
	}

	opts := []minato.Option{
		minato.WithLoader(*ld),
		minato.WithHardware(cfg),
	}
	var sink *minato.TraceSink
	if traced {
		sink = minato.NewTraceSink()
		opts = append(opts, minato.WithTracing(sink))
	}
	if *gpus > 0 {
		opts = append(opts, minato.WithGPUs(*gpus))
		cfg = cfg.WithGPUs(*gpus)
	}
	if *epochs > 0 {
		opts = append(opts, minato.WithEpochs(*epochs))
	}
	if *iters > 0 {
		opts = append(opts, minato.WithIterations(*iters))
	}
	if *chaosN != "" {
		opts = append(opts, minato.WithChaosScenario(*chaosN))
	}
	if *nodes > 0 {
		opts = append(opts, minato.WithNodes(*nodes))
	} else {
		opts = append(opts, minato.WithParams(minato.Params{Collect: true, TraceSamples: *traceCSV != ""}))
	}

	start := time.Now()
	rep, err := minato.Train(w, opts...)
	if err != nil {
		fail(err)
	}
	if *traceCSV != "" {
		name := fmt.Sprintf("trace_%s_%s", rep.Workload, rep.Loader)
		if err := rep.WriteTraceCSV(*traceCSV, name); err != nil {
			fail(fmt.Errorf("trace-csv: %w", err))
		}
		fmt.Printf("trace written:   %s/%s.csv (%d samples)\n", *traceCSV, name, len(rep.SampleTraces))
	}
	if *prom != "" {
		writeFile(*prom, rep.WritePrometheus)
		fmt.Printf("metrics: %s\n", *prom)
	}
	if *traceOut != "" {
		writeFile(*traceOut, func(f io.Writer) error { return sink.WriteChrome(f) })
		fmt.Printf("trace:   %s (%d spans)\n", *traceOut, sink.Len())
	}
	printReport(rep, w.Model, cfg)
	fmt.Printf("wall time:       %s\n", time.Since(start).Round(time.Millisecond))
	if traced {
		printJourneys(sink, rep, *top)
	}
}

// printReport prints a training run's report: what ran where, and how it
// went. A multi-node run adds its synchronized steps and fabric traffic, a
// single machine its throughput, CPU and disk.
func printReport(rep *minato.Report, model string, cfg minato.HardwareConfig) {
	testbed := fmt.Sprintf("%s, %d×%s", cfg.Name, cfg.GPUCount, cfg.GPUArch.Name)
	if rep.Nodes > 0 {
		testbed = fmt.Sprintf("%d nodes × %s", rep.Nodes, testbed)
	}
	fmt.Printf("workload:        %s (%s)\n", rep.Workload, model)
	fmt.Printf("loader:          %s\n", rep.Loader)
	fmt.Printf("testbed:         %s\n", testbed)
	fmt.Printf("training time:   %.1f s (simulated)\n", rep.TrainTime.Seconds())
	fmt.Printf("batches/samples: %d / %d\n", rep.Batches, rep.Samples)
	fmt.Printf("GPU utilization: %.1f%%\n", rep.AvgGPUUtil)
	if rep.Nodes > 0 {
		fmt.Printf("steps:           %d (%.0f ms/step)\n", rep.Steps, rep.StepTime().Seconds()*1000)
		fmt.Printf("network:         %.1f GB\n", float64(rep.NetworkBytes)/1e9)
		return
	}
	fmt.Printf("throughput:      %.1f MB/s\n", rep.Throughput())
	fmt.Printf("CPU utilization: %.1f%%\n", rep.AvgCPUUtil)
	fmt.Printf("disk read:       %.1f GB\n", float64(rep.DiskBytes)/1e9)
}

// printJourneys prints what a traced run's spans say beside the report's
// stall totals: the batch-latency attribution and the top slowest batch
// journeys.
func printJourneys(sink *minato.TraceSink, rep *minato.Report, top int) {
	fmt.Printf("stalls:  data %.1fs, barrier %.1fs, network %.1fs\n",
		rep.DataStall.Seconds(), rep.BarrierStall.Seconds(), rep.NetworkStall.Seconds())
	paths := sink.CriticalPath()
	attr := sink.Attribute(nil)
	fmt.Printf("batches: %d traced; latency %.1fs = gpu %.1fs + data %.1fs + copy %.1fs + barrier %.1fs + net %.1fs + down %.1fs + other %.1fs\n",
		attr.Batches, attr.Latency.Seconds(), attr.GPUStep.Seconds(), attr.DataWait.Seconds(),
		attr.Copy.Seconds(), attr.BarrierWait.Seconds(), attr.NetworkWait.Seconds(),
		attr.Downtime.Seconds(), attr.Other.Seconds())
	if top <= 0 || len(paths) == 0 {
		return
	}
	sort.SliceStable(paths, func(i, j int) bool { return paths[i].Latency() > paths[j].Latency() })
	paths = paths[:min(top, len(paths))]
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond)) }
	fmt.Printf("\nslowest %d batch journeys:\n", len(paths))
	fmt.Printf("  %-6s %-4s %-4s %-6s %10s %10s %10s %10s %10s %10s\n",
		"seq", "node", "gpu", "tenant", "latency", "data", "copy", "gpu-step", "barrier", "net")
	for _, p := range paths {
		fmt.Printf("  %-6d %-4d %-4d %-6d %10s %10s %10s %10s %10s %10s\n",
			p.Seq, p.Node, p.GPU, p.Tenant,
			ms(p.Latency()), ms(p.DataWait), ms(p.Copy), ms(p.GPUStep), ms(p.BarrierWait), ms(p.NetworkWait))
	}
}

// exp regenerates the paper's tables and figures by experiment ID.
func exp(args []string) {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	var (
		out   = fs.String("out", "", "directory for CSV output (optional)")
		seed  = fs.Uint64("seed", 1, "random seed")
		quick = fs.Bool("quick", false, "shrink run lengths (CI mode)")
		list  = fs.Bool("list", false, "list experiment IDs and registered names, then exit")
	)
	_ = fs.Parse(args)
	switch {
	case *list && fs.NArg() > 0:
		usage("minato exp: -list runs nothing; drop " + strings.Join(fs.Args(), " "))
	case *list:
		fmt.Println("available experiments:")
		for _, r := range experiments.All() {
			fmt.Printf("  %-12s %s\n", r.ID, r.Title)
		}
		fmt.Println("\nregistered workloads:", strings.Join(minato.Workloads(), " "))
		fmt.Println("registered loaders:  ", strings.Join(minato.Loaders(), " "))
		return
	case fs.NArg() == 0:
		usage("usage: minato exp [-quick] [-seed N] [-out DIR] <id>[,<id>...]|all, or minato exp -list")
	case fs.NArg() > 1:
		usage(fmt.Sprintf("minato exp: unexpected argument %q (flags go before the experiment list)", fs.Arg(1)))
	}

	var runs []experiments.Runner
	if fs.Arg(0) == "all" {
		runs = experiments.All()
	} else {
		for _, id := range strings.Split(fs.Arg(0), ",") {
			r, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				usage(fmt.Sprintf("unknown experiment %q (see minato exp -list)", id))
			}
			runs = append(runs, r)
		}
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick}
	failed := false
	for _, r := range runs {
		start := time.Now()
		res, err := r.Run(opts)
		if err == nil && *out != "" {
			err = res.Write(*out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			failed = true
			continue
		}
		fmt.Print(res.Render())
		fmt.Printf("(%s completed in %s wall time)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// profile measures per-sample preprocessing cost for a workload — the
// offline analysis behind the paper's Fig 2 and Table 2 and the "educated
// guess" initializing MinatoLoader's timeout (§4.2).
func profile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	var (
		wl     = fs.String("workload", "img-seg", "registered workload name")
		n      = fs.Int("n", 1000, "samples to profile")
		seed   = fs.Uint64("seed", 1, "random seed")
		perTr  = fs.Bool("per-transform", false, "break cost down by transform")
		cutoff = fs.Float64("percentile", 0.75, "report this percentile as the suggested timeout")
	)
	parse(fs, args)

	w, ok := minato.WorkloadByName(*wl, *seed)
	if !ok {
		usage(fmt.Sprintf("unknown workload %q (registered: %s)", *wl, strings.Join(minato.Workloads(), ", ")))
	}

	count := min(*n, w.Dataset.Len())
	totals := make([]float64, 0, count)
	perTransform := map[string]*metrics.Welford{}
	order := []string{}
	for i := 0; i < count; i++ {
		s := w.Dataset.Sample(0, i)
		c := s.Clone()
		var total time.Duration
		for _, tr := range w.Pipeline.Transforms() {
			cost := tr.Cost(c)
			total += cost
			c.Bytes = int64(float64(c.Bytes) * tr.SizeFactor(c))
			if *perTr {
				wf, ok := perTransform[tr.Name()]
				if !ok {
					wf = &metrics.Welford{}
					perTransform[tr.Name()] = wf
					order = append(order, tr.Name())
				}
				wf.Add(float64(cost) / float64(time.Millisecond))
			}
		}
		totals = append(totals, float64(total)/float64(time.Millisecond))
	}

	sum := metrics.Summarize(totals)
	fmt.Printf("workload: %s (%d samples)\n", w.Name, count)
	fmt.Printf("total preprocessing time (ms): %s\n", sum)
	var p metrics.Percentiles
	for _, v := range totals {
		p.Add(v)
	}
	fmt.Printf("suggested timeout (P%.0f): %.0f ms\n", *cutoff*100, p.Quantile(*cutoff))

	if *perTr {
		fmt.Println("\nper-transform cost (ms):")
		for _, name := range order {
			wf := perTransform[name]
			fmt.Printf("  %-22s avg=%8.2f  min=%8.2f  max=%8.2f\n",
				name, wf.Mean(), wf.Min(), wf.Max())
		}
	}
}
