// Command bench is the repository's benchmark: five closed-loop workloads,
// each in its own child process, measured from outside the program — by
// timing calls into the public facade, reading the reports and stats those
// calls return, attaching the public WithTracing sink, and CPU-profiling the
// benchmark's own process. README.md is the metric and workload dictionary.
//
//	bash bench/run.sh                      every workload, every metric, bench/out/result.json
//	bash bench/run.sh -quick               smoke: 1 op per phase, no profile
//	bash bench/run.sh -probes              the layer probes alone
//	bash bench/run.sh compare A.json B.json
//	bash bench/run.sh selfcheck            two full runs of this build, compared
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                       one run under the driver's contract
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupProcesses is how many child processes a run starts to time set-up;
// setup_s is their median. One of them goes on to measure.
const setupProcesses = 5

func main() {
	t0 := time.Now()
	// The simulation's tasks are goroutines that mostly hand off to each
	// other; past 4 Ps the handoffs cost more than the parallelism buys.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := run(os.Args[1:], t0); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, t0 time.Time) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			if len(args) != 3 {
				return errors.New("usage: compare A.json B.json")
			}
			return compareFiles(args[1], args[2], os.Stdout)
		case "selfcheck":
			return selfcheck(args[1:])
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload under the driver's contract and print one JSON line")
		seed         = fs.Uint64("seed", 1, "feeds every dataset, shuffle and per-tenant/per-client seed")
		seconds      = fs.Float64("seconds", 10, "contract runs: how long the measured phase lasts")
		traceMode    = fs.Int("trace", 0, "contract runs: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		quick        = fs.Bool("quick", false, "smoke run: 1 op per phase, no profile")
		probesOnly   = fs.Bool("probes", false, "run the layer probes alone")
		out          = fs.String("out", filepath.Join(outDir, "result.json"), "full runs: where the result file goes")

		isChild   = fs.Bool("child", false, "internal: run one workload's phases in this process")
		ops       = fs.Int("ops", 0, "internal: fixed measured-phase op count")
		setupOnly = fs.Bool("setup-only", false, "internal: exit after warm-up")
		layers    = fs.Bool("layers", false, "internal: add the profiled and traced phases and the probes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch {
	case *isChild:
		res, err := runChild(childConfig{Workload: *workloadName, Seed: *seed, Ops: *ops, Seconds: *seconds,
			SetupOnly: *setupOnly, Layers: *layers, Quick: *quick}, t0, os.Stdout)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	case *probesOnly:
		printProbes(runProbes(probeRepeats))
		return nil
	case *workloadName != "":
		return contractRun(*workloadName, *seed, *seconds, *traceMode)
	}
	file, err := fullRun(*seed, *quick)
	if err != nil {
		return err
	}
	printRun(os.Stdout, file)
	if err := writeRunFile(*out, file); err != nil {
		return err
	}
	fmt.Printf("\nresult file: %s\n", *out)
	if _, failed := file.attemptedFailed(); failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// spawn starts one child process for the workload and returns its result
// and the wall seconds from process start to its READY line.
func spawn(cfg childConfig) (*childResult, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", "-workload", cfg.Workload, "-seed", strconv.FormatUint(cfg.Seed, 10),
		"-ops", strconv.Itoa(cfg.Ops), "-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64)}
	for name, on := range map[string]bool{"-setup-only": cfg.SetupOnly, "-layers": cfg.Layers, "-quick": cfg.Quick} {
		if on {
			args = append(args, name)
		}
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	var (
		setup float64
		last  string
	)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		last = sc.Text()
		if setup == 0 && last == readyLine {
			setup = time.Since(start).Seconds()
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", cfg.Workload, err)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	var res childResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, 0, fmt.Errorf("%s child: last line is not a result: %w", cfg.Workload, err)
	}
	if setup == 0 {
		return nil, 0, fmt.Errorf("%s child never reported READY", cfg.Workload)
	}
	return &res, setup, nil
}

// workloadResult is one workload's run: the measuring child's result plus
// set-up timed over several processes.
type workloadResult struct {
	childResult
	// Setup summarizes process start → first measured op over
	// setupProcesses child processes; its median is setup_s.
	Setup summary `json:"setup"`
}

// runWorkload starts setupProcs-1 set-up-only children and then the
// measuring child, sequentially.
func runWorkload(cfg childConfig, setupProcs int) (*workloadResult, error) {
	var setups []float64
	probe := cfg
	probe.SetupOnly, probe.Layers = true, false
	for i := 1; i < setupProcs; i++ {
		_, s, err := spawn(probe)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	res, s, err := spawn(cfg)
	if err != nil {
		return nil, err
	}
	setups = append(setups, s)
	wr := &workloadResult{childResult: *res, Setup: summarize(setups)}
	if len(res.EndToEnd) > 0 { // no measured op succeeded: no metrics at all, only the failure counts
		res.EndToEnd["setup_s"] = wr.Setup.Median
		res.PerOp["setup_s"] = wr.Setup
	}
	return wr, nil
}

// contractRun is one run under the driver's contract: the last stdout line
// is {"correct","attempted","failed","metrics"}, with every end-to-end
// metric (--trace 0) or every per-layer metric (--trace 1).
func contractRun(name string, seed uint64, seconds float64, traceMode int) error {
	if workloadByName(name) == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if traceMode != 0 && traceMode != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", traceMode)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds %v: want a positive length", seconds)
	}
	cfg := childConfig{Workload: name, Seed: seed, Seconds: seconds, Layers: traceMode == 1}
	procs := setupProcesses
	if cfg.Layers {
		procs = 1 // setup_s is an end-to-end metric; a per-layer run does not report it
	}
	wr, err := runWorkload(cfg, procs)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if cfg.Layers {
		for _, m := range perLayer {
			metrics[m.Name] = value{wr.PerLayer[m.Name], m.Unit}
		}
	} else {
		if len(wr.EndToEnd) == 0 {
			return fmt.Errorf("no measured op succeeded: %s", strings.Join(wr.Failures, "; "))
		}
		for _, m := range endToEnd {
			v := notApplicable
			if m.definedOn(name) {
				v = wr.EndToEnd[m.Name]
			}
			metrics[m.Name] = value{v, m.Unit}
		}
	}
	attempted, failed := wr.attemptedFailed()
	for _, f := range wr.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed:", f)
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
}

// runFile is what a full run writes and what compare reads.
type runFile struct {
	Seed       uint64            `json:"seed"`
	Quick      bool              `json:"quick,omitempty"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Started    string            `json:"started"`
	WallS      float64           `json:"wall_s"`
	Workloads  []*workloadResult `json:"workloads"`
}

func (f *runFile) attemptedFailed() (attempted, failed int) {
	for _, w := range f.Workloads {
		a, x := w.attemptedFailed()
		attempted, failed = attempted+a, failed+x
	}
	return attempted, failed
}

func (f *runFile) workload(name string) *workloadResult {
	for _, w := range f.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

// fullRun runs every workload — all four phases and the probes — one child
// process at a time, with the op counts pinned in workloads().
func fullRun(seed uint64, quick bool) (*runFile, error) {
	start := time.Now()
	file := &runFile{Seed: seed, Quick: quick, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Started: start.UTC().Format(time.RFC3339)}
	for _, w := range workloads() {
		wstart := time.Now()
		procs := setupProcesses
		if quick {
			procs = 1
		}
		wr, err := runWorkload(childConfig{Workload: w.name, Seed: seed, Ops: w.ops, Layers: true, Quick: quick}, procs)
		if err != nil {
			return nil, err
		}
		file.Workloads = append(file.Workloads, wr)
		fmt.Fprintf(os.Stderr, "bench: %s done in %.1fs\n", w.name, time.Since(wstart).Seconds())
	}
	file.WallS = time.Since(start).Seconds()
	return file, nil
}

func writeRunFile(path string, f *runFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printRun prints every metric by name with its unit, one block per
// workload.
func printRun(w *os.File, f *runFile) {
	fmt.Fprintf(w, "minato benchmark: seed %d, GOMAXPROCS %d of %d CPUs, %s, %.0fs\n",
		f.Seed, f.GOMAXPROCS, f.NumCPU, f.GoVersion, f.WallS)
	fmt.Fprintln(w, "sim_ metrics are on the virtual clock, everything else on the host clock.")
	fmt.Fprintln(w, "The simulation model is unvalidated against the paper: no error figure beside any speed-up.")
	for _, wr := range f.Workloads {
		fmt.Fprintf(w, "\n== %s  (%d samples/op", wr.Workload, wr.SamplesPerOp)
		if wl := workloadByName(wr.Workload); wl != nil && wl.exact {
			pin := "not compared with a pin (non-default seed or none pinned)"
			if wr.FingerprintPinned {
				pin = "compared with the seed-1 pin"
			}
			fmt.Fprintf(w, "; exact, %s", pin)
		}
		fmt.Fprintln(w, ")")
		for _, phase := range []string{phaseWarmup, phaseMeasured, phaseProfiled, phaseTraced} {
			if p := wr.Phases[phase]; p != nil {
				fmt.Fprintf(w, "   ops %-9s attempted %3d  failed %d\n", phase, p.Attempted, p.Failed)
			}
		}
		for _, msg := range wr.Failures {
			fmt.Fprintf(w, "   FAILED %s\n", msg)
		}
		fmt.Fprintln(w, "   end to end:")
		for _, m := range endToEnd {
			if !m.definedOn(wr.Workload) {
				fmt.Fprintf(w, "     %-40s %14s %-5s\n", m.Name, "n/a", m.Unit)
				continue
			}
			s := wr.PerOp[m.Name]
			note := ""
			if strings.HasPrefix(m.Name, "sim_speedup_vs_") {
				note = "  (model unvalidated against the paper; no error figure)"
			}
			fmt.Fprintf(w, "     %-40s %14.6g %-5s  q1 %.6g  q3 %.6g  n %d%s\n",
				m.Name, wr.EndToEnd[m.Name], m.Unit, s.Q1, s.Q3, s.N, note)
		}
		if wr.PerLayer == nil {
			continue
		}
		fmt.Fprintln(w, "   per layer:")
		var shareSum float64
		for _, m := range perLayer {
			v := wr.PerLayer[m.Name]
			fmt.Fprintf(w, "     %-40s %14.6g %-5s [%s]\n", m.Name, v, m.Unit, m.Source)
			if m.Source == srcProfile && m.Name != "trace.cpu_share_pct" {
				shareSum += v
			}
		}
		fmt.Fprintf(w, "   profiled-phase CPU shares sum to %.2f%%; %.2f%% charged to a named layer or the Go runtime\n",
			shareSum, wr.ProfileCharged)
	}
}

func printProbes(vals map[string]float64) {
	for _, m := range perLayer {
		if m.Source == srcProbe {
			fmt.Printf("%-40s %12.4g %s\n", m.Name, vals[m.Name], m.Unit)
		}
	}
}
