package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickSmoke runs every workload's phases in-process at their smallest
// (1 op per phase, no profile, probes once) and checks that verification
// passes and that the runner emits exactly the metrics the dictionary — and
// through TestBenchmarkJSONConsistent, BENCHMARK.json — names.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			chdirRepoRoot(t) // the runner writes under bench/out
			res, err := runChild(childConfig{Workload: w.name, Seed: 1, Layers: true, Quick: true}, time.Now(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if attempted, failed := res.attemptedFailed(); failed != 0 || attempted != 3 {
				t.Fatalf("attempted %d ops, failed %d: %v", attempted, failed, res.Failures)
			}
			if w.exact && !res.FingerprintPinned {
				t.Errorf("seed 1 of an exact workload was not compared with its pin")
			}
			for _, m := range endToEnd {
				v, emitted := res.EndToEnd[m.Name]
				switch {
				case m.Name == "setup_s": // the parent's: it times several processes
				case m.definedOn(w.name) && (!emitted || v <= 0):
					t.Errorf("end-to-end metric %s = %v, emitted %v; want a positive value", m.Name, v, emitted)
				case !m.definedOn(w.name) && emitted:
					t.Errorf("end-to-end metric %s emitted on a workload it is not defined on", m.Name)
				}
			}
			for _, m := range perLayer {
				if _, ok := res.PerLayer[m.Name]; !ok {
					t.Errorf("per-layer metric %s not emitted", m.Name)
				}
				if m.Source == srcProbe && res.PerLayer[m.Name] <= 0 {
					t.Errorf("probe %s = %v, want a positive cost", m.Name, res.PerLayer[m.Name])
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("runner emitted %d per-layer metrics, the dictionary names %d", len(res.PerLayer), len(perLayer))
			}
		})
	}
}

func chdirRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

// TestBenchmarkJSONConsistent keeps BENCHMARK.json and the dictionary in
// spec.go naming the same workloads and metrics, within the contract's
// limits.
func TestBenchmarkJSONConsistent(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}

	wls := workloads()
	if len(b.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json names %d workloads, the runner has %d", len(b.Workloads), len(wls))
	}
	for i, w := range b.Workloads {
		checkName("workload", w.Name)
		if w.Name != wls[i].name || w.Why != wls[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the runner %q (%q)", i, w.Name, w.Why, wls[i].name, wls[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the dictionary %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		checkName("end-to-end metric", m.Name)
		d := endToEnd[i]
		if m.Bound == nil {
			t.Fatalf("end-to-end metric %s has no bound", m.Name)
		}
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s %s %s %v, the dictionary %s %s %s %v",
				i, m.Name, m.Unit, m.Better, *m.Bound, d.Name, d.Unit, d.Better, d.Bound)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end metric %s: better = %q", m.Name, m.Better)
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, *o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error(`no end-to-end metric "setup_s" with unit "s" and better "lower"`)
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the dictionary %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName("per-layer metric", m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s %s %s, the dictionary %s %s %s",
				i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q", m.Name, m.Unit)
		}
	}

	// Every metric is defined on workloads that exist, and every [P] layer
	// has its share row.
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		for _, on := range m.On {
			if workloadByName(on) == nil {
				t.Errorf("metric %s is defined on unknown workload %q", m.Name, on)
			}
		}
	}
	for _, l := range cpuShareLayers {
		if !seen[l+".cpu_share_pct"] {
			t.Errorf("layer %s can own CPU samples but has no cpu_share_pct metric", l)
		}
	}
	for _, p := range b.Paths {
		if p != "bench" {
			t.Errorf("paths holds %q, want only the benchmark's own directory", p)
		}
	}
}

// cannedTraces is `go tool pprof -traces -sample_index=samples` text: one
// sample per owner rule.
const cannedTraces = `File: bench
Build ID: 825565c930cdda2187176cf862e28edfd03f0a1e
Type: samples
Time: 2026-09-27 21:43:37 UTC
Duration: 5.12s, Total samples = 20
-----------+-------------------------------------------------------
         2   internal/sync.(*Mutex).Unlock (inline)
             sync.(*Mutex).Unlock (inline)
             context.(*cancelCtx).Err
             github.com/minatoloader/minato/internal/device.(*Device).Run
             github.com/minatoloader/minato/internal/storage.(*Disk).Read
             github.com/minatoloader/minato/internal/simtime.(*Virtual).spawn.func1
-----------+-------------------------------------------------------
         3   runtime.futex
             runtime.futexsleep
             runtime.findRunnable
             runtime.schedule
             runtime.mcall
-----------+-------------------------------------------------------
         1   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
         4   runtime.selectgo
             github.com/minatoloader/minato/internal/simtime.(*Selector).waitVirtual
             github.com/minatoloader/minato/internal/simtime.(*Selector).Wait
             github.com/minatoloader/minato/internal/queue.(*Queue[go.shape.*uint8]).Get
             github.com/minatoloader/minato/internal/core.(*Loader).Next
-----------+-------------------------------------------------------
         2   container/heap.down
             container/heap.Pop
             github.com/minatoloader/minato/internal/queue.(*Queue[go.shape.struct { github.com/minatoloader/minato/internal/core.s *uint8 }]).Put
             github.com/minatoloader/minato/internal/core.(*Loader).putFast
-----------+-------------------------------------------------------
         1   github.com/minatoloader/minato/internal/loader/pytorch.(*Loader).prepare
             github.com/minatoloader/minato/internal/loader/pytorch.(*Loader).Start.func2
             github.com/minatoloader/minato/internal/simtime.(*WaitGroup).Go.func1
-----------+-------------------------------------------------------
         1   github.com/minatoloader/minato/internal/loader.LoadSample
             github.com/minatoloader/minato/internal/loader/pytorch.(*Loader).prepare
-----------+-------------------------------------------------------
         2   runtime.mallocgc
             runtime.newobject
             github.com/minatoloader/minato.(*Session).Close
             main.consumeTenant
-----------+-------------------------------------------------------
         1   runtime.memmove
             main.(*seenOnce).add
             github.com/minatoloader/minato.(*Session).Batches.func1.1
-----------+-------------------------------------------------------
         2   github.com/minatoloader/minato/internal/dataset.(*Synthetic).FillSample
             github.com/minatoloader/minato/internal/loader.LoadSample
-----------+-------------------------------------------------------
         1   github.com/minatoloader/minato/internal/trace.(*Recorder).Record
             github.com/minatoloader/minato/internal/core.(*Loader).traceSample (inline)
`

func TestAttributeTraces(t *testing.T) {
	got, err := attributeTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != 20 {
		t.Fatalf("total samples = %d, want 20", got.Samples)
	}
	want := map[string]float64{
		"device":   10, // stdlib leaf, charged to its first repo caller — not to storage or simtime further up
		ownerSched: 15, // no repo frame, no GC frame
		ownerGC:    5,  // no repo frame, a GC frame
		"simtime":  20, // a repo frame below queue and core
		"queue":    10, // container/heap counts for its caller; the generic's bracketed core path does not
		"loaders":  5,  // internal/loader/pytorch is a baseline loader
		"loader":   5,  // internal/loader itself
		"minato":   10, // the root facade, above the benchmark's own frames
		ownerOther: 15, // the benchmark's own frames (5) and a repo package without a row (10)
		"trace":    5,
	}
	var sum float64
	for owner, share := range got.Share {
		sum += share
		if share != want[owner] {
			t.Errorf("owner %s: share %v%%, want %v%%", owner, share, want[owner])
		}
	}
	for owner := range want {
		if _, ok := got.Share[owner]; !ok {
			t.Errorf("owner %s: no samples charged, want %v%%", owner, want[owner])
		}
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
}

func TestAttributeTracesRejectsGarbage(t *testing.T) {
	_, err := attributeTraces(strings.NewReader("-----------+----\n      10ms   runtime.futex\n"))
	if err == nil {
		t.Error("a sample weight that is not a count must be an error, not a silent zero")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "cpu_us_per_sample", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "wall_samples_per_s", Better: "higher", Bound: 0.10}
	tight := func(med float64) summary { // spread 2%
		return summary{Median: med, Q1: med * 0.99, Q3: med * 1.01, Min: med * 0.98, Max: med * 1.02, N: 30}
	}
	wide := func(med float64) summary { // spread 30%
		return summary{Median: med, Q1: med * 0.85, Q3: med * 1.15, Min: med * 0.7, Max: med * 1.3, N: 30}
	}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b summary
		want string
	}{
		{"lower: 5% worse, tight runs", lower, tight(100), tight(105), verdictOK},
		{"lower: 15% worse", lower, tight(100), tight(115), verdictRegressed},
		{"lower: 15% better", lower, tight(100), tight(85), verdictOK},
		{"higher: 15% lower is worse", higher, tight(100), tight(85), verdictRegressed},
		{"higher: 15% higher is better", higher, tight(100), tight(115), verdictOK},
		{"same median, spread wider than the bound", lower, wide(100), wide(100), verdictUnresolved},
		{"wide spread but every run of B beats every run of A", lower, wide(100), tight(50), verdictOK},
		{"wide spread and past the bound: regressed wins", lower, wide(100), wide(120), verdictRegressed},
	} {
		got := judge(tc.m, tc.a, tc.b, tc.a.Median, tc.b.Median)
		if got.Verdict != tc.want {
			t.Errorf("%s: verdict %s (worse %.3f, spread %.3f), want %s", tc.name, got.Verdict, got.Worse, got.Spread, tc.want)
		}
	}
}

// TestCompareFilesRoundTrip writes two result files the way a full run does
// and has compare read them back: one regression, one changed fingerprint.
func TestCompareFilesRoundTrip(t *testing.T) {
	mk := func(cpu float64, fingerprint string) *runFile {
		per := summary{Median: cpu, Q1: cpu * 0.99, Q3: cpu * 1.01, Min: cpu * 0.98, Max: cpu * 1.02, N: 20}
		return &runFile{Seed: 1, Workloads: []*workloadResult{{childResult: childResult{
			Workload: wlFleet, Fingerprint: fingerprint,
			Phases:   map[string]*phaseCount{phaseMeasured: {Attempted: 20}},
			EndToEnd: map[string]float64{"cpu_us_per_sample": cpu},
			PerOp:    map[string]summary{"cpu_us_per_sample": per},
		}}}}
	}
	dir := t.TempDir()
	pathA, pathB := dir+"/a.json", dir+"/b.json"
	if err := writeRunFile(pathA, mk(10, "train=1")); err != nil {
		t.Fatal(err)
	}
	if err := writeRunFile(pathB, mk(14, "train=2")); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := compareFiles(pathA, pathB, &out)
	if !errors.Is(err, errRegressed) {
		t.Fatalf("compare of a 40%% CPU regression returned %v, want errRegressed\n%s", err, out.String())
	}
	for _, want := range []string{"cpu_us_per_sample", verdictRegressed, "exact fingerprint CHANGED", "1.4000 (10)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := summarize(v)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
}
