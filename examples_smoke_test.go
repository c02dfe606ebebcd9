package minato

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRunEndToEnd runs every example — the public API's living
// documentation — to completion on the virtual runtime and looks for the
// lines that show it did what it demonstrates: quickstart delivers its batch
// budget; multitenant (16 sessions on one Cluster), disaggregated (two
// servers feeding four remote clients, one hedged) and multinode (a 4-node
// straggler cluster) pass their own determinism checks; multinode writes its
// Chrome trace to the file -out names.
func TestExamplesRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	for _, tc := range []struct {
		example string
		// traceFlag, when set, names the flag the example writes a trace
		// file to; the file must come out non-empty.
		traceFlag string
		want      []string
	}{
		{example: "quickstart", want: []string{"all 32 batches delivered"}},
		{example: "multitenant", want: []string{"bit-identical (deterministic)"}},
		{example: "disaggregated", want: []string{"bit-identical (deterministic)", "unauthorized dial rejected"}},
		{example: "multinode", traceFlag: "-out",
			want: []string{"bit-identical (deterministic)", "speedup under a straggler", "bit-identical across runs"}},
		{example: "curriculum", want: []string{"order-preserving:"}},
		{example: "imagesegmentation", want: []string{"MinatoLoader speedup over PyTorch DataLoader"}},
		{example: "speechpipeline", want: []string{"peak-workers"}},
	} {
		t.Run(tc.example, func(t *testing.T) {
			args := []string{"run", "./examples/" + tc.example}
			traceOut := filepath.Join(t.TempDir(), "trace.json")
			if tc.traceFlag != "" {
				args = append(args, tc.traceFlag, traceOut)
			}
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
			}
			for _, line := range tc.want {
				if !strings.Contains(string(out), line) {
					t.Errorf("output lacks %q:\n%s", line, out)
				}
			}
			if tc.traceFlag == "" {
				return
			}
			if fi, err := os.Stat(traceOut); err != nil || fi.Size() == 0 {
				t.Errorf("trace export missing or empty: %v", err)
			}
		})
	}
}

// TestMinatoCommand builds cmd/minato once and drives its surface. A
// request it would not carry out as asked — a flag it would drop, a testbed
// it does not know, a missing or unknown subcommand — is a usage error:
// exit 2, the reason on stderr, and nothing run. One quick call per
// subcommand succeeds with its expected first line.
func TestMinatoCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-build smoke test in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "minato")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/minato").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/minato: %v\n%s", err, out)
	}
	call := func(args ...string) (stdout, stderr string, err error) {
		var o, e strings.Builder
		cmd := exec.Command(bin, args...)
		cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &o, &e
		err = cmd.Run()
		return o.String(), e.String(), err
	}

	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{nil, "usage: minato run|exp|profile"},
		{[]string{"bench"}, `unknown command "bench"`},
		{[]string{"run", "-nodes", "2", "-trace-csv", "csv"}, "-trace-csv records a single-machine run"},
		{[]string{"run", "-testbed", "C"}, `unknown testbed "C"`},
		{[]string{"run", "-top", "5"}, "-top lists a traced run's batch journeys"},
		{[]string{"run", "-workload", "nosuch"}, "registered: img-seg"},
		{[]string{"run", "-loader", "nosuch"}, "registered: dali, minato"},
		{[]string{"run", "extra"}, `unexpected argument "extra"`},
		{[]string{"exp"}, "usage: minato exp"},
		{[]string{"exp", "-list", "fig7"}, "-list runs nothing"},
		{[]string{"exp", "fig7", "-quick"}, "flags go before the experiment list"},
		{[]string{"exp", "nosuch"}, `unknown experiment "nosuch"`},
		// exp takes no session, tier or trace flag: the flag parser
		// refuses them before anything runs.
		{[]string{"exp", "-loader", "minato", "fig7"}, "flag provided but not defined: -loader"},
		{[]string{"exp", "-serve", "fig9"}, "flag provided but not defined: -serve"},
		{[]string{"exp", "-trace", "out.json", "fig7"}, "flag provided but not defined: -trace"},
		{[]string{"profile", "-workload", "nosuch"}, `unknown workload "nosuch"`},
	} {
		stdout, stderr, err := call(tc.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit status 2\n%s", tc.args, err, stderr)
		}
		if !strings.Contains(stderr, tc.msg) {
			t.Errorf("%v: stderr %q does not say %q", tc.args, stderr, tc.msg)
		}
		if stdout != "" {
			t.Errorf("%v: ran something before rejecting:\n%s", tc.args, stdout)
		}
	}
	traceOut, promOut := filepath.Join(dir, "trace.json"), filepath.Join(dir, "m.prom")
	for _, tc := range []struct {
		args  []string
		first string
	}{
		{[]string{"run", "-iterations", "20"}, "workload:        speech-3s (RNN-T)"},
		{[]string{"run", "-nodes", "2", "-gpus", "1", "-iterations", "5", "-trace", traceOut}, "trace:   " + traceOut + " ("},
		{[]string{"run", "-nodes", "2", "-iterations", "5", "-prom", promOut}, "metrics: " + promOut},
		{[]string{"exp", "-quick", "table1"}, "### table1"},
		{[]string{"exp", "-list"}, "available experiments:"},
		{[]string{"profile", "-n", "50"}, "workload: img-seg (50 samples)"},
	} {
		stdout, stderr, err := call(tc.args...)
		if err != nil {
			t.Errorf("%v: %v\n%s", tc.args, err, stderr)
			continue
		}
		if first, _, _ := strings.Cut(stdout, "\n"); !strings.HasPrefix(first, tc.first) {
			t.Errorf("%v: first line %q, want prefix %q", tc.args, first, tc.first)
		}
	}
	if fi, err := os.Stat(traceOut); err != nil || fi.Size() == 0 {
		t.Errorf("run -trace wrote no trace: %v", err)
	}
	// A multi-node run's report carries the step-interval histogram.
	if prom, err := os.ReadFile(promOut); err != nil || !strings.Contains(string(prom), "step_interval_seconds_bucket{") {
		t.Errorf("run -nodes 2 -prom wrote no step-interval histogram (err %v):\n%s", err, prom)
	}
}
