package minato

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickstartRunsEndToEnd asserts that the quickstart example — the v2
// API's living documentation — builds and runs to completion on the
// virtual runtime.
func TestQuickstartRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	out, err := exec.Command("go", "run", "./examples/quickstart").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/quickstart: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "all 32 batches delivered") {
		t.Fatalf("quickstart did not deliver its batch budget:\n%s", out)
	}
}

// TestMultitenantRunsEndToEnd asserts the multitenant example — 16
// concurrent sessions on one Cluster — runs to completion and verifies its
// own determinism check (two runs, bit-identical per-tenant reports).
func TestMultitenantRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	out, err := exec.Command("go", "run", "./examples/multitenant").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/multitenant: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "bit-identical (deterministic)") {
		t.Fatalf("multitenant determinism check failed:\n%s", out)
	}
}

// TestDisaggregatedRunsEndToEnd asserts the disaggregated example — two
// preprocessing servers feeding four remote clients (one hedged) over the
// service fabric — runs to completion and verifies its own determinism
// check (two runs, bit-identical client/server/fabric fingerprints).
func TestDisaggregatedRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	out, err := exec.Command("go", "run", "./examples/disaggregated").CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/disaggregated: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "bit-identical (deterministic)") {
		t.Fatalf("disaggregated determinism check failed:\n%s", out)
	}
	if !strings.Contains(string(out), "unauthorized dial rejected") {
		t.Fatalf("disaggregated auth-rejection line missing:\n%s", out)
	}
}

// TestMultinodeRunsEndToEnd asserts the multinode example — a 4-node
// straggler cluster over the netsim fabric — runs to completion and
// verifies its own determinism checks (two runs with bit-identical
// reports, and a traced rerun pair with bit-identical Chrome exports).
func TestMultinodeRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-run smoke test in -short mode")
	}
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	out, err := exec.Command("go", "run", "./examples/multinode", "-out", traceOut).CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/multinode: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "bit-identical (deterministic)") {
		t.Fatalf("multinode determinism check failed:\n%s", out)
	}
	if !strings.Contains(string(out), "speedup under a straggler") {
		t.Fatalf("multinode speedup line missing:\n%s", out)
	}
	if !strings.Contains(string(out), "bit-identical across runs") {
		t.Fatalf("multinode trace determinism line missing:\n%s", out)
	}
	if fi, err := os.Stat(traceOut); err != nil || fi.Size() == 0 {
		t.Fatalf("multinode trace export missing or empty: %v", err)
	}
}

// TestMinatoBenchRejectsFlagsItWouldDrop asserts that minato-bench turns a
// flag combination it cannot honour — two tiers, a tier with -exp, -trace
// with no session to record — into a usage error (exit 2, reason on stderr)
// instead of silently running part of the request.
func TestMinatoBenchRejectsFlagsItWouldDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-build smoke test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "minato-bench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/minato-bench").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/minato-bench: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-fleet", "-tenants", "-quick"}, "-fleet -tenants are mutually exclusive"},
		{[]string{"-exp", "fig9", "-serve", "-quick"}, "-serve and -exp are mutually exclusive"},
		{[]string{"-trace", filepath.Join(t.TempDir(), "out.json")}, "-trace records one session"},
	} {
		var stdout, stderr strings.Builder
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit status 2\n%s", tc.args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("%v: stderr %q does not say %q", tc.args, stderr.String(), tc.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran something before rejecting:\n%s", tc.args, stdout.String())
		}
	}
}
