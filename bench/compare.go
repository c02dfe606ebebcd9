package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Verdicts of one (workload, end-to-end metric) pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // B is worse than A by more than the metric's bound
	verdictUnresolved = "unresolved" // the spread is wider than the bound and B's runs do not all beat A's
)

// comparison is one row of compare's output. The "runs" behind a side are
// the per-op values of its measured phase (for setup_s, its processes).
type comparison struct {
	Workload, Metric string
	A, B             summary
	// Ratio is B's median over A's (the base is A); Worse is the share of
	// A's median by which B is worse, negative when B is better.
	Ratio, Worse float64
	Spread       float64 // the wider of the two sides' IQR/median
	Bound        float64
	Verdict      string
}

// judge compares two sides of one metric.
func judge(m metricDef, a, b summary, aMedian, bMedian float64) comparison {
	c := comparison{Metric: m.Name, A: a, B: b, Bound: m.Bound}
	c.A.Median, c.B.Median = aMedian, bMedian
	c.Ratio = bMedian / aMedian
	c.Worse = (bMedian - aMedian) / aMedian
	allBetter := b.Max < a.Min
	if m.Better == "higher" {
		c.Worse = -c.Worse
		allBetter = b.Min > a.Max
	}
	c.Spread = max(a.spread(), b.spread())
	switch {
	case c.Worse > m.Bound:
		c.Verdict = verdictRegressed
	case c.Spread > m.Bound && !allBetter:
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictOK
	}
	return c
}

// compareRuns returns one row per workload and end-to-end metric defined on
// it, for the workloads both files hold.
func compareRuns(a, b *runFile) []comparison {
	var rows []comparison
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Workload)
		if wb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			row := judge(m, wa.PerOp[m.Name], wb.PerOp[m.Name], va, vb)
			row.Workload = wa.Workload
			rows = append(rows, row)
		}
	}
	return rows
}

var errRegressed = errors.New("at least one metric regressed")

// compareFiles prints the comparison of two result files: B against the
// base A. It returns errRegressed when any pairing regressed.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readRunFile(pathA)
	if err != nil {
		return err
	}
	b, err := readRunFile(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A (base) = %s (seed %d)\nB        = %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	if a.Seed != b.Seed {
		fmt.Fprintln(w, "note: the seeds differ, so simulated metrics and fingerprints are expected to differ")
	}
	rows := compareRuns(a, b)
	printComparison(w, rows)

	regressed := false
	for _, r := range rows {
		regressed = regressed || r.Verdict == verdictRegressed
	}
	fmt.Fprintln(w, "\nfailed ops and exact fingerprints:")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Workload)
		if wb == nil {
			fmt.Fprintf(w, "  %-24s missing from B\n", wa.Workload)
			continue
		}
		attA, failA := wa.attemptedFailed()
		attB, failB := wb.attemptedFailed()
		line := fmt.Sprintf("  %-24s failed A %d/%d  B %d/%d", wa.Workload, failA, attA, failB, attB)
		if share(failB, attB) > share(failA, attA) {
			line += "  MORE FAILURES in B"
			regressed = true
		}
		if wa.Fingerprint != "" && a.Seed == b.Seed && wa.Fingerprint != wb.Fingerprint {
			line += fmt.Sprintf("\n    exact fingerprint CHANGED\n      A: %s\n      B: %s", wa.Fingerprint, wb.Fingerprint)
		}
		fmt.Fprintln(w, line)
	}
	if regressed {
		return errRegressed
	}
	return nil
}

func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintf(w, "\n%-22s %-26s %38s %38s %18s %8s %7s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "B/A (base A)", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-26s %38s %38s %9.4f (%.5g) %7.2f%% %6.1f%%  %s\n", r.Workload, r.Metric,
			fmtSummary(r.A), fmtSummary(r.B), r.Ratio, r.A.Median, 100*r.Spread, 100*r.Bound, r.Verdict)
	}
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.Median, s.Q1, s.Q3)
}

// selfcheck runs the whole benchmark twice on this build and compares the
// two result sets in both directions: every end-to-end metric on every
// workload must agree within its bound, and no op may fail. It prints the
// observed spread next to each bound, so a bound that is too tight or too
// loose shows.
func selfcheck(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("selfcheck takes no arguments, got %q", args[0])
	}
	var files [2]*runFile
	var paths [2]string
	for i := range files {
		fmt.Fprintf(os.Stderr, "bench: selfcheck run %d of 2\n", i+1)
		f, err := fullRun(1, false)
		if err != nil {
			return err
		}
		files[i] = f
		paths[i] = filepath.Join(outDir, fmt.Sprintf("selfcheck-%d.json", i+1))
		if err := writeRunFile(paths[i], f); err != nil {
			return err
		}
		printRun(os.Stdout, f)
		fmt.Println()
	}
	err := compareFiles(paths[0], paths[1], os.Stdout)
	if err != nil && !errors.Is(err, errRegressed) {
		return err
	}
	bad := 0
	fmt.Println("\nselfcheck: observed disagreement between two runs of the same build, against each bound")
	for _, r := range compareRuns(files[0], files[1]) {
		diff := r.Ratio - 1
		if diff < 0 {
			diff = -diff
		}
		status := "ok"
		if diff > r.Bound {
			status = "DISAGREE"
			bad++
		}
		fmt.Printf("  %-22s %-26s |B/A-1| %6.2f%%  per-op spread %6.2f%%  bound %5.1f%%  %s\n",
			r.Workload, r.Metric, 100*diff, 100*r.Spread, 100*r.Bound, status)
	}
	for i, f := range files {
		if _, failed := f.attemptedFailed(); failed > 0 {
			fmt.Printf("  run %d: %d ops failed\n", i+1, failed)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck failed: %d disagreements or failing runs", bad)
	}
	fmt.Println("selfcheck passed: every end-to-end metric on every workload agrees within its bound, no op failed")
	return nil
}
