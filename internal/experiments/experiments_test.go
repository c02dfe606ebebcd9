package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	// Every table/figure of the paper's evaluation plus the artifact run
	// and the design ablations must be registered.
	want := []string{
		"table1", "table2", "table3",
		"fig1b", "fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10",
		"fig11a", "fig11b", "fig11c", "fig12", "e1",
		"abl-timeout", "abl-workers", "abl-resume", "abl-order",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d entries, want ≥%d", len(All()), len(want))
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown ID resolved")
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

// TestQuickSmoke runs the cheap experiments end to end in Quick mode and
// checks they produce renderable tables and CSV output.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"table1", "table2", "table3", "fig2", "fig1b", "e1"} {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		res, err := r.Run(Options{Seed: 1, Quick: true})
		if err == nil {
			err = res.Write(dir)
		}
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		if out := res.Render(); !strings.Contains(out, id) {
			t.Fatalf("%s render missing ID header", id)
		}
	}
	// CSVs landed.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no CSV output written")
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".csv" {
			t.Fatalf("unexpected output file %s", e.Name())
		}
	}
}

// experimentsQuickPin is the SHA-256 of every quick result at seed 1: each
// CSV file's name and bytes, in name order, then each Render() text, in ID
// order. Any change to a simulated number, a format or a file name moves it.
const (
	experimentsQuickPin   = "5589d55a8d435314b2776b48a4685a9c2c1e4e611809671c1d683961f50c3cec"
	experimentsQuickFiles = 69
)

// TestAllExperimentsQuick runs the entire registry in Quick mode — every
// table, figure, and ablation must complete and produce tables — writes
// every result's CSVs to one directory and holds the files and the
// rendered text to experimentsQuickPin (about 2 s); -short skips it.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry smoke (slow)")
	}
	dir := t.TempDir()
	renders := map[string]string{}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			res, err := r.Run(Options{Seed: 1, Quick: true})
			if err == nil {
				err = res.Write(dir)
			}
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if len(res.Tables) == 0 {
				t.Fatalf("%s: no tables", r.ID)
			}
			for _, tbl := range res.Tables {
				if len(tbl.Rows) == 0 {
					t.Fatalf("%s: empty table %q", r.ID, tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Fatalf("%s: ragged row %v vs header %v", r.ID, row, tbl.Header)
					}
				}
			}
			renders[r.ID] = res.Render()
		})
	}
	if len(renders) != len(All()) {
		return // a subtest failed or -run picked some: no whole set to pin
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries { // ReadDir sorts by name
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", e.Name(), len(b))
		h.Write(b)
	}
	for _, id := range IDs() {
		fmt.Fprintf(h, "%s\x00%d\x00%s", id, len(renders[id]), renders[id])
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d files, pin %s", len(entries), got)
	if len(entries) != experimentsQuickFiles || got != experimentsQuickPin {
		t.Errorf("quick outputs moved: %d files, pin %s; want %d files, pin %s",
			len(entries), got, experimentsQuickFiles, experimentsQuickPin)
	}
}

// TestFig12QuickShape checks the headline property of the slow-fraction
// sweep at smoke scale: MinatoLoader's advantage peaks in the middle.
func TestFig12QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r, _ := ByID("fig12")
	res, err := r.Run(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 3 { // 0%, 50%, 100% in quick mode
		t.Fatalf("rows = %d", len(rows))
	}
	// Columns: slow_pct, pytorch, pecan, dali, minato.
	ratioAt := func(row []Cell) float64 { return row[1].Value / row[4].Value }
	mid := ratioAt(rows[1])
	left := ratioAt(rows[0])
	if mid <= left {
		t.Errorf("mid-range advantage %.2f not above 0%% advantage %.2f", mid, left)
	}
}

// TestFig7CellHoldsTheRunsNumber reads a number from a table without parsing
// its text: fig7's minato/speech-3s train_s cell holds that run's training
// time exactly, and prints it with one decimal.
func TestFig7CellHoldsTheRunsNumber(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	o := Options{Seed: 1, Quick: true}
	r, _ := ByID("fig7")
	res, err := r.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	var cell *Cell
	for _, row := range res.Tables[0].Rows { // workload, loader, train_s, ...
		if row[0].Text == "speech-3s" && row[1].Text == "minato" {
			cell = &row[2]
		}
	}
	if cell == nil {
		t.Fatal("fig7 has no minato/speech-3s row")
	}
	var w workload.Workload
	for _, x := range workload.All(o.seed()) {
		if x.Name == "speech-3s" {
			w = scaleWorkload(x, o.Quick)
		}
	}
	f, _ := loaders.ByName("minato")
	rep, err := trainer.Simulate(hardware.ConfigA(), w, f, trainer.Params{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := rep.TrainTime.Seconds(); cell.Value != want {
		t.Errorf("train_s cell holds %v, want the run's %v", cell.Value, want)
	}
	if _, frac, _ := strings.Cut(cell.String(), "."); len(frac) != 1 {
		t.Errorf("train_s cell prints %q, want one decimal", cell.String())
	}
}
