// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §5, and the artifact appendix), plus ablations of
// MinatoLoader's design choices. Each experiment is a pure function of its
// Options that returns every table and CSV file it stands for as data;
// Result.Write is the one place they reach the disk. `minato exp`
// (cmd/minato) drives them by ID.
//
// See DESIGN.md's per-experiment index for the mapping from experiment IDs
// to paper artifacts.
package experiments

import (
	"fmt"

	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/registry"
	"github.com/minatoloader/minato/internal/trainer"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives every random draw; identical seeds reproduce results.
	Seed uint64
	// Quick shrinks run lengths for benchmarks and CI: fewer iterations,
	// fewer sweep points, same shapes.
	Quick bool
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Result is an experiment's structured outcome.
type Result struct {
	ID    string
	Title string
	// Tables are printed by Render and written by Write.
	Tables []Table
	// Curves are per-run tables too long to print: written only.
	Curves []Table
	// Series are sampled time series of the runs: written only.
	Series []SeriesFile
	Notes  []string
}

// SeriesFile is one time-series CSV file: a run's series aligned by row.
type SeriesFile struct {
	File   string
	Series []*metrics.TimeSeries
}

// Render returns the result as printable text.
func (r *Result) Render() string {
	out := fmt.Sprintf("### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.Render() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Write writes every table, curve and series of r to dir/<File>.csv,
// creating dir as needed.
func (r *Result) Write(dir string) error {
	for _, ts := range [][]Table{r.Tables, r.Curves} {
		for _, t := range ts {
			if err := metrics.WriteCSV(dir, t.File, t.Header, t.formatted()); err != nil {
				return err
			}
		}
	}
	for _, s := range r.Series {
		if err := metrics.WriteSeriesCSV(dir, s.File, s.Series...); err != nil {
			return err
		}
	}
	return nil
}

// Runner is a registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

var reg = registry.New[Runner]("experiment")

// register adds an experiment; a duplicate ID panics at init.
func register(id, title string, fn func(Options) (*Result, error)) {
	reg.Register(id, Runner{ID: id, Title: title, Run: fn})
}

// All returns every registered experiment in registration order.
func All() []Runner {
	ids := reg.Ordered()
	out := make([]Runner, len(ids))
	for i, id := range ids {
		out[i], _ = reg.Lookup(id)
	}
	return out
}

// IDs returns the sorted experiment identifiers.
func IDs() []string { return reg.Names() }

// ByID looks up an experiment.
func ByID(id string) (Runner, bool) { return reg.Lookup(id) }

// --- shared helpers -------------------------------------------------------

// loaderRow is the standard per-run summary row.
func loaderRow(rep *trainer.Report) []Cell {
	return []Cell{text(rep.Loader), secs(rep.TrainTime), num(rep.Throughput(), 1),
		pct(rep.AvgGPUUtil), pct(rep.AvgCPUUtil)}
}

var loaderHeader = []string{"loader", "train_s", "tput_MB/s", "gpu_util", "cpu_util"}

// series returns the CSV file name that holds rep's series under keys; a
// run without collected series has no file.
func series(name string, rep *trainer.Report, keys ...string) []SeriesFile {
	if rep.Series == nil {
		return nil
	}
	s := SeriesFile{File: name}
	for _, k := range keys {
		if ts := rep.Series[k]; ts != nil {
			s.Series = append(s.Series, ts)
		}
	}
	return []SeriesFile{s}
}
