// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §5, and the artifact appendix), plus ablations of
// MinatoLoader's design choices. Each experiment returns structured tables
// and optionally writes CSVs; `minato exp` (cmd/minato) drives them by ID.
//
// See DESIGN.md's per-experiment index for the mapping from experiment IDs
// to paper artifacts.
package experiments

import (
	"fmt"
	"sort"

	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/trainer"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives every random draw; identical seeds reproduce results.
	Seed uint64
	// Quick shrinks run lengths for benchmarks and CI: fewer iterations,
	// fewer sweep points, same shapes.
	Quick bool
	// OutDir, when set, receives CSV files for plotting.
	OutDir string
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Result is an experiment's structured outcome.
type Result struct {
	ID     string
	Title  string
	Tables []Table
	Notes  []string
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

// Runner is a registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

var registry []Runner

func register(id, title string, fn func(Options) (*Result, error)) {
	registry = append(registry, Runner{ID: id, Title: title, Run: fn})
}

// All returns every registered experiment in registration order.
func All() []Runner {
	out := make([]Runner, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, r := range registry {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}

// ByID looks up an experiment.
func ByID(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// --- shared helpers -------------------------------------------------------

// loaderRow renders the standard per-run summary row.
func loaderRow(rep *trainer.Report) []string {
	return []string{
		rep.Loader,
		seconds(rep.TrainTime),
		fixed(rep.Throughput(), 1),
		percent(rep.AvgGPUUtil),
		percent(rep.AvgCPUUtil),
	}
}

var loaderHeader = []string{"loader", "train_s", "tput_MB/s", "gpu_util", "cpu_util"}

// writeSeries persists a report's time series when OutDir is set.
func writeSeries(o Options, name string, rep *trainer.Report, keys ...string) error {
	if o.OutDir == "" || rep.Series == nil {
		return nil
	}
	series := make([]*metrics.TimeSeries, 0, len(keys))
	for _, k := range keys {
		if ts := rep.Series[k]; ts != nil {
			series = append(series, ts)
		}
	}
	return metrics.WriteSeriesCSV(o.OutDir, name, series...)
}
