package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/workload"
)

func init() {
	register("table1", "Preprocessing pipelines per workload (Table 1)", runTable1)
	register("table3", "Training configurations per workload (Table 3)", runTable3)
	register("table2", "Per-sample preprocessing time statistics (Table 2)", runTable2)
	register("fig2", "Per-sample preprocessing time variability (Fig 2)", runFig2)
}

func runTable1(o Options) (*Result, error) {
	t := Table{
		Title:  "Preprocessing pipelines",
		File:   "table1",
		Header: []string{"workload", "pipeline"},
	}
	for _, w := range workload.All(o.seed()) {
		t.Rows = append(t.Rows, []Cell{text(w.Name), text(strings.Join(w.Table1Row(), " -> "))})
	}
	return &Result{ID: "table1", Title: "Table 1", Tables: []Table{t}}, nil
}

func runTable3(o Options) (*Result, error) {
	t := Table{
		Title:  "Training configurations",
		File:   "table3",
		Header: []string{"workload", "model", "epochs", "iterations", "batch_size"},
	}
	for _, w := range workload.All(o.seed()) {
		ep, it := text("-"), text("-")
		if w.Epochs > 0 {
			ep = count(w.Epochs)
		}
		if w.Iterations > 0 {
			it = count(w.Iterations)
		}
		t.Rows = append(t.Rows, []Cell{text(w.Name), text(w.Model), ep, it, count(w.BatchSize)})
	}
	return &Result{ID: "table3", Title: "Table 3", Tables: []Table{t}}, nil
}

// table2Paper holds the paper's Table 2 for side-by-side comparison (ms).
var table2Paper = map[string]metrics.Summary{
	"img-seg":    {Avg: 500, Med: 470, P75: 630, P90: 750, Min: 10, Max: 2230, Std: 197},
	"obj-det":    {Avg: 31, Med: 28, P75: 30, P90: 35, Min: 11, Max: 176, Std: 19},
	"speech-3s":  {Avg: 998, Med: 508, P75: 509, P90: 3008, Min: 502, Max: 3017, Std: 992},
	"speech-10s": {Avg: 2351, Med: 508, P75: 509, P90: 10008, Min: 502, Max: 10014, Std: 3757},
}

func runTable2(o Options) (*Result, error) {
	n := 20000
	if o.Quick {
		n = 4000
	}
	t := Table{
		Title:  "Preprocessing time per workload (ms); 'paper' rows are the published Table 2",
		File:   "table2",
		Header: []string{"workload", "source", "avg", "med", "p75", "p90", "min", "max", "std"},
	}
	for _, w := range workload.All(o.seed()) {
		count := n
		if w.Dataset.Len() < count {
			count = w.Dataset.Len()
		}
		vals := make([]float64, 0, count)
		for i := 0; i < count; i++ {
			s := w.Dataset.Sample(0, i)
			vals = append(vals, float64(w.Pipeline.TotalCost(s))/float64(time.Millisecond))
		}
		got := metrics.Summarize(vals)
		paper := table2Paper[w.Name]
		t.Rows = append(t.Rows,
			summaryRow(w.Name, "measured", got),
			summaryRow(w.Name, "paper", paper))
	}
	return &Result{ID: "table2", Title: "Table 2", Tables: []Table{t}}, nil
}

func summaryRow(name, src string, s metrics.Summary) []Cell {
	return []Cell{text(name), text(src),
		num(s.Avg, 0), num(s.Med, 0), num(s.P75, 0), num(s.P90, 0),
		num(s.Min, 0), num(s.Max, 0), num(s.Std, 0)}
}

func runFig2(o Options) (*Result, error) {
	const samples = 25
	mk := func(file string, w workload.Workload) (Table, float64) {
		t := Table{
			Title:  fmt.Sprintf("Per-sample preprocessing time, %s (%s)", w.Name, w.Model),
			File:   file,
			Header: []string{"sample", "time_ms"},
		}
		sum := 0.0
		for i := 0; i < samples; i++ {
			s := w.Dataset.Sample(0, i)
			ms := float64(w.Pipeline.TotalCost(s)) / float64(time.Millisecond)
			sum += ms
			t.Rows = append(t.Rows, []Cell{count(i), num(ms, 1)})
		}
		return t, sum / samples
	}
	tImg, avgImg := mk("fig2a_imgseg", workload.ImageSegmentation(o.seed()))
	tObj, avgObj := mk("fig2b_objdet", workload.ObjectDetection(o.seed()))
	return &Result{
		ID: "fig2", Title: "Fig 2: preprocessing time variability",
		Tables: []Table{tImg, tObj},
		Notes: []string{
			fmt.Sprintf("img-seg average %.0f ms (paper: ≈500 ms red line)", avgImg),
			fmt.Sprintf("obj-det average %.0f ms (paper: ≈35 ms red line)", avgObj),
		},
	}, nil
}
