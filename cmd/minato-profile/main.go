// Command minato-profile profiles per-sample preprocessing cost for a
// workload — the offline analysis behind the paper's Fig 2 and Table 2 and
// the "educated guess" initializing MinatoLoader's timeout (§4.2).
//
//	minato-profile -workload img-seg -n 210
//	minato-profile -workload speech-3s -n 5000 -per-transform
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/minatoloader/minato"
	"github.com/minatoloader/minato/internal/metrics"
)

func main() {
	var (
		wl     = flag.String("workload", "img-seg", "registered workload name")
		n      = flag.Int("n", 1000, "samples to profile")
		seed   = flag.Uint64("seed", 1, "random seed")
		perTr  = flag.Bool("per-transform", false, "break cost down by transform")
		cutoff = flag.Float64("percentile", 0.75, "report this percentile as the suggested timeout")
	)
	flag.Parse()

	w, ok := minato.WorkloadByName(*wl, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (registered: %s)\n", *wl, strings.Join(minato.Workloads(), ", "))
		os.Exit(2)
	}

	count := *n
	if count > w.Dataset.Len() {
		count = w.Dataset.Len()
	}

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
