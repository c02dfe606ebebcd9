// Speech pipeline deep-dive: sweep the fraction of slow samples in the
// RNN-T workload (the paper's Fig 12 scenario) and watch MinatoLoader's
// profiler pick timeouts and its scheduler resize the worker pool.
//
// The sweep workload is parameterized by slow fraction, so it is built
// directly rather than looked up by name; both loaders resolve by name
// through the loader registry.
//
//	go run ./examples/speechpipeline
package main

import (
	"fmt"
	"log"

	"github.com/minatoloader/minato"
	"github.com/minatoloader/minato/internal/workload"
)

func main() {
	cfg := minato.ConfigA().WithGPUs(2)

	fmt.Println("Speech-3s with varying slow-sample fraction, 2×A100, 300 iterations")
	fmt.Println()
	fmt.Println("slow%   pytorch(s)  minato(s)  speedup  minato-GPU%  peak-workers")
	fmt.Println("-----   ----------  ---------  -------  -----------  ------------")

	for _, frac := range []float64{0, 0.25, 0.50, 0.75, 1.0} {
		w := workload.SpeechSlowFraction(1, frac)

		ptRep, err := minato.Train(w,
			minato.WithLoader("pytorch"),
			minato.WithHardware(cfg),
			minato.WithIterations(300),
		)
		if err != nil {
			log.Fatal(err)
		}

		// Instrumented Minato run: collect the worker-count series.
		mnRep, err := minato.Train(w,
			minato.WithLoader("minato"),
			minato.WithHardware(cfg),
			minato.WithIterations(300),
			minato.WithParams(minato.Params{Collect: true}),
		)
		if err != nil {
			log.Fatal(err)
		}
		peak := 0.0
		if ts := mnRep.Series["minato_workers"]; ts != nil {
			peak = ts.Max()
		}
		fmt.Printf("%4.0f%%   %10.1f  %9.1f  %6.2fx  %10.1f%%  %12.0f\n",
			frac*100,
			ptRep.TrainTime.Seconds(), mnRep.TrainTime.Seconds(),
			ptRep.TrainTime.Seconds()/mnRep.TrainTime.Seconds(),
			mnRep.AvgGPUUtil, peak)
	}

	fmt.Println()
	fmt.Println("The gains concentrate where per-sample variability exists (§5.6);")
	fmt.Println("the scheduler grows the pool as heavy samples demand more CPU.")
}
