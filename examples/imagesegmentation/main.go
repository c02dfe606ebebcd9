// Image segmentation end-to-end: the paper's 3D-UNet/KiTS19 workload on
// the Config B testbed (8×V100), comparing data loaders resolved through
// the v2 registry — a programmatic version of the artifact's run_all.sh
// (E1).
//
//	go run ./examples/imagesegmentation
package main

import (
	"fmt"
	"log"

	"github.com/minatoloader/minato"
)

func main() {
	cfg := minato.ConfigB() // 8×V100, 7 GB/s NVMe
	const epochs = 10

	w, ok := minato.WorkloadByName("img-seg", 1)
	if !ok {
		log.Fatal("img-seg workload not registered")
	}
	fmt.Printf("3D-UNet on %d×%s, %d epochs of KiTS19 (%d volumes)\n\n",
		cfg.GPUCount, cfg.GPUArch.Name, epochs, w.Dataset.Len())
	fmt.Println("loader    train(s)  tput(MB/s)  GPU%   CPU%")
	fmt.Println("--------  --------  ----------  -----  -----")

	times := map[string]float64{}
	// Sweep the paper's comparison order; every name resolves through the
	// loader registry, so a backend added via minato.RegisterLoader joins
	// this comparison by appending its name here.
	for _, name := range []string{"pytorch", "dali", "minato"} {
		// pecan is skipped: identical to pytorch here (pipeline already
		// ordered).
		rep, err := minato.Train(w,
			minato.WithLoader(name),
			minato.WithHardware(cfg),
			minato.WithEpochs(epochs),
			minato.WithParams(minato.Params{Collect: true}),
		)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-8s  %8.1f  %10.1f  %4.1f  %4.1f\n",
			rep.Loader, rep.TrainTime.Seconds(), rep.Throughput(),
			rep.AvgGPUUtil, rep.AvgCPUUtil)
		times[rep.Loader] = rep.TrainTime.Seconds()
	}
	fmt.Printf("\nMinatoLoader speedup over PyTorch DataLoader: %.2fx\n", times["pytorch"]/times["minato"])
	fmt.Println("(the paper's artifact reports 210 s / 151 s / 81 s on real V100 hardware)")
}
