// Quickstart: embed MinatoLoader around a custom dataset and preprocessing
// pipeline with the v2 session API, and watch it classify slow samples on
// the fly.
//
// The dataset here is deliberately adversarial: most samples preprocess in
// ~20 ms, but every 8th takes ~800 ms. A conventional loader would stall
// whole batches on the slow ones; MinatoLoader keeps batches flowing and
// folds slow samples in as they finish.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/minatoloader/minato"
)

// toyDataset implements minato.Dataset: 512 samples of 1 MB each, with
// every 8th sample flagged heavy.
type toyDataset struct{}

func (toyDataset) Name() string { return "toy" }
func (toyDataset) Len() int     { return 512 }
func (toyDataset) Sample(epoch, i int) *minato.Sample {
	return &minato.Sample{
		Index: i, Epoch: epoch,
		Key:      minato.Key{Space: "toy", Index: int64(i)},
		RawBytes: 1 << 20, Bytes: 1 << 20,
		Features: minato.Features{Heavy: i%8 == 7},
	}
}

func main() {
	// A two-step pipeline: a fast decode plus an augmentation that is 40×
	// slower on heavy samples.
	decode := minato.NewTransform("Decode",
		func(*minato.Sample) time.Duration { return 10 * time.Millisecond }, nil)
	augment := minato.NewTransform("Augment",
		func(s *minato.Sample) time.Duration {
			if s.Features.Heavy {
				return 790 * time.Millisecond
			}
			return 10 * time.Millisecond
		}, nil)

	// Shorten the profiler warmup so the timeout kicks in within this
	// small run; everything else keeps the paper's defaults.
	cfg := minato.DefaultConfig()
	cfg.WarmupSamples = 24

	// The session owns the runtime (deterministic virtual time, so this
	// demo is instant and exact), the environment, and the loader.
	sess, err := minato.Open(toyDataset{},
		minato.WithPipeline(minato.NewPipeline("toy", decode, augment)),
		minato.WithBatchSize(8),
		minato.WithIterations(32),
		minato.WithSeed(42),
		minato.WithEnv(minato.EnvConfig{Cores: 8}),
		minato.WithLoaderConfig(cfg),
	)
	if err != nil {
		log.Fatal(err)
	}
	ld := sess.Loader().(*minato.Loader) // for timeout diagnostics

	fmt.Println("batch  t(ms)   gap(ms)  slow-samples  timeout(ms)")
	var last time.Duration
	i := 0
	for b, err := range sess.Batches(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		gap := b.CreatedAt - last
		last = b.CreatedAt
		tout := "warmup"
		if d := ld.Timeout(); d < time.Hour {
			tout = fmt.Sprintf("%.0f", float64(d)/float64(time.Millisecond))
		}
		fmt.Printf("%5d  %6.0f  %7.0f  %12d  %s\n",
			i, b.CreatedAt.Seconds()*1000, gap.Seconds()*1000, b.SlowCount(), tout)
		i++
	}

	rep, err := sess.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nall %d batches delivered in %.2fs of simulated time\n",
		rep.Batches, rep.TrainTime.Seconds())
	fmt.Println("note how delivery gaps stay small after warmup: heavy samples")
	fmt.Println("preprocess in the background instead of stalling batches.")
}
