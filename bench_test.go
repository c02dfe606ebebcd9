// Benchmarks regenerating the paper's tables and figures (one benchmark
// per artifact, run in Quick mode so the full suite completes in about a
// minute) plus microbenchmarks of the hot paths.
//
//	go test -bench=. -benchmem
//
// Custom metrics:
//   - speedup_x: MinatoLoader training-time speedup over the named baseline
//   - gpu_util_pct: average GPU utilization of the Minato run
package minato

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/experiments"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

// benchExperiment runs a registered experiment once per b.N in Quick mode.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(experiments.Options{Seed: 1, Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkFig1b(b *testing.B)      { benchExperiment(b, "fig1b") }
func BenchmarkFig2(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig7(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11a(b *testing.B)     { benchExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B)     { benchExperiment(b, "fig11b") }
func BenchmarkFig11c(b *testing.B)     { benchExperiment(b, "fig11c") }
func BenchmarkFig12(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkArtifactE1(b *testing.B) { benchExperiment(b, "e1") }

func BenchmarkDistributed(b *testing.B) { benchExperiment(b, "dist") }

func BenchmarkMultiNodeScenarios(b *testing.B) { benchExperiment(b, "multinode") }

// BenchmarkMultiNode is the multi-node tier: 2- and 8-node data-parallel
// clusters over the simulated interconnect, each rank consuming a fixed
// batch budget through its own loader while gradient ring-reduce flows and
// remote dataset fetches contend on the netsim fabric. Reported metrics:
// simulator wall throughput (samples/sec_wall), whole-cluster step time in
// simulated milliseconds (step_ms — must stay bit-stable), and the
// network-stall share of cluster consumer time (net_stall_pct).
func BenchmarkMultiNode(b *testing.B) {
	// The iteration budget is per-node (each node runs its own loader over
	// its shard), so the per-rank work is constant across tiers and total
	// simulated work scales linearly with the node count.
	const batchesPerNode = 15
	for _, nodes := range []int{2, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			w := workload.Speech(1, 3*time.Second).WithIterations(batchesPerNode)
			var samples int64
			var rep *MultiNodeReport
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = TrainMultiNodeWorkload(w, WithNodes(nodes), WithGPUs(1))
				if err != nil {
					b.Fatal(err)
				}
				samples += rep.Samples
			}
			b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/sec_wall")
			b.ReportMetric(rep.StepTime().Seconds()*1000, "step_ms")
			b.ReportMetric(100*rep.NetworkStallShare(), "net_stall_pct")
		})
	}
}

// BenchmarkChurn is the fault-injection tier: an 8-node cluster under three
// regimes — balanced (no chaos, the SLO floor), flash-crowd (a worker stall
// plus a disk brownout striking mid-run), and crash-recover (node 3 crashes
// at t=5s and rejoins at t=8s). Reported metrics: tail step time in
// simulated milliseconds (p99_step_ms) and measured fault recovery
// (recovery_ms) — both must stay bit-stable run to run.
func BenchmarkChurn(b *testing.B) {
	const batchesPerNode = 15
	scripts := []struct {
		name   string
		script ChaosScript
	}{
		{"balanced", ChaosScript{}},
		{"flash-crowd", ComposeChaos("flash-crowd",
			StallWorkers(0, 5*time.Second, 2, 5*time.Second),
			BrownoutDisk(5*time.Second, 8, 10*time.Second),
		)},
		{"crash-recover", CrashNode(3, 5*time.Second, 8*time.Second)},
	}
	for _, sc := range scripts {
		b.Run(sc.name, func(b *testing.B) {
			w := workload.Speech(1, 3*time.Second).WithIterations(batchesPerNode)
			opts := []Option{WithNodes(8), WithGPUs(1)}
			if len(sc.script.Events) > 0 {
				opts = append(opts, WithChaos(sc.script))
			}
			var rep *MultiNodeReport
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = TrainMultiNodeWorkload(w, opts...)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.StepP99.Seconds()*1000, "p99_step_ms")
			b.ReportMetric(rep.RecoveryTime().Seconds()*1000, "recovery_ms")
		})
	}
}

func BenchmarkAblationTimeout(b *testing.B) { benchExperiment(b, "abl-timeout") }
func BenchmarkAblationWorkers(b *testing.B) { benchExperiment(b, "abl-workers") }
func BenchmarkAblationResume(b *testing.B)  { benchExperiment(b, "abl-resume") }
func BenchmarkAblationOrder(b *testing.B)   { benchExperiment(b, "abl-order") }

// BenchmarkHeadlineSpeedup runs the paper's headline comparison (Speech-3s
// on 4×A100) at reduced iteration count and reports the speedup factors as
// custom metrics.
func BenchmarkHeadlineSpeedup(b *testing.B) {
	cfg := ConfigA()
	w := workload.Speech(1, 3*time.Second).WithIterations(200)
	for i := 0; i < b.N; i++ {
		times := map[string]float64{}
		var gpuUtil float64
		for _, f := range AllFactories() {
			rep, err := TrainWorkload(w, WithLoaderFactory(f), WithHardware(cfg))
			if err != nil {
				b.Fatal(err)
			}
			times[f.Name] = rep.TrainTime.Seconds()
			if f.Name == "minato" {
				gpuUtil = rep.AvgGPUUtil
			}
		}
		b.ReportMetric(times["pytorch"]/times["minato"], "speedup_vs_pytorch_x")
		b.ReportMetric(times["dali"]/times["minato"], "speedup_vs_dali_x")
		b.ReportMetric(gpuUtil, "minato_gpu_util_pct")
	}
}

// BenchmarkHeadlineSpeedupTraced is the headline comparison with end-to-end
// tracing attached to every run. Tracing only records — it must not perturb
// the simulation — so the simulated-time metrics here have to be
// bit-identical to BenchmarkHeadlineSpeedup's, and the wall cost (ns/op) is
// the tracer's overhead. scripts/bench.sh gates both through `benchjson
// overhead`: >5% wall over the untraced headline fails, as does any drift
// in the shared metrics.
func BenchmarkHeadlineSpeedupTraced(b *testing.B) {
	cfg := ConfigA()
	w := workload.Speech(1, 3*time.Second).WithIterations(200)
	sink := NewTraceSink()
	for i := 0; i < b.N; i++ {
		times := map[string]float64{}
		var gpuUtil, spans float64
		for _, f := range AllFactories() {
			sink.Reset()
			rep, err := TrainWorkload(w, WithLoaderFactory(f), WithHardware(cfg), WithTracing(sink))
			if err != nil {
				b.Fatal(err)
			}
			times[f.Name] = rep.TrainTime.Seconds()
			if f.Name == "minato" {
				gpuUtil = rep.AvgGPUUtil
				spans = float64(sink.Len())
			}
		}
		b.ReportMetric(times["pytorch"]/times["minato"], "speedup_vs_pytorch_x")
		b.ReportMetric(times["dali"]/times["minato"], "speedup_vs_dali_x")
		b.ReportMetric(gpuUtil, "minato_gpu_util_pct")
		b.ReportMetric(spans, "trace_spans")
	}
}

// BenchmarkLoaderSessionThroughput measures simulator throughput: samples
// processed per wall second across a full Minato session.
func BenchmarkLoaderSessionThroughput(b *testing.B) {
	cfg := ConfigA().WithGPUs(2)
	w := workload.Speech(1, 3*time.Second).WithIterations(100)
	var samples int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := TrainWorkload(w, WithLoaderFactory(MinatoFactory()), WithHardware(cfg))
		if err != nil {
			b.Fatal(err)
		}
		samples += rep.Samples
	}
	b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/sec_wall")
}

// BenchmarkFleetSession is the scale-out tier: one Minato session feeding
// 8, 32, and 64 simulated GPUs through per-GPU batch queues — the
// configuration where queue contention, not preprocessing, decides
// simulator throughput. Each GPU consumes a fixed number of batches so the
// simulated work grows with the fleet; the reported metric is samples
// processed per wall second.
func BenchmarkFleetSession(b *testing.B) {
	const batchesPerGPU = 25
	for _, gpus := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("gpus=%d", gpus), func(b *testing.B) {
			cfg := ConfigA().WithGPUs(gpus)
			w := workload.Speech(1, 3*time.Second).WithIterations(batchesPerGPU * gpus)
			var samples int64
			var gpuUtil float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := TrainWorkload(w, WithLoaderFactory(MinatoFactory()), WithHardware(cfg))
				if err != nil {
					b.Fatal(err)
				}
				samples += rep.Samples
				gpuUtil = rep.AvgGPUUtil
			}
			b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/sec_wall")
			b.ReportMetric(gpuUtil, "gpu_util_pct")
		})
	}
}

// tenantCorpus is the shared corpus of the cluster-tenant tier: a pooled,
// allocation-free dataset (Filler) whose storage keys are common to every
// tenant, so co-running sessions share one warm-up pass through the page
// cache — the Seneca scenario the Cluster API exists for.
type tenantCorpus struct{ n int }

func (d tenantCorpus) Name() string { return "tenant-corpus" }
func (d tenantCorpus) Len() int     { return d.n }
func (d tenantCorpus) Sample(epoch, i int) *Sample {
	s := &Sample{}
	d.FillSample(epoch, i, s)
	return s
}
func (d tenantCorpus) FillSample(epoch, i int, s *Sample) {
	s.Index, s.Epoch = i, epoch
	s.Key = Key{Space: "tenant-corpus", Index: int64(i)}
	s.RawBytes, s.Bytes = 1<<20, 1<<20
}

// BenchmarkClusterTenants is the multi-tenant tier: 1, 4, and 16 concurrent
// sessions on one shared Cluster (the same ConfigA testbed for every tier),
// each streaming a fixed batch budget of a shared prepared corpus through
// its own consumer goroutine. Tenants share the page cache (single-flight
// fills, so the corpus is read from disk once, not once per tenant), the
// sample pool, and the fairly-arbitrated CPU workers. The reported metric
// is aggregate samples per wall second — the consolidation win of serving
// many sessions from one cluster instead of a private substrate per
// session. The 16-session tier is the acceptance bar: aggregate ≥ 3× the
// single-session rate on the same testbed.
func BenchmarkClusterTenants(b *testing.B) {
	const batchesPerSession = 50
	for _, tenants := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sessions=%d", tenants), func(b *testing.B) {
			var total int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl, err := NewCluster(WithHardware(ConfigA()))
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for t := 0; t < tenants; t++ {
					sess, err := cl.Open(tenantCorpus{n: 2048},
						WithBatchSize(32),
						WithIterations(batchesPerSession),
						WithGPUs(1),
						WithSeed(uint64(t+1)),
					)
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, err := range sess.Batches(context.Background()) {
							if err != nil {
								b.Error(err)
								return
							}
						}
						rep, err := sess.Close()
						if err != nil {
							b.Error(err)
							return
						}
						atomic.AddInt64(&total, rep.Samples)
					}()
				}
				wg.Wait()
				if err := cl.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "samples/sec_wall")
		})
	}
}

// warmBenchPipeline returns the warm-tier preprocessing pipeline. Each call
// builds a fresh Pipeline, but the signature is name-derived, so every
// tenant session shares one materialized key space.
func warmBenchPipeline() *Pipeline {
	return NewPipeline("warm-bench",
		NewTransform("heavy-step", func(*Sample) time.Duration { return 5 * time.Millisecond }, nil))
}

// BenchmarkWarmEpoch is the materialized-cache tier.
//
// epochs: one session, two epochs over a speech corpus with the cache
// enabled. Epoch 1 materializes, epoch 2 restores. Reported metrics are
// simulated epoch times (bit-stable run to run) and their ratio
// warm_speedup_x — the tentpole acceptance bar is ≥ 2.
//
// tenants: 1, 4, and 16 sessions warm-starting the same corpus on one
// cluster. Fills are single-flighted, so the corpus is preprocessed once
// regardless of tenant count; mat_hit_pct reports the resulting hit rate.
func BenchmarkWarmEpoch(b *testing.B) {
	b.Run("epochs", func(b *testing.B) {
		w := workload.Speech(1, 3*time.Second)
		ds := SubsetDataset(w.Dataset, 640)
		perEpoch := 640 / 32
		var coldMs, warmMs float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess, err := Open(ds,
				WithPipeline(w.Pipeline),
				WithBatchSize(32),
				WithEpochs(2),
				WithHardware(ConfigA()),
				WithMaterializedCache(4<<30),
			)
			if err != nil {
				b.Fatal(err)
			}
			var t1, t2 time.Duration
			n := 0
			for _, err := range sess.Batches(context.Background()) {
				if err != nil {
					b.Fatal(err)
				}
				n++
				switch n {
				case perEpoch:
					t1 = sess.env.RT.Now()
				case 2 * perEpoch:
					t2 = sess.env.RT.Now()
				}
			}
			if _, err := sess.Close(); err != nil {
				b.Fatal(err)
			}
			coldMs = t1.Seconds() * 1000
			warmMs = (t2 - t1).Seconds() * 1000
		}
		b.ReportMetric(coldMs, "cold_epoch_ms")
		b.ReportMetric(warmMs, "warm_epoch_ms")
		b.ReportMetric(coldMs/warmMs, "warm_speedup_x")
		b.ReportMetric(float64(b.N*640*2)/b.Elapsed().Seconds(), "samples/sec_wall")
	})

	const batchesPerSession = 50
	for _, tenants := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			var total int64
			var hitPct float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl, err := NewCluster(WithHardware(ConfigA()), WithMaterializedCache(4<<30))
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for t := 0; t < tenants; t++ {
					sess, err := cl.Open(tenantCorpus{n: 2048},
						WithPipeline(warmBenchPipeline()),
						WithBatchSize(32),
						WithIterations(batchesPerSession),
						WithGPUs(1),
						WithSeed(1), // same order: tenants warm the same shard
					)
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, err := range sess.Batches(context.Background()) {
							if err != nil {
								b.Error(err)
								return
							}
						}
						rep, err := sess.Close()
						if err != nil {
							b.Error(err)
							return
						}
						atomic.AddInt64(&total, rep.Samples)
					}()
				}
				wg.Wait()
				hitPct = 100 * cl.Stats().MatCache.HitRate()
				if err := cl.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "samples/sec_wall")
			b.ReportMetric(hitPct, "mat_hit_pct")
		})
	}
}

// BenchmarkPipelineCostModel measures the pure cost-model path (no
// simulation), the hot function of profiling runs.
func BenchmarkPipelineCostModel(b *testing.B) {
	w := workload.ImageSegmentation(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := w.Dataset.Sample(0, i%w.Dataset.Len())
		_ = w.Pipeline.TotalCost(s)
	}
}

// BenchmarkServe is the disaggregated-service tier: one preprocessing
// server (an 8-core cluster on a shared fabric) feeding 1, 16, and 256
// remote clients, each streaming a fixed batch budget over netsim through
// Dial. All clients consume concurrently on one kernel via StreamAll, so
// the tier measures the server's admission, fair-share, and send-window
// machinery under real contention. Reported metrics are aggregate samples
// per wall second and the worst client's p99 batch wait in (virtual)
// milliseconds — the queueing delay a training step actually sees.
func BenchmarkServe(b *testing.B) {
	const batchesPerClient = 8
	for _, clients := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			var samples int64
			var p99 time.Duration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sn := NewServiceNet(nil, ServiceNetConfig{Endpoints: clients + 8})
				cl, err := NewCluster(
					WithRuntime(sn.Runtime()),
					WithEnv(EnvConfig{Cores: 8, GPUs: 1}),
				)
				if err != nil {
					b.Fatal(err)
				}
				addr, err := Serve(cl, WithServiceNet(sn),
					Publish("corpus", tenantCorpus{n: 2048},
						NewPipeline("serve-bench",
							NewTransform("step", func(*Sample) time.Duration { return time.Millisecond }, nil))))
				if err != nil {
					b.Fatal(err)
				}
				sessions := make([]*RemoteSession, clients)
				for c := range sessions {
					rs, err := Dial(addr,
						WithBatchSize(32),
						WithIterations(batchesPerClient),
						WithSeed(uint64(c+1)),
						WithPrefetch(4),
					)
					if err != nil {
						b.Fatal(err)
					}
					sessions[c] = rs
				}
				StreamAll(context.Background(), sessions, func(_ int, s *RemoteSession) {
					var last *Batch
					for bt, err := range s.Batches(context.Background()) {
						if err != nil {
							b.Error(err)
							return
						}
						last = bt
					}
					if last != nil {
						last.Release()
					}
				})
				for _, s := range sessions {
					if w := s.Stats().WaitP99; w > p99 {
						p99 = w
					}
					rep, err := s.Close()
					if err != nil {
						b.Fatal(err)
					}
					samples += rep.Samples
				}
				if err := addr.Close(); err != nil {
					b.Fatal(err)
				}
				if err := cl.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/sec_wall")
			b.ReportMetric(float64(p99)/float64(time.Millisecond), "p99_batch_wait_ms")
		})
	}
}

// BenchmarkSimulateSmallSession measures end-to-end kernel overhead for a
// minimal session (the fixed cost every experiment pays).
func BenchmarkSimulateSmallSession(b *testing.B) {
	cfg := ConfigA().WithGPUs(1)
	w := workload.Speech(1, 3*time.Second).WithIterations(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainWorkload(w, WithLoaderFactory(MinatoFactory()), WithHardware(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

// Compile-time check: the trainer factory type matches the facade alias.
var _ trainer.Factory = Factory{}
