package main

import (
	"context"
	"runtime"
	"time"

	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/matcache"
	"github.com/minatoloader/minato/internal/netsim"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trace"
	"github.com/minatoloader/minato/internal/transform"
)

// The layer probes ([M] metrics): one microdriver per layer, calling only
// the package's exported functions, on a fresh virtual kernel, for a fixed
// number of operations. Each reports host nanoseconds per operation as the
// median of probeRepeats runs. They say what one layer operation costs in
// isolation; the workloads say how much of it a scenario performs.

const probeRepeats = 5

// probeResult is one probe run: host time and heap allocations per
// operation.
type probeResult struct{ ns, allocs float64 }

// timeOps measures fn, which performs ops operations.
func timeOps(ops int, fn func()) probeResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return probeResult{
		ns:     float64(d.Nanoseconds()) / float64(ops),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	}
}

// fanOut runs tasks kernel tasks, each calling body(task) — the shape of
// every concurrent probe.
func fanOut(k *simtime.Virtual, tasks int, body func(task int)) {
	k.Run(func() {
		wg := simtime.NewWaitGroup(k)
		for t := 0; t < tasks; t++ {
			wg.Go("probe", func() { body(t) })
		}
		_ = wg.Wait(context.Background())
	})
}

type probeFunc func() probeResult

// runProbes returns every [M] metric. repeats is probeRepeats except in
// -quick runs.
func runProbes(repeats int) map[string]float64 {
	ctx := context.Background()
	out := map[string]float64{}
	med := func(p probeFunc) probeResult {
		ns, allocs := make([]float64, repeats), make([]float64, repeats)
		for i := range ns {
			r := p()
			ns[i], allocs[i] = r.ns, r.allocs
		}
		return probeResult{ns: median(ns), allocs: median(allocs)}
	}

	// simtime: 1k tasks parked on timers at once. Distinct deadlines pop the
	// timer heap once per wake; shared deadlines ride one pop per instant.
	sleepers := func(distinct bool) probeFunc {
		const tasks, per = 1000, 20
		return func() probeResult {
			k := simtime.NewVirtual()
			return timeOps(tasks*per, func() {
				fanOut(k, tasks, func(t int) {
					d := time.Millisecond
					if distinct {
						d += time.Duration(t) * time.Microsecond
					}
					for i := 0; i < per; i++ {
						_ = k.Sleep(ctx, d)
					}
				})
			})
		}
	}
	out["simtime.probe_sleep_ns"] = med(sleepers(true)).ns
	out["simtime.probe_same_deadline_ns"] = med(sleepers(false)).ns
	out["simtime.probe_selector_wake_ns"] = med(func() probeResult {
		const ops = 200_000
		k := simtime.NewVirtual()
		return timeOps(ops, func() {
			k.Run(func() {
				sel := simtime.NewSelector(k)
				for i := 0; i < ops; i++ {
					sel.Reset()
					sel.TryWake(0)
					_, _ = sel.Wait(ctx, 0)
				}
			})
		})
	}).ns

	// queue: one producer, one consumer, an 8-slot queue — every few items
	// one side parks and the other wakes it through the kernel.
	handoff := func(waitAny bool) probeFunc {
		const items = 50_000
		return func() probeResult {
			k := simtime.NewVirtual()
			return timeOps(items, func() {
				k.Run(func() {
					q := queue.New[int](k, "probe", 8)
					idle := queue.New[int](k, "probe-idle", 8)
					wg := simtime.NewWaitGroup(k)
					wg.Go("producer", func() {
						for i := 0; i < items; i++ {
							if q.Put(ctx, i) != nil {
								return
							}
						}
						q.Close()
					})
					for {
						if waitAny {
							if _, err := queue.WaitAny(ctx, k, 0, idle, q); err != nil {
								break
							}
						}
						if _, err := q.Get(ctx); err != nil {
							break
						}
					}
					_ = wg.Wait(ctx)
				})
			})
		}
	}
	pg := med(handoff(false))
	out["queue.probe_put_get_ns"], out["queue.probe_put_get_allocs"] = pg.ns, pg.allocs
	out["queue.probe_waitany_ns"] = med(handoff(true)).ns

	// device: Run under the shared-capacity model; with 16 occupants on
	// capacity 4 every entry and exit rebalances the others.
	deviceRun := func(tasks int, capacity float64) probeFunc {
		const ops = 32_000
		return func() probeResult {
			k := simtime.NewVirtual()
			return timeOps(ops, func() {
				d := device.New(k, "probe", capacity)
				fanOut(k, tasks, func(int) {
					for i := 0; i < ops/tasks; i++ {
						if d.Run(ctx, time.Millisecond) != nil {
							return
						}
					}
				})
			})
		}
	}
	out["device.probe_run_ns_k1"] = med(deviceRun(1, 8)).ns
	out["device.probe_run_ns_k16"] = med(deviceRun(16, 4)).ns

	// storage: ReadSample through a page cache, on resident keys and on
	// keys that each cost one disk read on the virtual clock.
	readSample := func(resident bool) probeFunc {
		const ops = 20_000
		return func() probeResult {
			k := simtime.NewVirtual()
			st := &storage.Store{Disk: storage.NewDisk(k, "probe", 2e9, 2), Cache: storage.NewPageCache(1 << 40)}
			s := &data.Sample{RawBytes: 1 << 20}
			if resident {
				st.Cache.Put(data.Key{Space: "probe"}, s.RawBytes)
			}
			return timeOps(ops, func() {
				k.Run(func() {
					for i := 0; i < ops; i++ {
						if !resident {
							s.Key = data.Key{Space: "probe", Index: int64(i)}
						} else {
							s.Key = data.Key{Space: "probe"}
						}
						if st.ReadSample(ctx, k, s) != nil {
							return
						}
					}
				})
			})
		}
	}
	out["storage.probe_read_hit_ns"] = med(readSample(true)).ns
	out["storage.probe_read_miss_ns"] = med(readSample(false)).ns

	// matcache: the single-flight warm path on a resident key, and the
	// leader's miss + Complete on fresh keys.
	entry := matcache.Entry{Bytes: 1 << 20, Cost: 5 * time.Millisecond}
	out["matcache.probe_hit_ns"] = med(func() probeResult {
		const ops = 200_000
		k := simtime.NewVirtual()
		c := matcache.New(1 << 40)
		key := matcache.Key{Obj: data.Key{Space: "probe"}, Sig: 1}
		c.GetOrBegin(0, key, k)
		c.Complete(0, key, entry)
		return timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				c.GetOrBegin(0, key, k)
			}
		})
	}).ns
	out["matcache.probe_fill_ns"] = med(func() probeResult {
		const ops = 50_000
		k := simtime.NewVirtual()
		c := matcache.New(1 << 40)
		res := timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				key := matcache.Key{Obj: data.Key{Space: "probe", Index: int64(i)}, Sig: 1}
				c.GetOrBegin(0, key, k)
				c.Complete(0, key, entry)
			}
		})
		c.Recycle()
		return res
	}).ns

	out["data.probe_get_put_ns"] = med(func() probeResult {
		const ops = 500_000
		p := data.NewPool()
		return timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				p.Put(p.Get())
			}
		})
	}).ns

	out["transform.probe_cost_model_ns"] = med(func() probeResult {
		const ops = 200_000
		pl := transform.SpeechPipeline(3 * time.Second)
		s := dataset.NewLibriSpeech(1, 5).Sample(0, 4) // a heavy sample: every transform prices it
		var sink time.Duration
		res := timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				sink += pl.TotalCost(s)
			}
		})
		runtime.KeepAlive(sink)
		return res
	}).ns

	out["core.probe_profiler_record_ns"] = med(func() probeResult {
		const ops = 500_000
		p := core.NewProfiler(core.ProfilerConfig{})
		return timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				p.Record(time.Duration(1+i%64) * time.Millisecond)
			}
		})
	}).ns

	// netsim: F flows live at once between disjoint endpoint pairs, so no
	// two share a link and the cost that grows with F is the fabric's own
	// bookkeeping on every flow entry and exit.
	flows := func(live int) probeFunc {
		const total = 4096
		return func() probeResult {
			k := simtime.NewVirtual()
			f := netsim.New(k, netsim.Config{Endpoints: 2 * live, Bandwidth: 25e9, Latency: 0})
			return timeOps(total, func() {
				fanOut(k, live, func(t int) {
					for i := 0; i < total/live; i++ {
						// Sizes differ per task so completions spread over
						// distinct instants instead of one shared deadline.
						if f.Transfer(ctx, 2*t, 2*t+1, int64(1<<20+t<<10)) != nil {
							return
						}
					}
				})
			})
		}
	}
	out["netsim.probe_flow_ns_f16"] = med(flows(16)).ns
	out["netsim.probe_flow_ns_f256"] = med(flows(256)).ns

	out["trace.probe_record_ns"] = med(func() probeResult {
		const ops = 500_000
		r := trace.NewRecorder()
		res := timeOps(ops, func() {
			for i := 0; i < ops; i++ {
				r.Record(trace.Span{Start: time.Duration(i), End: time.Duration(i + 1), Stage: trace.StageTransform, Key: int64(i)})
			}
		})
		r.Reset()
		return res
	}).ns
	return out
}
