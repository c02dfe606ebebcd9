package minato

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/service"
	"github.com/minatoloader/minato/internal/simtime"
)

// allocDataset fills pooled samples in place (FillSample), so a stream
// over it allocates nothing per sample and what a session costs shows.
type allocDataset struct{ n int }

func (d allocDataset) Name() string { return "alloc-pin" }
func (d allocDataset) Len() int     { return d.n }
func (d allocDataset) Sample(epoch, i int) *Sample {
	s := &Sample{}
	d.FillSample(epoch, i, s)
	return s
}
func (d allocDataset) FillSample(epoch, i int, s *Sample) {
	s.Index, s.Epoch = i, epoch
	s.Key = Key{Space: "alloc-pin", Index: int64(i)}
	s.RawBytes, s.Bytes = 1<<20, 1<<20
}

// servedClient is one dialed client of a served round: the session, and
// what its Close and Stats returned, with a copy of the report as Close
// returned it.
type servedClient struct {
	rs     *RemoteSession
	rep    *Report
	closed Report
	stats  RemoteStats
}

// servedRound is one whole served run, the benchmark's serve shape at the
// given client count: a fabric, a cluster and a server of its own; clients
// dialed with seeds seed, seed+1, ..., in waves that each dial, drain side
// by side and close before the next dials; the server and the cluster
// closed. A stream's server-side shell is recycled when the stream ends, so
// a later wave's streams run on the shells of an earlier one's. Each
// client's final batch goes to keep when it is non-nil, instead of being
// released.
func servedRound(seed uint64, clients, waves int, keep func(*Batch)) ([]servedClient, *Cluster, error) {
	sn := NewServiceNet(nil, ServiceNetConfig{Endpoints: 8 + 4*clients})
	cl, err := NewCluster(WithRuntime(sn.Runtime()), WithEnv(EnvConfig{Cores: 8, GPUs: 1}))
	if err != nil {
		return nil, nil, err
	}
	addr, err := Serve(cl, WithServiceNet(sn),
		Publish("train", allocDataset{n: 2048}, flatPipeline(time.Millisecond)))
	if err != nil {
		return nil, nil, err
	}
	out := make([]servedClient, clients)
	errs := make([]error, clients)
	per := clients / waves
	for w := 0; w < clients; w += per {
		sessions := make([]*RemoteSession, per)
		for i := range sessions {
			if sessions[i], err = Dial(addr, WithBatchSize(32), WithIterations(8),
				WithSeed(seed+uint64(w+i)), WithPrefetch(4)); err != nil {
				return nil, nil, err
			}
		}
		StreamAll(context.Background(), sessions, func(i int, rs *RemoteSession) {
			n := 0
			var last *Batch
			for b, err := range rs.Batches(context.Background()) {
				if err != nil {
					errs[w+i] = err
					return
				}
				n, last = n+1, b
			}
			if n != 8 {
				errs[w+i] = fmt.Errorf("client %d: delivered %d batches, want 8", w+i, n)
			}
			if keep != nil {
				keep(last)
			} else {
				last.Release()
			}
		})
		for i, rs := range sessions {
			c := &out[w+i]
			c.rs, c.stats = rs, rs.Stats()
			if c.rep, err = rs.Close(); err != nil {
				return nil, nil, err
			}
			c.closed = *c.rep
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	addr.Close()
	cl.Close()
	return out, cl, nil
}

// TestSessionOpenAllocations pins what a session costs the allocator from
// open to close, counted per session over rounds of 32 concurrent ones: a
// dialed stream (Dial, drain, RemoteSession.Close) on a long-lived served
// 8-core cluster, the same over a whole served run (servedRound: fabric,
// cluster, server and their teardown, a 32nd of which each stream carries),
// and a local one (Cluster.Open, drain, Session.Close). The data path
// allocates nothing per sample, so the count is the session's own objects:
// the loader and its queues, the stream's client and server state, the
// facade's holders. A stream's storage is recycled when the stream ends —
// server side its session, loader and rings, client side its client shell
// and its endpoint's inbox ring — so a later stream of any server, the same
// one included, reuses it. The dialed streams pin their bytes too: a client
// shell and an inbox ring are most of a fresh stream's bytes. Every round
// draws the same seeds; a warm-up round fills the process-wide free lists
// and shuffle cache first; the least of three rounds is what is pinned. The
// GC stays off, except in served-run-gc: the free lists are stocks the GC
// never empties, so two forced collections before each round change nothing.
func TestSessionOpenAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector adds about one allocation per stream")
	}
	const clients, batch, iterations = 32, 32, 8
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pl := flatPipeline(time.Millisecond)
	ds := allocDataset{n: 2048}

	// perSession returns the least objects and bytes per session of three
	// measured rounds, after a warm-up one; with gc, two forced collections
	// precede each measured round.
	perSession := func(round func(), gc bool) (objects, bytes float64) {
		round()
		objects, bytes = math.Inf(1), math.Inf(1)
		for range 3 {
			if gc {
				runtime.GC()
				runtime.GC()
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			m0, b0 := ms.Mallocs, ms.TotalAlloc
			round()
			runtime.ReadMemStats(&ms)
			objects = min(objects, float64(ms.Mallocs-m0)/clients)
			bytes = min(bytes, float64(ms.TotalAlloc-b0)/clients)
		}
		return objects, bytes
	}
	// pin checks a dialed stream's counts against its object and byte pins.
	pin := func(t *testing.T, what string, objects, bytes float64, maxObjects, maxBytes float64) {
		t.Logf("%.1f allocations and %.0f bytes per dialed stream%s (pins %.0f, %.0f)", objects, bytes, what, maxObjects, maxBytes)
		if objects > maxObjects {
			t.Errorf("%.1f allocations per dialed stream%s, want at most %.0f", objects, what, maxObjects)
		}
		if bytes > maxBytes {
			t.Errorf("%.0f bytes per dialed stream%s, want at most %.0f", bytes, what, maxBytes)
		}
	}

	t.Run("served", func(t *testing.T) {
		sn := NewServiceNet(nil, ServiceNetConfig{Endpoints: 8 + 4*clients})
		cl := serveCluster(t, sn)
		defer cl.Close()
		addr, err := Serve(cl, WithServiceNet(sn), Publish("train", ds, pl))
		if err != nil {
			t.Fatal(err)
		}
		defer addr.Close()
		sessions := make([]*RemoteSession, clients)
		objects, bytes := perSession(func() {
			for i := range sessions {
				if sessions[i], err = Dial(addr, WithBatchSize(batch), WithIterations(iterations),
					WithSeed(uint64(i+1)), WithPrefetch(4)); err != nil {
					t.Fatal(err)
				}
			}
			StreamAll(context.Background(), sessions, func(_ int, rs *RemoteSession) {
				if n := drainRemote(t, rs); n != iterations {
					t.Errorf("delivered %d batches, want %d", n, iterations)
				}
			})
			for _, rs := range sessions {
				if _, err := rs.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}, false)
		pin(t, "", objects, bytes, 9, 2048)
	})

	// servedRun is one whole served run, failing t.
	servedRun := func(t *testing.T) func() {
		return func() {
			if _, _, err := servedRound(1, clients, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("served-run", func(t *testing.T) {
		objects, bytes := perSession(servedRun(t), false)
		pin(t, " of a whole served run", objects, bytes, servedRunObjects, servedRunBytes)
	})
	t.Run("served-run-gc", func(t *testing.T) {
		defer debug.SetGCPercent(debug.SetGCPercent(100))
		objects, bytes := perSession(servedRun(t), true)
		pin(t, " of a whole served run after two collections", objects, bytes, servedRunObjects, servedRunBytes)
	})

	t.Run("local", func(t *testing.T) {
		const maxPerSession = 56
		cl, err := NewCluster(WithEnv(EnvConfig{Cores: 8, GPUs: 1}))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		sessions := make([]*Session, clients)
		per, _ := perSession(func() {
			for i := range sessions {
				if sessions[i], err = cl.Open(ds, WithPipeline(pl), WithBatchSize(batch),
					WithIterations(iterations), WithSeed(uint64(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			StreamAll(context.Background(), sessions, func(_ int, s *Session) {
				n := 0
				var last *Batch
				for b, err := range s.Batches(context.Background()) {
					if err != nil {
						t.Error(err)
						return
					}
					n, last = n+1, b
				}
				if last != nil {
					last.Release()
				}
				if n != iterations {
					t.Errorf("delivered %d batches, want %d", n, iterations)
				}
			})
			for _, s := range sessions {
				if _, err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}, false)
		t.Logf("%.1f allocations per opened session (pin %d)", per, maxPerSession)
		if per > maxPerSession {
			t.Errorf("%.1f allocations per opened session, want at most %d", per, maxPerSession)
		}
	})
}

// The pins of a dialed stream's share of a whole served run, with the GC off
// and after forced collections alike.
const servedRunObjects, servedRunBytes = 15, 8192

func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// chaosEightNodes is the 8-node job under a worker stall, a disk brownout
// and a link flap, at the given steps.
func chaosEightNodes(seed uint64, steps int) (Workload, []Option) {
	return SpeechWorkload(seed, 3*time.Second).WithIterations(steps),
		[]Option{WithNodes(8), WithGPUs(1), WithChaos(ComposeChaos("flashcrowd",
			StallWorkers(0, 5*time.Second, 2, 5*time.Second),
			BrownoutDisk(5*time.Second, 8, 10*time.Second),
			FlapLink(2, 6*time.Second, 8, 6*time.Second)))}
}

// TestRunAllocations pins what one warm training run costs the allocator,
// for these shapes: a minato run on a 4-GPU and on a 64-GPU machine, a
// pytorch and a dali run on 4 GPUs, and the 8-node job under a worker stall,
// a disk brownout and a link flap. A baseline's steppers live inside its
// loader, so one that allocated per task or per park would fail its row. A
// run's storage — device entries, fabric flows, cache flights, the kernel's
// queues, a one-machine run's MinatoLoader with its lanes and queue rings —
// comes from what the run before it recycled at teardown, so the count is
// the run's own objects: the multi-node job's loaders and their queues, its
// tasks' closures, its report. Warm-up runs fill the process-wide free lists
// first; the GC stays off; the least of three runs is what is pinned.
func TestRunAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector adds allocations of its own")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	speech := SpeechWorkload(1, 3*time.Second)
	chaosW, chaosOpts := chaosEightNodes(1, 10)
	for _, c := range []struct {
		name string
		w    Workload
		opts []Option
		pin  float64
	}{
		{"minato-4gpu", speech.WithIterations(100),
			[]Option{WithLoader("minato"), WithHardware(ConfigA())}, 59},
		{"minato-64gpu", speech.WithIterations(64 * 5),
			[]Option{WithLoader("minato"), WithHardware(ConfigA().WithGPUs(64))}, 239},
		{"pytorch-4gpu", speech.WithIterations(100),
			[]Option{WithLoader("pytorch"), WithHardware(ConfigA())}, 130}, // 126, or 128 when its reorder map's seed overflows a bucket
		{"dali-4gpu", speech.WithIterations(100),
			[]Option{WithLoader("dali"), WithHardware(ConfigA())}, 100},
		{"multinode8-chaos", chaosW, chaosOpts, 340},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func() {
				if _, err := Train(c.w, c.opts...); err != nil {
					t.Fatal(err)
				}
			}
			run()
			run()
			per := math.Inf(1)
			for range 3 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				m0 := ms.Mallocs
				run()
				runtime.ReadMemStats(&ms)
				per = min(per, float64(ms.Mallocs-m0))
			}
			t.Logf("%.0f allocations per run (pin %.0f)", per, c.pin)
			if per > c.pin {
				t.Errorf("%.0f allocations per run, want at most %.0f", per, c.pin)
			}
		})
	}
}

// TestSharedPoolsConcurrentRuns: two goroutines run back to back, each on
// the kernels its own runs own, with different seeds, so both draw from and
// recycle into the same process-wide pools at once. Every result equals the
// one the same run gave alone: storage one run recycled is never handed to
// another that is still live. Its proof is the race detector.
func TestSharedPoolsConcurrentRuns(t *testing.T) {
	seeds := []uint64{1, 2}
	// concurrently runs rounds(seed) three times in each of two goroutines.
	concurrently := func(round func(seed uint64, n int)) {
		var wg sync.WaitGroup
		for _, seed := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := range 3 {
					round(seed, n)
				}
			}()
		}
		wg.Wait()
	}

	// Training runs: a 4-GPU machine and 8 nodes under chaos.
	t.Run("train", func(t *testing.T) {
		type run struct {
			w    Workload
			opts []Option
		}
		runs := func(seed uint64) []run {
			chaosW, chaosOpts := chaosEightNodes(seed, 4)
			return []run{
				{SpeechWorkload(seed, 3*time.Second).WithIterations(40), []Option{WithHardware(ConfigA())}},
				{chaosW, chaosOpts},
			}
		}
		train := func(r run) *Report {
			rep, err := Train(r.w, r.opts...)
			if err != nil {
				t.Error(err)
			}
			return rep
		}
		solo := map[uint64][]*Report{}
		for _, seed := range seeds {
			for _, r := range runs(seed) {
				solo[seed] = append(solo[seed], train(r))
			}
		}
		concurrently(func(seed uint64, round int) {
			for i, r := range runs(seed) {
				if rep := train(r); !reflect.DeepEqual(rep, solo[seed][i]) {
					t.Errorf("seed %d, round %d, run %d: the report differs from the run's solo report", seed, round, i)
				}
			}
		})
	})

	// Served runs: each a fabric, cluster and server of its own with 32
	// dialed clients, in one wave and in two. Their server-side sessions,
	// loaders and rings, and their client shells and inbox rings, come from
	// the storage that streams ended before them recycled: an earlier run's,
	// on another net, or in the two-wave run the first wave's on the same
	// net. A closed RemoteSession's Stats and Report stay what they were
	// after later streams reuse its stream's state, its client's included.
	t.Run("served", func(t *testing.T) {
		const clients = 32
		waves := []int{1, 2}
		solo := map[uint64][][]servedClient{}
		for _, seed := range seeds {
			for _, w := range waves {
				got, _, err := servedRound(100*seed, clients, w, nil)
				if err != nil {
					t.Fatal(err)
				}
				solo[seed] = append(solo[seed], got)
			}
		}
		concurrently(func(seed uint64, round int) {
			for j, w := range waves {
				got, _, err := servedRound(100*seed, clients, w, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for i, c := range got {
					want := solo[seed][j][i]
					if !reflect.DeepEqual(c.rep, want.rep) || !reflect.DeepEqual(c.stats, want.stats) {
						t.Errorf("seed %d, round %d, %d waves, client %d: the report or stats differ from the solo run's", seed, round, w, i)
					}
				}
			}
		})
		for _, seed := range seeds {
			for _, run := range solo[seed] {
				for i, c := range run {
					if st := c.rs.Stats(); !reflect.DeepEqual(st, c.stats) {
						t.Errorf("seed %d, client %d: a closed session's Stats changed after later runs: %+v, was %+v", seed, i, st, c.stats)
					}
					if !reflect.DeepEqual(*c.rep, c.closed) {
						t.Errorf("seed %d, client %d: a closed session's Report changed after later runs: %+v, was %+v", seed, i, *c.rep, c.closed)
					}
					if rep, err := c.rs.Close(); err != nil || !reflect.DeepEqual(*rep, c.closed) {
						t.Errorf("seed %d, client %d: Close again after later runs: %+v, %v; want %+v", seed, i, rep, err, c.closed)
					}
				}
			}
		}
	})
}

// TestServedLateFrameDropped: a frame that finishes its transfer to the
// endpoint of a client that has closed is dropped and its batch released,
// although the closed client's inbox ring already serves the client dialed
// after it. That client streams its budget with no stray frame among its
// own, and the pool balances.
func TestServedLateFrameDropped(t *testing.T) {
	ctx := context.Background()
	sn := NewServiceNet(nil, ServiceNetConfig{Endpoints: 8})
	cl := serveCluster(t, sn)
	addr, err := Serve(cl, WithServiceNet(sn), Publish("train", allocDataset{n: 256}, flatPipeline(time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *RemoteSession {
		rs, err := Dial(addr, WithBatchSize(8), WithIterations(4))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	first := dial()
	gone := first.cli.Endpoint()
	drainRemote(t, first)
	if _, err := first.Close(); err != nil {
		t.Fatal(err)
	}
	// The next client's endpoint takes the ring the first one's hung up.
	next := dial()
	var sendErr error
	StreamAll(ctx, []*RemoteSession{next}, func(_ int, rs *RemoteSession) {
		k := sn.rt.k
		b := cl.pool.GetBatch(1)
		b.Samples = append(b.Samples, cl.pool.Get())
		wg := simtime.NewWaitGroup(k)
		// In flight while the next client streams: a megabyte takes a while.
		wg.Go("late-frame", func() {
			sendErr = sn.net.Send(ctx, gone, service.Frame{Op: service.OpBatch, From: addr.ep, Batch: b, Bytes: 1 << 20})
		})
		if n := drainRemote(t, rs); n != 4 {
			t.Errorf("the next client delivered %d batches, want 4", n)
		}
		_ = wg.Wait(ctx)
	})
	if sendErr == nil {
		t.Error("a frame to a hung-up endpoint was delivered")
	}
	var queued int
	sn.rt.k.Do(func() { queued = sn.net.Inbox(gone).Len() })
	if queued != 0 {
		t.Errorf("the hung-up endpoint's inbox holds %d frames", queued)
	}
	if st := next.Stats(); st.Delivered != 4 || st.Duplicates != 0 {
		t.Errorf("the next client: %+v; want 4 delivered and no stray batch", st)
	}
	if _, err := next.Close(); err != nil {
		t.Fatal(err)
	}
	addr.Close()
	cl.Close()
	if st := cl.Stats().Pool; st.Gets != st.Puts {
		t.Errorf("pool gets %d != puts %d: the dropped frame's batch was not released", st.Gets, st.Puts)
	}
}

// TestServedSamplesSurviveGC: a served run draws its samples from free lists
// the GC never empties. After a warm run and two forced collections, a
// 32-client served run takes every sample it uses from storage that an
// earlier run released: no Get allocates a fresh one.
func TestServedSamplesSurviveGC(t *testing.T) {
	if _, _, err := servedRound(1, 32, 1, nil); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	_, cl, err := servedRound(1, 32, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := cl.Stats().Pool
	t.Logf("pool after a GC: %+v", st)
	if st.Gets == 0 || st.Reuses != st.Gets {
		t.Errorf("%d of %d sample gets reused one an earlier run released, want all", st.Reuses, st.Gets)
	}
	if st.Puts != st.Gets {
		t.Errorf("pool gets %d != puts %d after Close", st.Gets, st.Puts)
	}
}

// TestServedLateReleaseAfterTeardown: a consumer may keep its final batch
// past its server's and cluster's Close and release it later. Until then its
// samples stay its own — live at the generation they were delivered at,
// though later runs recycle what the teardown handed back — and the release
// balances the pool.
func TestServedLateReleaseAfterTeardown(t *testing.T) {
	type held struct {
		s   *Sample
		gen uint32
	}
	var batches []*Batch
	var samples []held
	_, cl, err := servedRound(1, 8, 1, func(b *Batch) {
		batches = append(batches, b)
		for _, s := range b.Samples {
			samples = append(samples, held{s, s.Generation()})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 8 {
		t.Fatalf("kept %d final batches, want 8", len(batches))
	}
	// Later runs draw from the stocks the teardown filled.
	for seed := uint64(2); seed < 4; seed++ {
		if _, _, err := servedRound(seed, 8, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range samples {
		h.s.AssertOwned(h.gen)
	}
	for _, b := range batches {
		b.Release()
	}
	if st := cl.Stats().Pool; st.Gets != st.Puts {
		t.Errorf("after the late release: pool gets %d != puts %d", st.Gets, st.Puts)
	}
}
