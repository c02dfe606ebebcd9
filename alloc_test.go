package minato

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
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

// TestSessionOpenAllocations pins what a session costs the allocator from
// open to close, counted per session over rounds of 32 concurrent ones: a
// dialed stream (Dial, drain, RemoteSession.Close) on a served 8-core
// cluster, and a local one (Cluster.Open, drain, Session.Close). The data
// path allocates nothing per sample, so the count is the session's own
// objects: the loader and its queues, the stream's client and server state,
// the facade's holders. Every round draws the same seeds; a warm-up round
// fills the process-wide free lists and shuffle cache first; the GC stays
// off so the sync.Pools keep what it left; the least of three rounds is
// what is pinned.
func TestSessionOpenAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a random quarter of what it is given")
	}
	const clients, batch, iterations = 32, 32, 8
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pl := flatPipeline(time.Millisecond)
	ds := allocDataset{n: 2048}

	perSession := func(round func()) float64 {
		round()
		per := math.Inf(1)
		for range 3 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			m0 := ms.Mallocs
			round()
			runtime.ReadMemStats(&ms)
			per = min(per, float64(ms.Mallocs-m0)/clients)
		}
		return per
	}

	t.Run("served", func(t *testing.T) {
		const maxPerStream = 55
		sn := NewServiceNet(nil, ServiceNetConfig{Endpoints: 8 + 4*clients})
		cl := serveCluster(t, sn)
		defer cl.Close()
		addr, err := Serve(cl, WithServiceNet(sn), Publish("train", ds, pl))
		if err != nil {
			t.Fatal(err)
		}
		defer addr.Close()
		sessions := make([]*RemoteSession, clients)
		per := perSession(func() {
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
		})
		t.Logf("%.1f allocations per dialed stream (pin %d)", per, maxPerStream)
		if per > maxPerStream {
			t.Errorf("%.1f allocations per dialed stream, want at most %d", per, maxPerStream)
		}
	})

	t.Run("local", func(t *testing.T) {
		const maxPerSession = 56
		cl, err := NewCluster(WithEnv(EnvConfig{Cores: 8, GPUs: 1}))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		sessions := make([]*Session, clients)
		per := perSession(func() {
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
		})
		t.Logf("%.1f allocations per opened session (pin %d)", per, maxPerSession)
		if per > maxPerSession {
			t.Errorf("%.1f allocations per opened session, want at most %d", per, maxPerSession)
		}
	})
}

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
