package service

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/netsim"
	"github.com/minatoloader/minato/internal/simtime"
)

// fakeStream is an in-order batch source with a fixed per-batch production
// cost in virtual time.
type fakeStream struct {
	rt        *simtime.Virtual
	pool      *data.Pool
	total     int
	batchSize int
	cost      time.Duration
	made      int
	closed    bool
}

func (f *fakeStream) Next(ctx context.Context) (*data.Batch, error) {
	if f.made >= f.total {
		return nil, io.EOF
	}
	if f.cost > 0 {
		if err := f.rt.Sleep(ctx, f.cost); err != nil {
			return nil, err
		}
	}
	b := f.pool.GetBatch(f.batchSize)
	for i := 0; i < f.batchSize; i++ {
		s := f.pool.Get()
		s.Index = f.made*f.batchSize + i
		s.RawBytes, s.Bytes = 1<<20, 1<<20
		b.Samples = append(b.Samples, s)
	}
	f.made++
	return b, nil
}

func (f *fakeStream) Total() int { return f.total }
func (f *fakeStream) Close()     { f.closed = true }

// fakeOpener publishes a single stream name ("train") backed by fakeStreams.
type fakeOpener struct {
	rt        *simtime.Virtual
	pool      *data.Pool
	total     int
	batchSize int
	cost      time.Duration

	mu      sync.Mutex
	streams []*fakeStream
}

func (o *fakeOpener) OpenStream(spec StreamSpec, weight float64) (Stream, error) {
	if spec.Name != "train" {
		return nil, ErrUnknownStream
	}
	st := &fakeStream{rt: o.rt, pool: o.pool, total: o.total, batchSize: o.batchSize, cost: o.cost}
	o.mu.Lock()
	o.streams = append(o.streams, st)
	o.mu.Unlock()
	return st, nil
}

type testRig struct {
	v    *simtime.Virtual
	net  *Net
	pool *data.Pool
}

func newRig(t *testing.T, cfg netsim.Config) *testRig {
	t.Helper()
	v := simtime.NewVirtual()
	return &testRig{v: v, net: NewNet(v, cfg), pool: data.NewPool()}
}

// startServer allocates an endpoint, registers it with the fleet, and
// starts a server on it.
func (r *testRig) startServer(t *testing.T, scfg ServerConfig, op Opener) *Server {
	t.Helper()
	ep, err := r.net.AllocEndpoint()
	if err != nil {
		t.Fatalf("AllocEndpoint: %v", err)
	}
	r.net.RegisterServer(ep)
	srv := NewServer(r.net, ep, scfg, op)
	r.v.Run(srv.Start) // spawning is for tasks
	return srv
}

// closeServer shuts srv down on a kernel task: Close parks until the
// server's tasks have finished, which only a task may do.
func (r *testRig) closeServer(srv *Server) (err error) {
	r.v.Run(func() { err = srv.Close() })
	return err
}

func (r *testRig) poolBalanced(t *testing.T) {
	t.Helper()
	ps := r.pool.Stats()
	if ps.Gets != ps.Puts {
		t.Fatalf("pool leak: gets=%d puts=%d", ps.Gets, ps.Puts)
	}
}

// consume drains a client's full stream, releasing every batch, and closes
// it. Must run on a tracked task.
func consume(ctx context.Context, t *testing.T, c *Client, perBatch time.Duration) int {
	t.Helper()
	n := 0
	for {
		b, err := c.Recv(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Errorf("Recv: %v", err)
			break
		}
		b.Release()
		n++
		if perBatch > 0 {
			_ = c.net.rt.Sleep(ctx, perBatch)
		}
	}
	if err := c.Close(ctx); err != nil {
		t.Errorf("Close: %v", err)
	}
	return n
}

func TestServeDeliveryInOrder(t *testing.T) {
	r := newRig(t, netsim.Config{Endpoints: 4})
	op := &fakeOpener{rt: r.v, pool: r.pool, total: 12, batchSize: 4, cost: time.Millisecond}
	srv := r.startServer(t, ServerConfig{}, op)

	r.v.Run(func() {
		ctx := context.Background()
		c, err := Open(ctx, r.net, srv.Endpoint(), -1, StreamSpec{Name: "train"}, ClientConfig{Window: 4})
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		if c.Total() != 12 {
			t.Errorf("Total = %d, want 12", c.Total())
		}
		if got := consume(ctx, t, c, 0); got != 12 {
			t.Errorf("delivered %d batches, want 12", got)
		}
		st := c.Stats()
		if st.Delivered != 12 || st.Hedges != 0 || st.Duplicates != 0 {
			t.Errorf("client stats = %+v", st)
		}
		if st.MaxOutstanding > 4 {
			t.Errorf("MaxOutstanding = %d exceeds window 4", st.MaxOutstanding)
		}
	})
	if err := r.closeServer(srv); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	r.poolBalanced(t)
	if op.streams[0].closed != true {
		t.Fatalf("backend stream not closed")
	}
	ss := srv.Stats()
	if ss.BatchesSent != 12 || ss.StreamsTotal != 1 || ss.StreamsActive != 0 {
		t.Fatalf("server stats = %+v", ss)
	}
}

func TestAdmissionRejections(t *testing.T) {
	r := newRig(t, netsim.Config{Endpoints: 8})
	op := &fakeOpener{rt: r.v, pool: r.pool, total: 4, batchSize: 2, cost: time.Millisecond}
	srv := r.startServer(t, ServerConfig{
		Tokens:     map[string]TokenQuota{"alice": {MaxStreams: 1}, "bob": {}},
		MaxStreams: 2,
	}, op)

	r.v.Run(func() {
		ctx := context.Background()
		if _, err := Open(ctx, r.net, srv.Endpoint(), -1,
			FrameSpec("train", "mallory"), ClientConfig{}); !errors.Is(err, ErrUnauthorized) {
			t.Errorf("bad token: err = %v, want ErrUnauthorized", err)
		}
		// Before the capacity slots fill: unknown names come from the opener.
		if _, err := Open(ctx, r.net, srv.Endpoint(), -1,
			FrameSpec("nosuch", "bob"), ClientConfig{}); !errors.Is(err, ErrUnknownStream) {
			t.Errorf("unknown stream: err = %v, want ErrUnknownStream", err)
		}
		alice, err := Open(ctx, r.net, srv.Endpoint(), -1, FrameSpec("train", "alice"), ClientConfig{})
		if err != nil {
			t.Errorf("alice open: %v", err)
			return
		}
		if _, err := Open(ctx, r.net, srv.Endpoint(), -1,
			FrameSpec("train", "alice"), ClientConfig{}); !errors.Is(err, ErrQuotaExceeded) {
			t.Errorf("quota: err = %v, want ErrQuotaExceeded", err)
		}
		bob, err := Open(ctx, r.net, srv.Endpoint(), -1, FrameSpec("train", "bob"), ClientConfig{})
		if err != nil {
			t.Errorf("bob open: %v", err)
			return
		}
		// Server-wide MaxStreams = 2, both slots held.
		if _, err := Open(ctx, r.net, srv.Endpoint(), -1,
			FrameSpec("train", "bob"), ClientConfig{}); !errors.Is(err, ErrServerOverloaded) {
			t.Errorf("capacity: err = %v, want ErrServerOverloaded", err)
		}
		consume(ctx, t, alice, 0)
		consume(ctx, t, bob, 0)
	})
	if err := r.closeServer(srv); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	ss := srv.Stats()
	if ss.RejectedUnauthorized != 1 || ss.RejectedQuota != 1 || ss.RejectedOverloaded != 1 || ss.RejectedUnknown != 1 {
		t.Fatalf("rejection counters = %+v", ss)
	}
	r.poolBalanced(t)
}

// FrameSpec is a test shorthand.
func FrameSpec(name, token string) StreamSpec { return StreamSpec{Name: name, Token: token} }

func TestOverloadRetryBackoff(t *testing.T) {
	r := newRig(t, netsim.Config{Endpoints: 8})
	op := &fakeOpener{rt: r.v, pool: r.pool, total: 2, batchSize: 2, cost: time.Millisecond}
	srv := r.startServer(t, ServerConfig{MaxStreams: 1}, op)

	r.v.Run(func() {
		ctx := context.Background()
		holder, err := Open(ctx, r.net, srv.Endpoint(), -1, StreamSpec{Name: "train"}, ClientConfig{})
		if err != nil {
			t.Errorf("holder open: %v", err)
			return
		}
		// No retries: immediate typed failure.
		if _, err := Open(ctx, r.net, srv.Endpoint(), -1, StreamSpec{Name: "train"},
			ClientConfig{Retries: 0}); !errors.Is(err, ErrServerOverloaded) {
			t.Errorf("no-retry open: err = %v, want ErrServerOverloaded", err)
		}
		// Two retries with 10ms base backoff: fails after >= 10+20ms of
		// virtual backoff while the slot stays held.
		before := r.v.Now()
		c, err := Open(ctx, r.net, srv.Endpoint(), -1, StreamSpec{Name: "train"},
			ClientConfig{Retries: 2, Backoff: 10 * time.Millisecond})
		if !errors.Is(err, ErrServerOverloaded) {
			t.Errorf("retry open: err = %v, want ErrServerOverloaded", err)
		}
		if waited := r.v.Now() - before; waited < 30*time.Millisecond {
			t.Errorf("retries waited %v of virtual time, want >= 30ms", waited)
		}
		_ = c
		consume(ctx, t, holder, 0)
		// Slot free again: open succeeds.
		c2, err := Open(ctx, r.net, srv.Endpoint(), -1, StreamSpec{Name: "train"}, ClientConfig{})
		if err != nil {
			t.Errorf("post-release open: %v", err)
			return
		}
		if got := consume(ctx, t, c2, 0); got != 2 {
			t.Errorf("post-release delivered %d, want 2", got)
		}
	})
	if err := r.closeServer(srv); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	r.poolBalanced(t)
}

// TestWindowViolationKill drives raw frames past the granted send window
// and expects the server to kill the stream with CodeOverloaded.
func TestWindowViolationKill(t *testing.T) {
	r := newRig(t, netsim.Config{Endpoints: 4})
	op := &fakeOpener{rt: r.v, pool: r.pool, total: 16, batchSize: 2, cost: 10 * time.Millisecond}
	srv := r.startServer(t, ServerConfig{SendWindow: 2}, op)

	r.v.Run(func() {
		ctx := context.Background()
		ep, err := r.net.AllocEndpoint()
		if err != nil {
			t.Errorf("AllocEndpoint: %v", err)
			return
		}
		inbox := r.net.Inbox(ep)
		if err := r.net.Send(ctx, srv.Endpoint(), Frame{Op: OpOpen, From: ep, Spec: StreamSpec{Name: "train"}}); err != nil {
			t.Errorf("open send: %v", err)
			return
		}
		rep, err := inbox.Get(ctx)
		if err != nil || rep.Code != CodeOK {
			t.Errorf("open reply = %+v, %v", rep, err)
			return
		}
		if rep.Window != 2 {
			t.Errorf("granted window = %d, want 2", rep.Window)
		}
		// The pump needs 10ms per batch; three quick REQs exceed pending=2.
		for seq := 0; seq < 3; seq++ {
			if err := r.net.Send(ctx, srv.Endpoint(), Frame{Op: OpReq, From: ep, Stream: rep.Stream, Seq: seq}); err != nil {
				t.Errorf("req %d: %v", seq, err)
				return
			}
		}
		for {
			fr, err := inbox.Get(ctx)
			if err != nil {
				t.Errorf("inbox: %v", err)
				return
			}
			if fr.Op == OpBatch {
				fr.Batch.Release()
				continue
			}
			if fr.Op == OpEnd {
				if fr.Code != CodeOverloaded {
					t.Errorf("END code = %d, want CodeOverloaded", fr.Code)
				}
				return
			}
		}
	})
	if err := r.closeServer(srv); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	r.poolBalanced(t)
	if ss := srv.Stats(); ss.StreamsActive != 0 || ss.MaxPending > 2 {
		t.Fatalf("server stats after kill = %+v", ss)
	}
}

func TestReqUnknownStream(t *testing.T) {
	r := newRig(t, netsim.Config{Endpoints: 4})
	op := &fakeOpener{rt: r.v, pool: r.pool, total: 1, batchSize: 1, cost: 0}
	srv := r.startServer(t, ServerConfig{}, op)

	r.v.Run(func() {
		ctx := context.Background()
		ep, _ := r.net.AllocEndpoint()
		if err := r.net.Send(ctx, srv.Endpoint(), Frame{Op: OpReq, From: ep, Stream: 424242, Seq: 0}); err != nil {
			t.Errorf("req send: %v", err)
			return
		}
		fr, err := r.net.Inbox(ep).Get(ctx)
		if err != nil || fr.Op != OpEnd || fr.Code != CodeUnknownStream {
			t.Errorf("reply = %+v, %v; want END CodeUnknownStream", fr, err)
		}
	})
	if err := r.closeServer(srv); err != nil {
		t.Fatalf("server Close: %v", err)
	}
}

// hedgeScenario runs one degraded-primary + fast-replica client and
// returns its stats plus a determinism fingerprint.
type hedgeResult struct {
	delivered int
	hedges    int64
	dups      int64
	waitP99   time.Duration
	now       time.Duration
	bytes     int64
	flows     int64
}

func runHedgeScenario(t *testing.T, hedge time.Duration) hedgeResult {
	t.Helper()
	r := newRig(t, netsim.Config{Endpoints: 8})
	slow := &fakeOpener{rt: r.v, pool: r.pool, total: 8, batchSize: 2, cost: 40 * time.Millisecond}
	fast := &fakeOpener{rt: r.v, pool: r.pool, total: 8, batchSize: 2, cost: time.Millisecond}
	primary := r.startServer(t, ServerConfig{}, slow)
	replica := r.startServer(t, ServerConfig{}, fast)

	var res hedgeResult
	r.v.Run(func() {
		ctx := context.Background()
		c, err := Open(ctx, r.net, primary.Endpoint(), replica.Endpoint(), StreamSpec{Name: "train"},
			ClientConfig{Window: 2, HedgeDelay: hedge})
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		res.delivered = consume(ctx, t, c, 0)
		st := c.Stats()
		res.hedges, res.dups, res.waitP99 = st.Hedges, st.Duplicates, st.WaitP99
	})
	if err := r.closeServer(primary); err != nil {
		t.Fatalf("primary Close: %v", err)
	}
	if err := r.closeServer(replica); err != nil {
		t.Fatalf("replica Close: %v", err)
	}
	r.poolBalanced(t)
	res.now = r.v.Now()
	res.bytes = r.net.BytesMoved()
	res.flows = r.net.FlowsCompleted()
	return res
}

func TestHedgeOneWinnerNoLeak(t *testing.T) {
	res := runHedgeScenario(t, 5*time.Millisecond)
	if res.delivered != 8 {
		t.Fatalf("delivered %d, want 8", res.delivered)
	}
	if res.hedges == 0 {
		t.Fatalf("expected hedged requests against the degraded primary, got none")
	}
}

func TestHedgeReducesTailLatency(t *testing.T) {
	hedged := runHedgeScenario(t, 5*time.Millisecond)
	unhedged := runHedgeScenario(t, 0)
	if unhedged.hedges != 0 {
		t.Fatalf("unhedged run fired %d hedges", unhedged.hedges)
	}
	if hedged.waitP99 >= unhedged.waitP99 {
		t.Fatalf("hedged p99 %v not below unhedged p99 %v", hedged.waitP99, unhedged.waitP99)
	}
}

func TestHedgeDeterministic(t *testing.T) {
	a := runHedgeScenario(t, 5*time.Millisecond)
	b := runHedgeScenario(t, 5*time.Millisecond)
	if a != b {
		t.Fatalf("hedge scenario not bit-identical:\n  run1 = %+v\n  run2 = %+v", a, b)
	}
}

func TestBackpressureBoundedWindow(t *testing.T) {
	r := newRig(t, netsim.Config{Endpoints: 4})
	op := &fakeOpener{rt: r.v, pool: r.pool, total: 10, batchSize: 2, cost: time.Millisecond}
	srv := r.startServer(t, ServerConfig{SendWindow: 3}, op)

	r.v.Run(func() {
		ctx := context.Background()
		// The client asks for a deep window; the server grants only 3. A
		// slow consumer makes the producer run ahead as far as it is allowed.
		c, err := Open(ctx, r.net, srv.Endpoint(), -1, StreamSpec{Name: "train"}, ClientConfig{Window: 8})
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		if got := consume(ctx, t, c, 5*time.Millisecond); got != 10 {
			t.Errorf("delivered %d, want 10", got)
		}
		if st := c.Stats(); st.MaxOutstanding > 3 {
			t.Errorf("MaxOutstanding = %d exceeds granted window 3", st.MaxOutstanding)
		}
	})
	if err := r.closeServer(srv); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	if ss := srv.Stats(); ss.MaxPending > 3 {
		t.Fatalf("server MaxPending = %d exceeds send window 3", ss.MaxPending)
	}
	r.poolBalanced(t)
}

// TestConcurrentClientsHammer runs many clients against one server in one
// kernel — the -race exercise for dispatch/pump/client interleavings.
func TestConcurrentClientsHammer(t *testing.T) {
	const clients = 8
	r := newRig(t, netsim.Config{Endpoints: clients + 2})
	op := &fakeOpener{rt: r.v, pool: r.pool, total: 6, batchSize: 2, cost: 2 * time.Millisecond}
	srv := r.startServer(t, ServerConfig{SendWindow: 4}, op)

	delivered := make([]int, clients)
	r.v.Run(func() {
		ctx := context.Background()
		wg := simtime.NewWaitGroup(r.v)
		for i := 0; i < clients; i++ {
			i := i
			wg.Go("hammer-client", func() {
				c, err := Open(ctx, r.net, srv.Endpoint(), -1, StreamSpec{Name: "train"}, ClientConfig{Window: 3})
				if err != nil {
					t.Errorf("client %d open: %v", i, err)
					return
				}
				delivered[i] = consume(ctx, t, c, time.Duration(i)*time.Millisecond)
			})
		}
		if err := wg.Wait(ctx); err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	if err := r.closeServer(srv); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	for i, n := range delivered {
		if n != 6 {
			t.Fatalf("client %d delivered %d, want 6", i, n)
		}
	}
	if ss := srv.Stats(); ss.StreamsTotal != clients || ss.BatchesSent != clients*6 {
		t.Fatalf("server stats = %+v", ss)
	}
	r.poolBalanced(t)
}
