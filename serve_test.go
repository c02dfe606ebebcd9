package minato

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// serveDataset is a fat-sample dataset for service tests: 1 MiB samples
// make network transfer time visible against the virtual clock.
type serveDataset struct {
	space string
	n     int
}

func (d serveDataset) Name() string { return d.space }
func (d serveDataset) Len() int     { return d.n }
func (d serveDataset) Sample(epoch, i int) *Sample {
	return &Sample{
		Index: i, Epoch: epoch,
		Key:      Key{Space: d.space, Index: int64(i)},
		RawBytes: 1 << 20, Bytes: 1 << 20,
	}
}

// serveCluster builds a one-GPU cluster on the fabric's runtime — the
// standard backing for a preprocessing server in these tests.
func serveCluster(t *testing.T, sn *ServiceNet, opts ...Option) *Cluster {
	t.Helper()
	opts = append([]Option{
		WithRuntime(sn.Runtime()),
		WithEnv(EnvConfig{Cores: 8, GPUs: 1}),
	}, opts...)
	cl, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func drainRemote(t *testing.T, rs *RemoteSession) int {
	t.Helper()
	n := 0
	var last *Batch
	for b, err := range rs.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		last = b
	}
	// The final batch is consumer-owned (never auto-recycled); release it
	// so pool-balance assertions see every sample returned.
	if last != nil {
		last.Release()
	}
	return n
}

func TestServeDialBasic(t *testing.T) {
	sn := NewServiceNet(nil, ServiceNetConfig{})
	cl := serveCluster(t, sn)
	defer cl.Close()
	addr, err := Serve(cl,
		WithServiceNet(sn),
		Publish("train", namedDataset{space: "serve-basic", n: 256}, flatPipeline(time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer addr.Close()

	rs, err := Dial(addr, WithBatchSize(8), WithIterations(12))
	if err != nil {
		t.Fatal(err)
	}
	if n := drainRemote(t, rs); n != 12 {
		t.Fatalf("delivered %d batches, want 12", n)
	}
	rep, err := rs.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 12 || rep.Samples != 96 || rep.Loader != "remote" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.TrainTime <= 0 || rep.StepP99 <= 0 {
		t.Fatalf("no virtual time elapsed: train=%v p99=%v", rep.TrainTime, rep.StepP99)
	}
	st := addr.Stats()
	if st.BatchesSent != 12 || st.StreamsTotal != 1 || st.StreamsActive != 0 {
		t.Fatalf("server stats = %+v", st)
	}
	if ns := sn.Stats(); ns.BytesMoved == 0 || ns.FlowsCompleted == 0 {
		t.Fatalf("no fabric traffic recorded: %+v", ns)
	}
	if err := addr.Close(); err != nil {
		t.Fatal(err)
	}
	if ps := cl.pool.Stats(); ps.Gets != ps.Puts {
		t.Fatalf("pool leak: %+v", ps)
	}
}

// TestRemoteSessionConcurrentClose: Close is idempotent from any number of
// goroutines at once. Every call returns the report and error the first one
// took, and under the race detector no call reads what another writes.
func TestRemoteSessionConcurrentClose(t *testing.T) {
	sn := NewServiceNet(nil, ServiceNetConfig{})
	cl := serveCluster(t, sn)
	defer cl.Close()
	addr, err := Serve(cl,
		WithServiceNet(sn),
		Publish("train", namedDataset{space: "serve-close", n: 256}, flatPipeline(time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer addr.Close()
	rs, err := Dial(addr, WithBatchSize(8), WithIterations(12))
	if err != nil {
		t.Fatal(err)
	}
	if n := drainRemote(t, rs); n != 12 {
		t.Fatalf("delivered %d batches, want 12", n)
	}
	const callers = 4
	reps := make([]*Report, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = rs.Close()
		}()
	}
	wg.Wait()
	for i := range callers {
		if errs[i] != nil {
			t.Fatalf("Close %d: %v", i, errs[i])
		}
		if reps[i] == reps[0] && i > 0 {
			t.Fatalf("Close %d returned the report of Close 0, not a copy", i)
		}
		if !reflect.DeepEqual(reps[i], reps[0]) {
			t.Errorf("Close %d returned %+v, Close 0 %+v", i, reps[i], reps[0])
		}
	}
	if reps[0].Batches != 12 {
		t.Errorf("report counts %d batches, want 12", reps[0].Batches)
	}
}

// TestServeTypedRejections exercises the typed error taxonomy end to end:
// auth, per-token quota, unknown stream, and server-wide capacity.
func TestServeTypedRejections(t *testing.T) {
	sn := NewServiceNet(nil, ServiceNetConfig{})
	cl := serveCluster(t, sn)
	defer cl.Close()
	addr, err := Serve(cl,
		WithServiceNet(sn),
		WithToken("alice", TokenQuota{MaxStreams: 1}),
		WithToken("bob", TokenQuota{}),
		WithServerMaxStreams(2),
		Publish("train", namedDataset{space: "serve-rej", n: 256}, flatPipeline(time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer addr.Close()

	if _, err := Dial(addr, WithAuthToken("mallory")); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("bad token: got %v, want ErrUnauthorized", err)
	}
	var ce *ConfigError
	if _, err := Dial(addr, WithAuthToken("alice"), WithStream("nope")); !errors.As(err, &ce) || ce.Option != "WithStream" {
		t.Fatalf("unknown stream: got %v, want *ConfigError{WithStream}", err)
	}
	a1, err := Dial(addr, WithAuthToken("alice"), WithIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr, WithAuthToken("alice")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota: got %v, want ErrQuotaExceeded", err)
	}
	b1, err := Dial(addr, WithAuthToken("bob"), WithIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr, WithAuthToken("bob")); !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("capacity: got %v, want ErrServerOverloaded", err)
	}
	drainRemote(t, a1)
	drainRemote(t, b1)
	if _, err := a1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	st := addr.Stats()
	if st.RejectedUnauthorized != 1 || st.RejectedQuota != 1 || st.RejectedOverloaded != 1 {
		t.Fatalf("rejection counters = %+v", st)
	}
}

func TestDialRetryBackoff(t *testing.T) {
	sn := NewServiceNet(nil, ServiceNetConfig{})
	cl := serveCluster(t, sn)
	defer cl.Close()
	addr, err := Serve(cl,
		WithServiceNet(sn),
		WithServerMaxStreams(1),
		Publish("train", namedDataset{space: "serve-retry", n: 256}, flatPipeline(time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer addr.Close()

	holder, err := Dial(addr, WithIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	before := sn.Runtime().Now()
	if _, err := Dial(addr); !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("fail-fast dial: got %v", err)
	}
	fast := sn.Runtime().Now() - before

	before = sn.Runtime().Now()
	if _, err := Dial(addr, WithDialRetry(2, 10*time.Millisecond)); !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("retried dial: got %v", err)
	}
	// Two retries back off 10ms then 20ms of virtual time.
	if waited := sn.Runtime().Now() - before; waited < 30*time.Millisecond+fast {
		t.Fatalf("retries waited only %v (fail-fast cost %v)", waited, fast)
	}

	drainRemote(t, holder)
	if _, err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := Dial(addr, WithIterations(2))
	if err != nil {
		t.Fatalf("dial after slot freed: %v", err)
	}
	drainRemote(t, rs)
	rs.Close()
}

// TestRemoteBackpressure pins the bounded send window: a slow consumer
// with a deep prefetch never has more REQs in flight than the server's
// window, on either side's accounting.
func TestRemoteBackpressure(t *testing.T) {
	sn := NewServiceNet(nil, ServiceNetConfig{})
	cl := serveCluster(t, sn)
	defer cl.Close()
	addr, err := Serve(cl,
		WithServiceNet(sn),
		WithSendWindow(3),
		Publish("train", namedDataset{space: "serve-bp", n: 256}, flatPipeline(time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer addr.Close()

	rs, err := Dial(addr, WithPrefetch(8), WithBatchSize(8), WithIterations(10))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n := 0
	for _, err := range rs.Batches(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		// A slow consumer: the server fills its window and must hold.
		_ = sn.rt.k.Sleep(ctx, 20*time.Millisecond)
	}
	if n != 10 {
		t.Fatalf("delivered %d, want 10", n)
	}
	if got := rs.Stats().MaxOutstanding; got > 3 {
		t.Fatalf("client window high-water %d > granted 3", got)
	}
	if got := addr.Stats().MaxPending; got > 3 {
		t.Fatalf("server window high-water %d > configured 3", got)
	}
	rs.Close()
}

// hedgeFingerprint is everything a hedged topology run produces that must
// be bit-identical across repeats: every client-observable quantity —
// deliveries, hedge/duplicate counters, wait percentiles, the stream's
// span on the virtual clock, and the fabric totals. The instant the
// kernel fully quiesces after teardown is deliberately not in here:
// closing a hedged client cancels the slow primary's loader mid-flight,
// and whether a worker already at its wake boundary squeezes in one last
// sample before observing the stop is an OS-thread race that shifts the
// quiesce point by a few work quanta without touching anything a client
// can measure.
type hedgeFingerprint struct {
	delivered int
	hedges    int64
	dups      int64
	waitP99   time.Duration
	span      time.Duration
	netBytes  int64
	netFlows  int64
}

// runHedgeTopology runs one slow-primary / fast-replica topology and
// returns its fingerprint. With hedge=false the client rides the slow
// primary alone.
func runHedgeTopology(t *testing.T, hedge bool) hedgeFingerprint {
	t.Helper()
	sn := NewServiceNet(nil, ServiceNetConfig{})
	slow := serveCluster(t, sn)
	defer slow.Close()
	fast := serveCluster(t, sn)
	defer fast.Close()

	// The primary's pipeline is 40× slower than the replica's: every
	// head-of-line batch stalls past the hedge delay.
	primary, err := Serve(slow, WithServiceNet(sn),
		Publish("train", namedDataset{space: "serve-hedge", n: 256}, flatPipeline(40*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, err := Serve(fast, WithServiceNet(sn),
		Publish("train", namedDataset{space: "serve-hedge", n: 256}, flatPipeline(time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	opts := []Option{WithBatchSize(4), WithIterations(8), WithPrefetch(2)}
	if hedge {
		opts = append(opts, WithHedge(replica, 5*time.Millisecond))
	}
	rs, err := Dial(primary, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fp := hedgeFingerprint{delivered: drainRemote(t, rs)}
	cs := rs.Stats()
	fp.hedges, fp.dups, fp.waitP99 = cs.Hedges, cs.Duplicates, cs.WaitP99
	rep, err := rs.Close()
	if err != nil {
		t.Fatal(err)
	}
	fp.span = rep.TrainTime
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	ns := sn.Stats()
	fp.netBytes, fp.netFlows = ns.BytesMoved, ns.FlowsCompleted
	for i, cl := range []*Cluster{slow, fast} {
		if ps := cl.pool.Stats(); ps.Gets != ps.Puts {
			t.Fatalf("cluster %d pool leak after hedging: %+v", i, ps)
		}
	}
	return fp
}

func TestHedgeReducesTailLatency(t *testing.T) {
	unhedged := runHedgeTopology(t, false)
	hedged := runHedgeTopology(t, true)
	if hedged.delivered != 8 || unhedged.delivered != 8 {
		t.Fatalf("delivered %d / %d, want 8", hedged.delivered, unhedged.delivered)
	}
	if hedged.hedges == 0 {
		t.Fatal("hedged run fired no hedges")
	}
	if hedged.waitP99 >= unhedged.waitP99 {
		t.Fatalf("hedging did not cut tail latency: p99 %v (hedged) vs %v (unhedged)",
			hedged.waitP99, unhedged.waitP99)
	}
}

func TestHedgeDeterministic(t *testing.T) {
	a := runHedgeTopology(t, true)
	b := runHedgeTopology(t, true)
	if a != b {
		t.Fatalf("hedged topology diverged across runs:\n%+v\nvs\n%+v", a, b)
	}
}

// TestServeSharedWarmCache pins the server-side cache story: two remote
// clients of the same stream share the cluster's materialized cache, so
// the second client's batches are warm hits that skip preprocessing.
func TestServeSharedWarmCache(t *testing.T) {
	sn := NewServiceNet(nil, ServiceNetConfig{})
	cl := serveCluster(t, sn, WithMaterializedCache(1<<30))
	defer cl.Close()
	addr, err := Serve(cl,
		WithServiceNet(sn),
		Publish("train", namedDataset{space: "serve-warm", n: 64}, flatPipeline(5*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer addr.Close()

	cold, err := Dial(addr, WithBatchSize(8), WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	drainRemote(t, cold)
	cold.Close()
	fills := cl.Stats().MatCache.Fills
	if fills == 0 {
		t.Fatal("cold client materialized nothing")
	}

	warm, err := Dial(addr, WithBatchSize(8), WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	start := sn.Runtime().Now()
	drainRemote(t, warm)
	warmTime := sn.Runtime().Now() - start
	warm.Close()
	mc := cl.Stats().MatCache
	if mc.Hits == 0 {
		t.Fatalf("warm client hit nothing: %+v", mc)
	}
	if mc.Saved <= 0 {
		t.Fatalf("warm client saved no preprocessing time: %+v", mc)
	}
	_ = warmTime
}

// TestServeChaosLinkFlap is the chaos-composability regression: a
// link-flap scenario against the server's NIC degrades the client's
// batch-wait tail while active and recovers after, bit-identically
// across runs.
func TestServeChaosLinkFlap(t *testing.T) {
	type flapFingerprint struct {
		preMax, flapMax, postMax time.Duration
		now                      time.Duration
		netBytes                 int64
	}
	run := func() flapFingerprint {
		sn := NewServiceNet(nil, ServiceNetConfig{})
		aux := serveCluster(t, sn)
		defer aux.Close()
		cl := serveCluster(t, sn)
		defer cl.Close()
		// Fleet index 0 is a bystander; the registered "link-flap"
		// scenario targets fleet index 1 — the server under test.
		bystander, err := Serve(aux, WithServiceNet(sn),
			Publish("train", serveDataset{space: "flap-aux", n: 256}, flatPipeline(time.Millisecond)))
		if err != nil {
			t.Fatal(err)
		}
		defer bystander.Close()
		addr, err := Serve(cl, WithServiceNet(sn),
			WithChaosScenario("link-flap"),
			Publish("train", serveDataset{space: "flap", n: 512}, flatPipeline(time.Millisecond)))
		if err != nil {
			t.Fatal(err)
		}
		defer addr.Close()

		rs, err := Dial(addr, WithBatchSize(32), WithIterations(1000), WithPrefetch(2))
		if err != nil {
			t.Fatal(err)
		}
		var fp flapFingerprint
		ctx := context.Background()
		prev := sn.Runtime().Now()
		for _, err := range rs.Batches(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			now := sn.Runtime().Now()
			wait := now - prev
			prev = now
			// The flap degrades the NIC 8× from t=2s to t=4s (anchored at
			// the first open). Windows skip the cold start (disk-bound
			// first epoch) and the restore boundary.
			switch {
			case now > 500*time.Millisecond && now < 2*time.Second:
				fp.preMax = max(fp.preMax, wait)
			case now > 2*time.Second && now < 4*time.Second:
				fp.flapMax = max(fp.flapMax, wait)
			case now > 4500*time.Millisecond:
				fp.postMax = max(fp.postMax, wait)
			}
		}
		if _, err := rs.Close(); err != nil {
			t.Fatal(err)
		}
		if err := addr.Close(); err != nil {
			t.Fatal(err)
		}
		fp.now = sn.Runtime().Now()
		fp.netBytes = sn.Stats().BytesMoved
		return fp
	}

	a := run()
	if a.preMax == 0 || a.flapMax == 0 || a.postMax == 0 {
		t.Fatalf("run did not span the flap window: %+v", a)
	}
	if a.flapMax < 2*a.preMax {
		t.Fatalf("flap did not degrade batch waits: pre %v, during %v", a.preMax, a.flapMax)
	}
	if a.postMax >= a.flapMax {
		t.Fatalf("link did not recover: during %v, after %v", a.flapMax, a.postMax)
	}
	b := run()
	if a != b {
		t.Fatalf("chaos run diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestServeChaosDiskBrownoutFromFirstPull: a served script's disk events are
// offsets from the server's first batch pull, like its link events. A local
// session on the same cluster runs the kernel's clock past the brownout's
// scripted end before the first Dial; the brownout still slows the served
// stream, and its fault window opens At after the first pull and lasts its
// Duration.
func TestServeChaosDiskBrownoutFromFirstPull(t *testing.T) {
	const at, dur = 50 * time.Millisecond, 100 * time.Millisecond
	sink := NewTraceSink()
	sn := NewServiceNet(nil, ServiceNetConfig{})
	cl := serveCluster(t, sn, WithTracing(sink))
	defer cl.Close()
	warm, err := cl.Open(serveDataset{space: "brownout-warmup", n: 64}, WithBatchSize(8),
		WithPipeline(flatPipeline(50*time.Millisecond)))
	fatalIf(t, err)
	for _, err := range warm.Batches(context.Background()) {
		fatalIf(t, err)
	}
	_, err = warm.Close()
	fatalIf(t, err)
	dialAt := sn.Runtime().Now()
	if dialAt <= at+dur {
		t.Fatalf("the warm-up ended at %v, inside the script (%v + %v)", dialAt, at, dur)
	}

	addr, err := Serve(cl, WithServiceNet(sn), WithTracing(sink), WithChaos(BrownoutDisk(at, 8, dur)),
		Publish("train", serveDataset{space: "brownout", n: 512}, flatPipeline(time.Millisecond)))
	fatalIf(t, err)
	defer addr.Close()
	rs, err := Dial(addr, WithBatchSize(8), WithIterations(64), WithPrefetch(2))
	fatalIf(t, err)
	type arrival struct{ at, wait time.Duration }
	var arrivals []arrival
	prev := sn.Runtime().Now()
	var last *Batch
	for b, err := range rs.Batches(context.Background()) {
		fatalIf(t, err)
		now := sn.Runtime().Now()
		arrivals = append(arrivals, arrival{now, now - prev})
		prev, last = now, b
	}
	last.Release() // the final batch is the consumer's
	_, err = rs.Close()
	fatalIf(t, err)

	var window []TraceSpan
	for _, sp := range sink.Spans() {
		if sp.Stage == TraceStageFaultWindow && ChaosKind(sp.Key) == ChaosDiskDegrade {
			window = append(window, sp)
		}
	}
	if len(window) != 1 {
		t.Fatalf("%d disk fault windows, want 1", len(window))
	}
	w := window[0]
	if first := w.Start - at; first < dialAt || w.End-w.Start != dur {
		t.Fatalf("window [%v, %v]: want it to open %v after a first pull at or after %v, for %v",
			w.Start, w.End, at, dialAt, dur)
	}
	// Cold reads bound the stream, so the brownout shows in the waits of
	// the batches that arrive inside its window.
	var before, during time.Duration
	for _, a := range arrivals[1:] {
		switch {
		case a.at < w.Start:
			before = max(before, a.wait)
		case a.at > w.Start+a.wait && a.at < w.End:
			during = max(during, a.wait)
		}
	}
	t.Logf("first pull at %v; waits up to %v before the window, %v inside", w.Start-at, before, during)
	if before == 0 || during < 4*before {
		t.Fatalf("the brownout did not slow the stream: waits up to %v before its window, %v inside", before, during)
	}
}

// TestStreamAllManyClients runs the N-trainers × one-fleet topology on a
// single kernel and pins its determinism fingerprint across runs. CI runs
// this under -race.
func TestStreamAllManyClients(t *testing.T) {
	const clients = 16
	type clientFP struct {
		Batches int
		Hedges  int64
		MaxOut  int
	}
	type fingerprint struct {
		Clients  [clients]clientFP
		Now      time.Duration
		NetBytes int64
		NetFlows int64
	}
	run := func() fingerprint {
		sn := NewServiceNet(nil, ServiceNetConfig{})
		cl := serveCluster(t, sn, WithEnv(EnvConfig{Cores: 16, GPUs: 1}))
		defer cl.Close()
		addr, err := Serve(cl, WithServiceNet(sn),
			Publish("train", namedDataset{space: "serve-fleet", n: 512}, flatPipeline(time.Millisecond)))
		if err != nil {
			t.Fatal(err)
		}
		defer addr.Close()

		sessions := make([]*RemoteSession, clients)
		for i := range sessions {
			rs, err := Dial(addr,
				WithBatchSize(4+i%3),
				WithIterations(6),
				WithSeed(uint64(i+1)),
				WithPrefetch(1+i%4))
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = rs
		}
		var fp fingerprint
		ctx := context.Background()
		StreamAll(ctx, sessions, func(i int, rs *RemoteSession) {
			n := 0
			var last *Batch
			for b, err := range rs.Batches(ctx) {
				if err != nil {
					t.Error(err)
					return
				}
				n++
				last = b
				// Stagger consumption so clients interleave on the fabric.
				_ = sn.rt.k.Sleep(ctx, time.Duration(1+i%5)*time.Millisecond)
			}
			if last != nil {
				last.Release()
			}
			fp.Clients[i].Batches = n
		})
		for i, rs := range sessions {
			cs := rs.Stats()
			fp.Clients[i].Hedges = cs.Hedges
			fp.Clients[i].MaxOut = cs.MaxOutstanding
			if _, err := rs.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := addr.Close(); err != nil {
			t.Fatal(err)
		}
		fp.Now = sn.Runtime().Now()
		ns := sn.Stats()
		fp.NetBytes, fp.NetFlows = ns.BytesMoved, ns.FlowsCompleted
		if ps := cl.pool.Stats(); ps.Gets != ps.Puts {
			t.Fatalf("pool leak across %d clients: %+v", clients, ps)
		}
		return fp
	}
	a := run()
	for i := range a.Clients {
		if a.Clients[i].Batches != 6 {
			t.Fatalf("client %d delivered %d, want 6", i, a.Clients[i].Batches)
		}
	}
	b := run()
	if a != b {
		t.Fatalf("fleet run diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestServedStreamParkBudget pins what one delivered sample of a served
// stream costs the kernel, beside core's TestParkBudgetPerSample for the
// local one: 32 dialed clients on an 8-core cluster, so the CPU pool is
// several times oversubscribed and every BATCH frame shares the server's
// NIC with the others. A sample parks once in its CPU occupancy and once in
// its batch constructor; a frame parks twice (latency, flow) however often
// the other flows bend its rate — 2.5 in all. A pool that wakes the next
// finisher to arm its own timer, or a fabric that wakes flows to read their
// new rate, was 3.75. Wake steps make the workers' parks after a run of
// samples' first, the constructors' after each batch's first, and a frame's
// flow park, in their task's turn: 18739 parks that cost no coroutine switch
// (8422 before the workers' step), 0.21 switches per sample.
func TestServedStreamParkBudget(t *testing.T) {
	const clients, batch, iterations, maxParksPerSample = 32, 32, 8, 2.6
	sn := NewServiceNet(nil, ServiceNetConfig{Endpoints: clients + 8})
	cl := serveCluster(t, sn)
	defer cl.Close()
	addr, err := Serve(cl, WithServiceNet(sn),
		Publish("train", serveDataset{space: "serve-parks", n: 2048}, flatPipeline(time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer addr.Close()
	sessions := make([]*RemoteSession, clients)
	for i := range sessions {
		sessions[i], err = Dial(addr, WithBatchSize(batch), WithIterations(iterations),
			WithSeed(uint64(i+1)), WithPrefetch(4))
		if err != nil {
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
	st := sn.rt.k.Stats()
	perSample := float64(st.Parks) / float64(clients*batch*iterations)
	t.Logf("%d samples: %d parks (%d timed, %d self-woken, %d stepped), %d retimes — %.3f parks per sample",
		clients*batch*iterations, st.Parks, st.TimedParks, st.SelfWakes, st.Steps, st.Retimes, perSample)
	if perSample > maxParksPerSample {
		t.Fatalf("%.3f parks per delivered sample, budget %.1f", perSample, maxParksPerSample)
	}
	// The exact counts: a change to a wait list or a wake source that adds,
	// drops or reorders a kernel event moves one of them. The fabric's
	// flows share their bottleneck's integral, so a rate change retimes only
	// the group's front, and the others park deadline-free.
	want := simtime.KernelStats{Spawns: 226, Parks: 20873, TimedParks: 3430, SelfWakes: 415, Wakes: 20872, Retimes: 16207, Steps: 18739, Switches: 2100}
	if st != want {
		t.Fatalf("kernel counts %+v, want %+v", st, want)
	}
}

// TestServeRefusedJoinsNoFleet is Serve's all-or-nothing rule: a server
// refused for its chaos script or its trace sink leaves no endpoint and no
// fleet index behind, so the next server is fleet member 0 of 1.
func TestServeRefusedJoinsNoFleet(t *testing.T) {
	sn := NewServiceNet(nil, ServiceNetConfig{})
	cl := serveCluster(t, sn, WithTracing(NewTraceSink()))
	defer cl.Close()
	pub := Publish("train", namedDataset{space: "serve-refused", n: 64}, flatPipeline(time.Millisecond))
	var ce *ConfigError
	if _, err := Serve(cl, WithServiceNet(sn), pub, WithChaos(FlapLink(1, time.Second, 8, time.Second))); !errors.As(err, &ce) {
		t.Fatalf("link event beyond the fleet: %v, want *ConfigError", err)
	}
	addr, err := Serve(cl, WithServiceNet(sn), pub, WithChaos(FlapLink(0, time.Second, 8, time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	defer addr.Close()
	servers := func() (n int) {
		sn.rt.k.Do(func() { n = sn.net.ServerCount() })
		return n
	}
	if addr.Fleet() != 0 || servers() != 1 {
		t.Fatalf("after a refused Serve: fleet index %d of %d servers, want 0 of 1", addr.Fleet(), servers())
	}
	if _, err := Serve(cl, WithServiceNet(sn), pub, WithTracing(NewTraceSink())); !errors.As(err, &ce) {
		t.Fatalf("a second sink on the runtime: %v, want *ConfigError", err)
	}
	if servers() != 1 {
		t.Fatalf("a Serve refused for its sink joined the fleet: %d servers", servers())
	}
}

func TestServeDialConfigErrors(t *testing.T) {
	sn := NewServiceNet(nil, ServiceNetConfig{})
	cl := serveCluster(t, sn)
	defer cl.Close()
	pub := Publish("train", namedDataset{space: "serve-cfg", n: 256}, flatPipeline(time.Millisecond))

	wantConfigErr := func(name, option string, err error) {
		t.Helper()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: got %v, want *ConfigError", name, err)
		}
		if ce.Option != option {
			t.Fatalf("%s: offending option %q, want %q", name, ce.Option, option)
		}
	}

	_, err := Serve(cl, WithServiceNet(sn))
	wantConfigErr("no publish", "Publish", err)
	_, err = Serve(cl, WithServiceNet(sn), Publish("train", nil, nil))
	wantConfigErr("nil dataset", "Publish", err)
	_, err = Serve(cl, WithServiceNet(NewServiceNet(nil, ServiceNetConfig{})), pub)
	wantConfigErr("foreign runtime", "WithServiceNet", err)
	_, err = Serve(cl, WithServiceNet(sn), pub,
		WithChaos(CrashNode(0, time.Second, 2*time.Second)))
	wantConfigErr("consumer chaos kind", "WithChaos", err)
	_, err = Serve(cl, WithServiceNet(sn), pub,
		WithChaos(FlapLink(7, time.Second, 8, time.Second)))
	wantConfigErr("link target beyond fleet", "WithChaos", err)
	_, err = Serve(cl, WithServiceNet(sn), pub, WithChaosScenario("nope"))
	wantConfigErr("unknown scenario", "WithChaosScenario", err)
	if !strings.Contains(err.Error(), "registered: ") || !strings.Contains(err.Error(), "link-flap") {
		t.Fatalf("unknown scenario on Serve does not list the registered ones: %v", err)
	}

	queued, err := NewCluster(
		WithRuntime(sn.Runtime()),
		WithEnv(EnvConfig{Cores: 4, GPUs: 1}),
		WithMaxSessions(1),
		WithAdmission(AdmitQueue))
	if err != nil {
		t.Fatal(err)
	}
	defer queued.Close()
	_, err = Serve(queued, WithServiceNet(sn), pub)
	wantConfigErr("queueing cluster", "Serve", err)

	addr, err := Serve(cl, WithServiceNet(sn), pub,
		Publish("second", namedDataset{space: "serve-cfg2", n: 64}, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer addr.Close()
	_, err = Dial(addr)
	wantConfigErr("ambiguous stream", "WithStream", err)
	_, err = Dial(addr, WithStream("train"), WithPrefetch(-1))
	wantConfigErr("bad prefetch", "WithPrefetch", err)
	_, err = Dial(addr, WithStream("train"), WithHedge(addr, 0))
	wantConfigErr("zero hedge delay", "WithHedge", err)
	_, err = Dial(addr, WithStream("train"), WithHedge(addr, time.Millisecond))
	wantConfigErr("self hedge", "WithHedge", err)
	foreign, err := Serve(serveCluster(t, NewServiceNet(nil, ServiceNetConfig{})),
		Publish("train", namedDataset{space: "serve-cfg3", n: 64}, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer foreign.Close()
	_, err = Dial(addr, WithStream("train"), WithHedge(foreign, time.Millisecond))
	wantConfigErr("cross-fabric hedge", "WithHedge", err)
	_, err = Dial(addr, WithStream("train"), WithBatchSize(-1))
	wantConfigErr("bad batch size", "WithBatchSize", err)

	// Typed service errors satisfy errors.Is against the root re-exports.
	if !errors.Is(ErrServerOverloaded, ErrServerOverloaded) || ErrUnauthorized == nil || ErrQuotaExceeded == nil {
		t.Fatal("typed service errors must be re-exported sentinels")
	}
}
