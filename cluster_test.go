package minato

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openTenant opens a session on cl over a private key space so tenants do
// not share cache entries unless the test wants them to.
func openTenant(t *testing.T, cl *Cluster, space string, n int, opts ...Option) *Session {
	t.Helper()
	opts = append([]Option{
		WithPipeline(flatPipeline(time.Millisecond)),
		WithBatchSize(8),
		WithIterations(6),
	}, opts...)
	sess, err := cl.Open(namedDataset{space: space, n: n}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// namedDataset is sessionDataset with a configurable key space, so tests
// control whether tenants share storage keys.
type namedDataset struct {
	space string
	n     int
}

func (d namedDataset) Name() string { return d.space }
func (d namedDataset) Len() int     { return d.n }
func (d namedDataset) Sample(epoch, i int) *Sample {
	return &Sample{
		Index: i, Epoch: epoch,
		Key:      Key{Space: d.space, Index: int64(i)},
		RawBytes: 1 << 16, Bytes: 1 << 16,
	}
}

func drain(t *testing.T, sess *Session) *Report {
	t.Helper()
	for _, err := range sess.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestClusterConcurrentSessions is the ISSUE's acceptance scenario at test
// scale: N concurrent sessions on one cluster, sharing one pool, cache,
// and CPU, each delivering its exact budget. Run under -race in CI.
func TestClusterConcurrentSessions(t *testing.T) {
	const tenants = 8
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 16, GPUs: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	reps := make([]*Report, tenants)
	for i := 0; i < tenants; i++ {
		i := i
		sess := openTenant(t, cl, fmt.Sprintf("tenant-%d", i), 256, WithSeed(uint64(i+1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for b, err := range sess.Batches(context.Background()) {
				if err != nil {
					t.Error(err)
					return
				}
				if b.Size() != 8 {
					t.Errorf("tenant %d: batch size %d", i, b.Size())
					return
				}
				n++
			}
			rep, err := sess.Close()
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = rep
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if rep == nil {
			t.Fatalf("tenant %d: no report", i)
		}
		if rep.Batches != 6 || rep.Samples != 48 {
			t.Fatalf("tenant %d: %d batches / %d samples, want 6/48", i, rep.Batches, rep.Samples)
		}
		if rep.TrainTime <= 0 {
			t.Fatalf("tenant %d: no delivery time", i)
		}
	}
	st := cl.Stats()
	if st.ActiveSessions != 0 {
		t.Fatalf("ActiveSessions = %d after all closed", st.ActiveSessions)
	}
	if st.OpenedTotal != tenants {
		t.Fatalf("OpenedTotal = %d, want %d", st.OpenedTotal, tenants)
	}
}

// TestClusterSessionHammer stresses the shared pool/cache lifecycle: many
// rounds of concurrent open-stream-close over one cluster, exercised under
// -race in CI.
func TestClusterSessionHammer(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 8}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const rounds, tenants = 4, 6
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < tenants; i++ {
			sess := openTenant(t, cl, "hammer", 128, WithSeed(uint64(r*tenants+i+1)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, err := range sess.Batches(context.Background()) {
					if err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := sess.Close(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

func TestClusterAdmissionReject(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4}), WithMaxSessions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a := openTenant(t, cl, "a", 64)
	b := openTenant(t, cl, "b", 64)
	if _, err := cl.Open(namedDataset{space: "c", n: 64}); !errors.Is(err, ErrClusterSaturated) {
		t.Fatalf("third open = %v, want ErrClusterSaturated", err)
	}
	st := cl.Stats()
	if st.RejectedTotal != 1 || st.ActiveSessions != 2 {
		t.Fatalf("stats = %+v", st)
	}
	drain(t, a)
	// A slot is free again.
	c := openTenant(t, cl, "c", 64)
	drain(t, b)
	drain(t, c)
}

func TestClusterAdmissionQueue(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4}),
		WithMaxSessions(1), WithAdmission(AdmitQueue))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a := openTenant(t, cl, "a", 64)

	var admitted atomic.Bool
	done := make(chan *Session, 1)
	go func() {
		sess, err := cl.Open(namedDataset{space: "b", n: 64},
			WithPipeline(flatPipeline(time.Millisecond)), WithBatchSize(8), WithIterations(4))
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		admitted.Store(true)
		done <- sess
	}()

	// The queued open must not be admitted while a holds the only slot.
	time.Sleep(50 * time.Millisecond)
	if admitted.Load() {
		t.Fatal("queued open admitted while the cluster was saturated")
	}
	if q := cl.Stats().QueuedOpens; q != 1 {
		t.Fatalf("QueuedOpens = %d, want 1", q)
	}
	drain(t, a) // closing a releases the slot
	b := <-done
	if b == nil {
		t.Fatal("queued open failed")
	}
	drain(t, b)
}

func TestClusterClosed(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4}),
		WithMaxSessions(1), WithAdmission(AdmitQueue))
	if err != nil {
		t.Fatal(err)
	}
	a := openTenant(t, cl, "a", 64)

	queued := make(chan error, 1)
	go func() {
		_, err := cl.Open(namedDataset{space: "b", n: 64})
		queued <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-queued; !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("queued open after Close = %v, want ErrClusterClosed", err)
	}
	if _, err := cl.Open(namedDataset{space: "c", n: 64}); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("open after Close = %v, want ErrClusterClosed", err)
	}
	if _, err := cl.Train("speech-3s", WithIterations(4)); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("train after Close = %v, want ErrClusterClosed", err)
	}
	// A session admitted before Close still streams and closes cleanly —
	// the cluster reclaims only after the last session leaves.
	for b, err := range a.Batches(context.Background()) {
		_ = b
		if err != nil && !errors.Is(err, ErrClusterClosed) {
			t.Fatal(err)
		}
		break
	}
	if _, err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	// A served cluster that owns its runtime, closed while a stream holds a
	// slot: the stream then ends on the server's pump task — its next pull
	// fails, or its client hangs up — and that last release must not drain
	// the kernel it runs on. Nor may Close drain it while an idle server's
	// tasks still live there: ServerAddr.Close reclaims it then.
	for _, end := range []string{"pull", "hang up", "idle"} {
		served, err := NewCluster(WithEnv(EnvConfig{Cores: 4, GPUs: 1}))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			addr, err := Serve(served, Publish("train", namedDataset{space: "served-closed", n: 64}, nil))
			if err != nil {
				done <- err
				return
			}
			var rs *RemoteSession
			if end != "idle" {
				if rs, err = Dial(addr, WithBatchSize(8), WithIterations(4)); err != nil {
					done <- err
					return
				}
			}
			if err := served.Close(); err != nil {
				done <- err
				return
			}
			if end == "pull" {
				for _, err := range rs.Batches(context.Background()) {
					if err == nil {
						done <- errors.New("a stream of a closed cluster delivered a batch")
						return
					}
				}
			}
			if rs != nil {
				if _, err := rs.Close(); err != nil && end != "pull" {
					done <- err
					return
				}
			}
			done <- addr.Close()
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", end, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: closing a served cluster that owns its runtime hung", end)
		}
	}
}

// TestClusterSessionMisuse covers the session-misuse taxonomy on cluster
// sessions: double-Batches, Batches after Close, and cluster-owned options.
func TestClusterSessionMisuse(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"WithHardware", WithHardware(ConfigA())},
		{"WithEnv", WithEnv(EnvConfig{Cores: 2})},
		{"WithRuntime", WithRuntime(cl.Runtime())},
	} {
		var ce *ConfigError
		if _, err := cl.Open(namedDataset{space: "x", n: 64}, tc.opt); !errors.As(err, &ce) {
			t.Fatalf("%s on cluster session: err = %v, want *ConfigError", tc.name, err)
		} else if ce.Option != tc.name {
			t.Fatalf("%s: ConfigError.Option = %q", tc.name, ce.Option)
		}
	}
	if _, err := cl.Open(namedDataset{space: "x", n: 64}, WithGPUs(3)); err == nil {
		t.Fatal("session got more GPUs than the cluster has")
	}

	sess := openTenant(t, cl, "misuse", 128)
	for _, err := range sess.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range sess.Batches(context.Background()) {
		if !errors.Is(err, ErrSessionConsumed) {
			t.Fatalf("second consumption yielded %v, want ErrSessionConsumed", err)
		}
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	for _, err := range sess.Batches(context.Background()) {
		if !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("post-Close consumption yielded %v, want ErrSessionClosed", err)
		}
	}
}

// TestClusterSessionContextCancel cancels one tenant mid-stream while a
// sibling keeps streaming on the same cluster.
func TestClusterSessionContextCancel(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 8}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	victim := openTenant(t, cl, "victim", 256, WithIterations(100))
	bystander := openTenant(t, cl, "bystander", 256, WithIterations(12))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep := drain(t, bystander)
		if rep.Batches != 12 {
			t.Errorf("bystander delivered %d batches, want 12", rep.Batches)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	var sawErr error
	for _, err := range victim.Batches(ctx) {
		if err != nil {
			sawErr = err
			continue
		}
		n++
		if n == 3 {
			cancel()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("cancelled stream yielded %v, want context.Canceled", sawErr)
	}
	if _, err := victim.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close error = %v, want context.Canceled", err)
	}
	wg.Wait()
}

// TestClusterCacheAttribution verifies per-tenant cache accounting: a
// second tenant over the same key space hits what the first one loaded,
// and each Report carries its own slice of the shared cache.
func TestClusterCacheAttribution(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	first := openTenant(t, cl, "shared-keys", 64, WithEpochs(1), WithIterations(8))
	repA := drain(t, first)
	if repA.CacheStats.Misses == 0 {
		t.Fatalf("first tenant reported no cache misses: %+v", repA.CacheStats)
	}
	if repA.CacheStats.Hits != 0 {
		t.Fatalf("first tenant hit a cold cache: %+v", repA.CacheStats)
	}

	second := openTenant(t, cl, "shared-keys", 64, WithEpochs(1), WithIterations(8))
	repB := drain(t, second)
	if repB.CacheStats.Hits == 0 {
		t.Fatalf("second tenant missed a warm cache: %+v", repB.CacheStats)
	}
	if repB.CacheStats.Misses != 0 {
		t.Fatalf("second tenant missed despite identical keys: %+v", repB.CacheStats)
	}
	// Attribution is per tenant: B's hits are not folded into A's stats.
	if repA.CacheStats.Hits != 0 {
		t.Fatalf("first tenant's report changed after the fact: %+v", repA.CacheStats)
	}
	// Disk traffic is attributed too: A's cold fills read disk, B rode the
	// warm cache and caused none.
	if repA.DiskBytes == 0 {
		t.Fatalf("first tenant reported no disk bytes: %+v", repA)
	}
	if repB.DiskBytes != 0 {
		t.Fatalf("warm tenant charged %d disk bytes, want 0", repB.DiskBytes)
	}
}

// TestClusterGPUPlacementSpreads verifies single-GPU sessions land on
// distinct least-loaded GPUs instead of stacking on a prefix, and that
// placement is released on Close.
func TestClusterGPUPlacementSpreads(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 8, GPUs: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sessions := make([]*Session, 4)
	seen := map[int]bool{}
	for i := range sessions {
		sessions[i] = openTenant(t, cl, fmt.Sprintf("gpu-%d", i), 64, WithGPUs(1))
		idx := sessions[i].gpuIdxs[0]
		if seen[idx] {
			t.Fatalf("session %d stacked on already-used GPU %d", i, idx)
		}
		seen[idx] = true
	}
	drain(t, sessions[0])
	// The freed GPU is the least loaded again.
	next := openTenant(t, cl, "gpu-next", 64, WithGPUs(1))
	if got := next.gpuIdxs[0]; got != sessions[0].gpuIdxs[0] {
		t.Fatalf("freed GPU %d not reused, placed on %d", sessions[0].gpuIdxs[0], got)
	}
	drain(t, next)
	for _, s := range sessions[1:] {
		drain(t, s)
	}
}

// TestClusterWorkerQuotaRebalance checks priority-weighted fair shares: a
// weight-3 tenant gets three quarters of the capacity next to a weight-1
// sibling, and quotas return when the sibling leaves.
func TestClusterWorkerQuotaRebalance(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 16}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a := openTenant(t, cl, "a", 64) // weight 1
	if q := a.Stats().WorkerQuota; q != 16 {
		t.Fatalf("sole tenant quota = %d, want 16", q)
	}
	b := openTenant(t, cl, "b", 64, WithPriority(3))
	if q := a.Stats().WorkerQuota; q != 4 {
		t.Fatalf("weight-1 quota next to weight-3 = %d, want 4", q)
	}
	if q := b.Stats().WorkerQuota; q != 12 {
		t.Fatalf("weight-3 quota = %d, want 12", q)
	}
	drain(t, b)
	if q := a.Stats().WorkerQuota; q != 16 {
		t.Fatalf("quota after sibling left = %d, want 16", q)
	}
	drain(t, a)

	var ce *ConfigError
	if _, err := cl.Open(namedDataset{space: "c", n: 64}, WithPriority(-1)); !errors.As(err, &ce) {
		t.Fatalf("negative priority: err = %v, want *ConfigError", err)
	}
}

// TestClusterTrainConcurrent co-runs two training sessions on one cluster
// — the Gong et al. co-running scenario — and checks both complete their
// budgets with per-tenant cache attribution.
func TestClusterTrainConcurrent(t *testing.T) {
	cl, err := NewCluster(WithHardware(ConfigA()), WithGPUs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	reps := make([]*Report, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := cl.Train("speech-3s", WithIterations(20), WithSeed(uint64(i+1)))
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = rep
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if rep == nil {
			t.Fatalf("train %d: no report", i)
		}
		if rep.Batches != 20 {
			t.Fatalf("train %d delivered %d batches, want 20", i, rep.Batches)
		}
	}
}

// TestConfigErrorTaxonomy checks that option misuse is matchable with
// errors.As across entry points.
func TestConfigErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"Open batch", func() error { _, err := Open(sessionDataset{n: 8}, WithBatchSize(-1)); return err }},
		{"Open loader", func() error { _, err := Open(sessionDataset{n: 8}, WithLoader("tf.data")); return err }},
		{"Train env", func() error { _, err := Train("speech-3s", WithEnv(EnvConfig{})); return err }},
		{"NewCluster", func() error {
			_, err := NewCluster(WithHardware(ConfigA()), WithEnv(EnvConfig{}))
			return err
		}},
		{"NewCluster sessions", func() error { _, err := NewCluster(WithMaxSessions(-1)); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v (%T), want *ConfigError", err, err)
			}
			if ce.Option == "" || ce.Reason == "" {
				t.Fatalf("ConfigError incomplete: %+v", ce)
			}
		})
	}
}

// TestClusterStatsLive snapshots a streaming session from another
// goroutine.
func TestClusterStatsLive(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess := openTenant(t, cl, "live", 256, WithIterations(40))
	if st := sess.Stats(); st.State != "open" || st.Batches != 0 {
		t.Fatalf("pre-stream stats = %+v", st)
	}

	// Cluster.Stats lists the open sessions in tenant (admission) order; a
	// session that closes leaves the others' order alone.
	idle := make([]*Session, 4)
	for i := range idle {
		idle[i] = openTenant(t, cl, fmt.Sprintf("idle-%d", i), 64)
	}
	tenants := func() (ids []int) {
		for _, st := range cl.Stats().Sessions {
			ids = append(ids, st.Tenant)
		}
		return ids
	}
	if got := tenants(); fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("Cluster.Stats sessions in tenant order %v, want [1 2 3 4 5]", got)
	}
	if _, err := idle[1].Close(); err != nil {
		t.Fatal(err)
	}
	if got := tenants(); fmt.Sprint(got) != "[1 2 4 5]" {
		t.Fatalf("after tenant 3 closed: %v, want [1 2 4 5]", got)
	}
	for _, s := range idle {
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	probe := make(chan SessionStats, 1)
	n := 0
	for _, err := range sess.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 10 {
			done := make(chan struct{})
			go func() { // snapshot from a foreign goroutine mid-stream
				probe <- sess.Stats()
				close(done)
			}()
			<-done
		}
	}
	st := <-probe
	if st.State != "streaming" || st.Batches < 1 || st.Batches > 40 {
		t.Fatalf("mid-stream stats = %+v", st)
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Stats(); got.State != "closed" || got.Batches != rep.Batches {
		t.Fatalf("post-close stats = %+v vs report %d batches", got, rep.Batches)
	}
	if cs := cl.Stats(); cs.Pool.Gets == 0 {
		t.Fatalf("cluster pool stats empty: %+v", cs.Pool)
	}
}

// TestStatsFromOutsideDuringStreamAll is the facade's entry rule under the
// race detector: while StreamAll drives four tenants, one foreign goroutine
// polls every session's Stats — which needs no kernel entry, so a loop body
// may call it too, and may even wait for the poller — and another polls
// Cluster.Stats, which is taken on the kernel between two tasks: every
// snapshot must add up (the tenants' misses are the cache's), and nothing a
// session reports may ever go backwards.
func TestStatsFromOutsideDuringStreamAll(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 8, GPUs: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sessions := make([]*Session, 4)
	for i := range sessions {
		sessions[i] = openTenant(t, cl, fmt.Sprintf("polled-%d", i), 256, WithIterations(24))
	}
	var stop atomic.Bool
	var rounds, snapshots, live atomic.Int64
	var pollers sync.WaitGroup
	pollers.Add(2)
	go func() {
		defer pollers.Done()
		last := make([]SessionStats, len(sessions))
		for !stop.Load() {
			for i, sess := range sessions {
				st := sess.Stats()
				if st.Batches < last[i].Batches || st.Cache.Misses < last[i].Cache.Misses || st.Cache.Hits < last[i].Cache.Hits {
					t.Errorf("session %d went backwards: %+v after %+v", i, st, last[i])
				}
				last[i] = st
			}
			rounds.Add(1)
		}
	}()
	go func() {
		defer pollers.Done()
		for !stop.Load() {
			st := cl.Stats()
			snapshots.Add(1)
			if len(st.Sessions) != len(sessions) {
				continue
			}
			var misses, hits int64
			for _, ss := range st.Sessions {
				misses += ss.Cache.Misses
				hits += ss.Cache.Hits
			}
			if misses != st.Cache.Misses || hits != st.Cache.Hits {
				t.Errorf("torn snapshot: tenants %d hits %d misses, cache %+v", hits, misses, st.Cache)
			}
			if st.Cache.Misses > 0 {
				live.Add(1)
			}
		}
	}()
	StreamAll(context.Background(), sessions, func(i int, sess *Session) {
		n := 0
		for _, err := range sess.Batches(context.Background()) {
			if err != nil {
				t.Error(err)
				return
			}
			if n++; n%8 != 0 {
				continue
			}
			if st := sess.Stats(); st.Batches != int64(n) || st.Cache.Misses == 0 {
				t.Errorf("tenant %d's own Stats at batch %d: %+v", i, n, st)
			}
			for want := rounds.Load() + 2; rounds.Load() < want; { // the poller needs no kernel
				runtime.Gosched()
			}
		}
	})
	for seen := snapshots.Load(); snapshots.Load() == seen; { // one more, after the stream
		runtime.Gosched()
	}
	stop.Store(true)
	pollers.Wait()
	if live.Load() == 0 {
		t.Error("no Cluster.Stats snapshot saw the stream's traffic")
	}
	for i, sess := range sessions {
		rep, err := sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st := sess.Stats(); st.Cache != rep.CacheStats || st.Batches != 24 {
			t.Errorf("tenant %d after Close: stats %+v, report %+v", i, st, rep.CacheStats)
		}
	}
}

// TestClusterDeterministicReports runs the same four-tenant schedule twice
// on fresh clusters, entering the tenants through StreamAll (one kernel
// instant, slice order), and requires bit-identical per-tenant reports —
// delivery times included.
func TestClusterDeterministicReports(t *testing.T) {
	run := func() []Report {
		cl, err := NewCluster(WithEnv(EnvConfig{Cores: 8, GPUs: 2}))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		sessions := make([]*Session, 4)
		for i := range sessions {
			sessions[i] = openTenant(t, cl, fmt.Sprintf("det-%d", i), 256,
				WithSeed(uint64(i+1)), WithIterations(10))
		}
		StreamAll(context.Background(), sessions, func(i int, sess *Session) {
			for _, err := range sess.Batches(context.Background()) {
				if err != nil {
					t.Error(err)
					return
				}
			}
		})
		out := make([]Report, len(sessions))
		for i, sess := range sessions {
			rep, err := sess.Close()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = *rep
		}
		return out
	}
	first, second := run(), run()
	for i := range first {
		a, b := first[i], second[i]
		if a.Workload != b.Workload || a.Loader != b.Loader ||
			a.Batches != b.Batches || a.Samples != b.Samples ||
			a.TrainedBytes != b.TrainedBytes || a.TrainTime != b.TrainTime ||
			a.CacheStats.Hits != b.CacheStats.Hits ||
			a.CacheStats.Misses != b.CacheStats.Misses {
			t.Fatalf("tenant %d diverged:\n%+v\nvs\n%+v", i, a, b)
		}
	}
}
