package minato

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWarmEpochSpeedup is the tentpole acceptance criterion: with the
// materialized cache enabled, epoch 2 of the same session skips the whole
// transform pipeline and must deliver at least 2× faster than epoch 1 in
// virtual time.
func TestWarmEpochSpeedup(t *testing.T) {
	sess, err := Open(sessionDataset{n: 256},
		WithPipeline(flatPipeline(2*time.Millisecond)),
		WithBatchSize(8),
		WithEpochs(2),
		WithMaterializedCache(64<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := 256 / 8
	var t1, t2 time.Duration
	n := 0
	for _, err := range sess.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		// Read the clock at the epoch boundaries, while the consumer task is
		// still live — after the iterator exhausts, session teardown lets
		// virtual time run ahead to the loader's idle timers.
		switch n {
		case perEpoch:
			t1 = sess.env.RT.Now()
		case 2 * perEpoch:
			t2 = sess.env.RT.Now()
		}
	}
	if n != 2*perEpoch {
		t.Fatalf("delivered %d batches, want %d", n, 2*perEpoch)
	}
	warm := t2 - t1
	if warm <= 0 || t1 <= 0 {
		t.Fatalf("epoch times degenerate: t1=%v warm=%v", t1, warm)
	}
	if speedup := float64(t1) / float64(warm); speedup < 2 {
		t.Fatalf("warm epoch speedup = %.2fx (cold %v, warm %v), want >= 2x",
			speedup, t1, warm)
	}

	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	mc := rep.MatCacheStats
	if mc.Fills != 256 {
		t.Fatalf("fills = %d, want 256 (one per sample)", mc.Fills)
	}
	if mc.Hits != 256 {
		t.Fatalf("hits = %d, want 256 (the whole second epoch)", mc.Hits)
	}
	if mc.Saved <= 0 {
		t.Fatalf("cache reports no preprocessing saved: %+v", mc)
	}
}

// Cache-enabled runs must stay run-to-run deterministic: identical sessions
// produce bit-identical reports, including the cache counters and times.
func TestWarmDeterminism(t *testing.T) {
	run := func() Report {
		sess, err := Open(sessionDataset{n: 128},
			WithPipeline(flatPipeline(2*time.Millisecond)),
			WithBatchSize(8),
			WithEpochs(3),
			WithMaterializedCache(8<<20),
		)
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range sess.Batches(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
		}
		rep, err := sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		return *rep
	}
	a, b := run(), run()
	if a.TrainTime != b.TrainTime || a.Batches != b.Batches || a.Samples != b.Samples {
		t.Fatalf("warm runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.MatCacheStats != b.MatCacheStats {
		t.Fatalf("cache counters diverged:\n%+v\nvs\n%+v", a.MatCacheStats, b.MatCacheStats)
	}
}

// TestClusterWarmSingleFlight is the satellite acceptance test: N tenants
// warming the same shard concurrently materialize every entry exactly once
// — total fills equal unique keys, everyone else hits. Runs under -race in
// CI via the root package race job.
func TestClusterWarmSingleFlight(t *testing.T) {
	const (
		tenants = 8
		samples = 64
	)
	cl, err := NewCluster(
		WithEnv(EnvConfig{Cores: 8}),
		WithMaxSessions(tenants),
		WithMaterializedCache(32<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sessions := make([]*Session, tenants)
	for i := range sessions {
		sessions[i] = openTenant(t, cl, "warm-shard", samples,
			WithEpochs(1), WithIterations(0))
	}
	var wg sync.WaitGroup
	reps := make([]*Report, tenants)
	for i, sess := range sessions {
		i, sess := i, sess
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, err := range sess.Batches(context.Background()) {
				if err != nil {
					t.Error(err)
					return
				}
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

	mc := cl.Stats().MatCache
	if mc.Fills != samples {
		t.Fatalf("fills = %d, want exactly %d (one per unique key)", mc.Fills, samples)
	}
	if mc.Misses != samples {
		t.Fatalf("misses = %d, want %d (only leaders pay misses)", mc.Misses, samples)
	}
	if want := int64(tenants*samples - samples); mc.Hits != want {
		t.Fatalf("hits = %d, want %d", mc.Hits, want)
	}
	// Per-tenant attribution sums back to the cluster totals.
	var fills, hits int64
	for i, rep := range reps {
		if rep == nil {
			t.Fatalf("tenant %d produced no report", i)
		}
		fills += rep.MatCacheStats.Fills
		hits += rep.MatCacheStats.Hits
	}
	if fills != mc.Fills || hits != mc.Hits {
		t.Fatalf("tenant attribution does not sum: fills %d/%d, hits %d/%d",
			fills, mc.Fills, hits, mc.Hits)
	}
}

// A second session on the same cluster after the first finishes warms
// entirely from the materialized cache: zero fills, zero pipeline work.
func TestClusterWarmCoTenant(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4}), WithMaterializedCache(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cold := drain(t, openTenant(t, cl, "cotenant", 64, WithEpochs(1), WithIterations(0)))
	if cold.MatCacheStats.Fills != 64 || cold.MatCacheStats.Hits != 0 {
		t.Fatalf("cold tenant: %+v", cold.MatCacheStats)
	}
	warm := drain(t, openTenant(t, cl, "cotenant", 64, WithEpochs(1), WithIterations(0)))
	if warm.MatCacheStats.Hits != 64 || warm.MatCacheStats.Fills != 0 {
		t.Fatalf("warm tenant: %+v", warm.MatCacheStats)
	}
	if warm.MatCacheStats.Saved <= 0 {
		t.Fatalf("warm tenant saved nothing: %+v", warm.MatCacheStats)
	}
	// The warm tenant never touched disk either: restores replace the read.
	if warm.DiskBytes != 0 {
		t.Fatalf("warm tenant charged %d disk bytes, want 0", warm.DiskBytes)
	}
}

// Changing the pipeline invalidates structurally: a different signature
// misses the cache instead of restoring stale tensors.
func TestWarmPipelineChangeMisses(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4}), WithMaterializedCache(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	a := drain(t, openTenant(t, cl, "sigchange", 32, WithEpochs(1), WithIterations(0)))
	if a.MatCacheStats.Fills != 32 {
		t.Fatalf("cold tenant: %+v", a.MatCacheStats)
	}
	// Same keys, semantically different pipeline.
	other := NewPipeline("flat",
		NewTransform("other-step", func(*Sample) time.Duration { return time.Millisecond }, nil))
	sess, err := cl.Open(namedDataset{space: "sigchange", n: 32},
		WithPipeline(other), WithBatchSize(8), WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	b := drain(t, sess)
	if b.MatCacheStats.Hits != 0 {
		t.Fatalf("changed pipeline hit stale entries: %+v", b.MatCacheStats)
	}
	if b.MatCacheStats.Fills != 32 {
		t.Fatalf("changed pipeline did not refill: %+v", b.MatCacheStats)
	}
}

// Baseline loaders ignore the materialized cache entirely — it serves the
// MinatoLoader backend only.
func TestWarmBaselineIgnoresCache(t *testing.T) {
	sess, err := Open(sessionDataset{n: 64},
		WithPipeline(flatPipeline(time.Millisecond)),
		WithBatchSize(8),
		WithEpochs(2),
		WithLoader("pytorch"),
		WithMaterializedCache(16<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := drain(t, sess)
	if rep.MatCacheStats.Fills != 0 || rep.MatCacheStats.Hits != 0 {
		t.Fatalf("baseline loader touched the materialized cache: %+v", rep.MatCacheStats)
	}
}

func TestWarmConfigErrors(t *testing.T) {
	t.Run("cluster-owned", func(t *testing.T) {
		cl, err := NewCluster(WithEnv(EnvConfig{Cores: 2}))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		_, err = cl.Open(sessionDataset{n: 64},
			WithPipeline(flatPipeline(time.Millisecond)),
			WithMaterializedCache(1<<20))
		var ce *ConfigError
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), "cluster-owned") {
			t.Fatalf("err = %v, want cluster-owned ConfigError", err)
		}
	})
	t.Run("negative", func(t *testing.T) {
		_, err := Open(sessionDataset{n: 64}, WithMaterializedCache(-1))
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want ConfigError", err)
		}
	})
	t.Run("negative-cluster", func(t *testing.T) {
		_, err := NewCluster(WithMaterializedCache(-1))
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want ConfigError", err)
		}
	})
	t.Run("exceeds-page-cache", func(t *testing.T) {
		_, err := NewCluster(
			WithEnv(EnvConfig{Cores: 2, CacheBytes: 1 << 20}),
			WithMaterializedCache(2<<20))
		var ce *ConfigError
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), "exceeds the page cache") {
			t.Fatalf("err = %v, want capacity ConfigError", err)
		}
	})
}

// Enabling the cache carves its capacity out of the page cache, so total
// simulated memory stays constant.
func TestWarmCapacityCarvedFromPageCache(t *testing.T) {
	cl, err := NewCluster(
		WithEnv(EnvConfig{Cores: 2, CacheBytes: 8 << 20}),
		WithMaterializedCache(3<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := cl.Stats()
	if got := st.Cache.Capacity; got != 5<<20 {
		t.Fatalf("page cache capacity = %d, want %d", got, 5<<20)
	}
	if got := st.MatCache.Capacity; got != 3<<20 {
		t.Fatalf("materialized cache capacity = %d, want %d", got, 3<<20)
	}
}

// Live session stats expose the tenant's slice of the materialized cache.
func TestWarmSessionStatsLive(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4}), WithMaterializedCache(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess := openTenant(t, cl, fmt.Sprintf("live-%d", 0), 64, WithEpochs(1), WithIterations(0))
	for _, err := range sess.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := sess.Stats().MatCache.Fills; got == 0 {
		t.Fatal("live session stats report no materialized fills")
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Stats().MatCache.Fills; got != rep.MatCacheStats.Fills {
		t.Fatalf("frozen stats %d != report %d", got, rep.MatCacheStats.Fills)
	}
}

// A cache-tenant id is reused only once its departed owner holds no bytes in
// either tier. Here A's pages are all evicted but its materialized entries
// are still resident, so a newcomer must not get A's id: when it did, the
// newcomer's report claimed A's 4 MiB of materialized residency as its own.
func TestReusedTenantIDStartsWithNoMaterializedBytes(t *testing.T) {
	cl, err := NewCluster(WithEnv(EnvConfig{Cores: 4, CacheBytes: 32 << 20}), WithMaterializedCache(28<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const sample = 1 << 16
	a := drain(t, openTenant(t, cl, "a", 64, WithEpochs(1), WithIterations(0)))
	if a.MatCacheStats.Used != 64*sample {
		t.Fatalf("A materialized %d bytes, want %d", a.MatCacheStats.Used, 64*sample)
	}
	// C's 128 reads turn the 4 MiB page cache over twice: none of A's pages
	// is left, while A's materialized entries fit beside C's.
	c := drain(t, openTenant(t, cl, "c", 128, WithEpochs(1), WithIterations(0)))
	if c.CacheStats.Misses != 128 {
		t.Fatalf("C page-cache misses = %d, want 128", c.CacheStats.Misses)
	}
	if st := cl.Stats(); st.Cache.Used != 64*sample || st.MatCache.Used != (64+128)*sample {
		t.Fatalf("cluster residency: page %d, materialized %d", st.Cache.Used, st.MatCache.Used)
	}

	b := openTenant(t, cl, "b", 8, WithIterations(1))
	if got := b.Stats().MatCache.Used; got != 0 {
		t.Fatalf("B holds %d materialized bytes before reading anything, want 0", got)
	}
	rep := drain(t, b)
	if mc := rep.MatCacheStats; mc.Fills == 0 || mc.Used != mc.Fills*sample {
		t.Fatalf("B's report: %d fills but %d bytes resident, want %d", mc.Fills, mc.Used, mc.Fills*sample)
	}
}
