// Package storage models the persistent-storage path of the training
// pipeline: a bandwidth-shared disk (NVMe or a parallel filesystem) fronted
// by an OS page cache with a byte capacity.
//
// This is the substrate for §5.5's memory-constrained experiment: a 230 GB
// dataset under an 80 GB cgroup cap forces every epoch to hit storage, so
// loader quality shows up as sustained versus volatile disk reads.
package storage

import (
	"context"
	"time"

	"github.com/minatoloader/minato/internal/cache"
	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
)

// Disk is a bandwidth-shared storage device. Parallelism is the number of
// concurrent streams that can each sustain full per-stream bandwidth
// (Lustre-like filesystems serve several clients at once; an NVMe drive
// saturates with few). Task-only, like the device under it.
type Disk struct {
	rt       *simtime.Virtual
	dev      *device.Device
	streamBW float64 // bytes per second per stream

	// sched is the degradation timeline (failure injection), sorted by
	// instant: a read takes the factor of the last point at or before its
	// start, 1 before the first. It is data, not a task, so installing a
	// script parks nobody and moves no clock — Serve installs one on a
	// kernel that is still idle.
	sched []slowdownPoint

	bytesRead int64
}

// slowdownPoint is one step of a scheduled degradation timeline.
type slowdownPoint struct {
	at time.Duration
	f  float64
}

// NewDisk returns a disk with the given aggregate bandwidth split across
// `parallelism` full-speed streams.
func NewDisk(rt *simtime.Virtual, name string, aggregateBW float64, parallelism float64) *Disk {
	if parallelism < 1 {
		parallelism = 1
	}
	return &Disk{
		rt:       rt,
		dev:      device.New(rt, name, parallelism),
		streamBW: aggregateBW / parallelism,
	}
}

// Read occupies the disk for n bytes.
func (d *Disk) Read(ctx context.Context, n int64) error {
	if n <= 0 {
		return nil
	}
	f := 1.0
	if len(d.sched) > 0 {
		now := d.rt.Now()
		for i := len(d.sched) - 1; i >= 0; i-- {
			if d.sched[i].at <= now {
				f = d.sched[i].f
				break
			}
		}
	}
	if err := d.dev.Run(ctx, time.Duration(float64(n)*f/d.streamBW*float64(time.Second))); err != nil {
		return err
	}
	d.bytesRead += n
	return nil
}

// ScheduleSlowdown installs a degradation step: reads starting at or after
// `at` take factor× longer (factor ≥ 1; 1 restores full speed), until a
// later scheduled point. Models transient contention on shared filesystems
// or a failing drive — the I/O interference §5.3 observes on the Lustre
// testbed.
func (d *Disk) ScheduleSlowdown(at time.Duration, factor float64) {
	if factor < 1 {
		factor = 1
	}
	i := len(d.sched)
	for i > 0 && d.sched[i-1].at > at {
		i--
	}
	d.sched = append(d.sched, slowdownPoint{})
	copy(d.sched[i+1:], d.sched[i:])
	d.sched[i] = slowdownPoint{at: at, f: factor}
}

// BytesRead returns the cumulative bytes transferred (completed reads).
func (d *Disk) BytesRead() int64 { return d.bytesRead }

// PageCache is the OS page cache: raw sample bytes by storage key, with a
// byte capacity, evicting least-recently-used entries (internal/cache's LRU
// policy, with its soft per-tenant partition). Its fills are single-flighted:
// concurrent readers of a key being fetched park on the leader's read
// instead of issuing their own.
type PageCache = cache.Cache[data.Key]

// pagePool is the page caches' storage. Its bounds are the peaks of the
// benchmark workloads: fleet-64gpu's page cache holds 150 slabs (about
// 3.4 MiB at 160), and multinode8-flashcrowd runs 8 page caches at once.
var pagePool = cache.NewPool[data.Key](160, 8)

// NewPageCache returns a cache with the given byte capacity, on a new table.
func NewPageCache(capacity int64) *PageCache {
	return cache.New(capacity, cache.LRU, pagePool, new(cache.Tenants), 0)
}

// RemoteFetcher moves n fetched bytes from the storage server to the
// reading node over the cluster interconnect. The multi-node runner
// implements it with a netsim fabric transfer, so cold reads contend with
// gradient traffic on the reading node's NIC; a nil fetcher means storage
// is node-local.
type RemoteFetcher interface {
	Fetch(ctx context.Context, n int64) error
}

// Store is the sample-loading path: page cache over disk. Tenant routes the
// cache traffic for attribution when the cache is shared by several sessions
// (zero — the unattributed tenant — when it is not); each cluster session
// holds its own Store value pointing at the shared disk and cache.
type Store struct {
	Disk   *Disk
	Cache  *PageCache // nil disables caching
	Tenant int
	// Remote, when set, models storage reached over the network: every
	// uncached read pays a fabric transfer (after the disk occupancy) in
	// addition to the disk time — the Lustre-over-interconnect path of §3's
	// Config A, now with real contention.
	Remote RemoteFetcher
	// On a traced kernel the store records its reads as spans: disk
	// occupancy, remote fetches, and the page cache's hit/fill/wait protocol
	// (a follower's wait shares its leader's (Tenant, Key) identity).
	// TraceNode stamps the reading node.
	TraceNode int32
	// DiskBytes counts the raw bytes this store's reads fetched from
	// storage — per session, the disk traffic it caused on a disk whose own
	// counter mixes every tenant.
	DiskBytes int64
}

// WithTenant returns a copy of the store routing cache traffic as the given
// tenant, with its own DiskBytes count: a value, for its holder to keep
// where it keeps the rest of the tenant's state.
func (st *Store) WithTenant(id int) Store {
	cp := *st
	cp.Tenant, cp.DiskBytes = id, 0
	return cp
}

// ReadSample loads a sample's raw bytes, hitting the cache when possible
// and stamping the sample's LoadedAt time. Cache fills are single-flighted:
// the first reader of an uncached key fetches it from disk while concurrent
// readers of the same key — typically sibling sessions warming up over a
// shared dataset — park until the fetch lands and then count a shared hit,
// instead of issuing redundant reads for bytes already on their way.
func (st *Store) ReadSample(ctx context.Context, rt *simtime.Virtual, s *data.Sample) error {
	if st.Cache == nil {
		if err := st.fetch(ctx, rt, s); err != nil {
			return err
		}
		s.LoadedAt = rt.Now()
		return nil
	}
	first := true
	for {
		t0 := rt.Now()
		_, hit, waiter := st.Cache.GetOrBegin(st.Tenant, s.Key, rt)
		if hit {
			if first {
				// A follower finding the published fill on re-check already
				// recorded its wait; only a first-try hit is an instant.
				rt.Trace().Instant(st.span(trace.StageCacheHit, t0, t0, s), t0)
			}
			break
		}
		if waiter == nil { // leader: fetch and publish
			if err := st.fetch(ctx, rt, s); err != nil {
				st.Cache.Abort(s.Key)
				return err
			}
			st.Cache.Complete(st.Tenant, s.Key, cache.Entry{Bytes: s.RawBytes})
			rt.Trace().Record(st.span(trace.StageCacheFill, t0, rt.Now(), s))
			break
		}
		if err := waiter.Wait(ctx); err != nil {
			return err
		}
		rt.Trace().Record(st.span(trace.StageCacheWait, t0, rt.Now(), s))
		first = false
	}
	s.LoadedAt = rt.Now()
	return nil
}

// span stamps a storage span for sample s: Key is the sample index, Seq
// its global draw order, Detail its raw size — the identity a follower's
// wait shares with its leader's fill.
func (st *Store) span(stage trace.Stage, start, end time.Duration, s *data.Sample) trace.Span {
	return trace.Span{Start: start, End: end, Stage: stage,
		Tenant: int32(st.Tenant), Node: st.TraceNode,
		Key: int64(s.Index), Seq: s.OriginalOrder, Detail: s.RawBytes}
}

// fetch is the uncached read path: the disk occupancy, then — for remote
// storage — the network transfer to the reading node.
func (st *Store) fetch(ctx context.Context, rt *simtime.Virtual, s *data.Sample) error {
	t0 := rt.Now()
	if err := st.Disk.Read(ctx, s.RawBytes); err != nil {
		return err
	}
	rt.Trace().Record(st.span(trace.StageDiskRead, t0, rt.Now(), s))
	if st.Remote != nil {
		t1 := rt.Now()
		if err := st.Remote.Fetch(ctx, s.RawBytes); err != nil {
			return err
		}
		rt.Trace().Record(st.span(trace.StageRemoteFetch, t1, rt.Now(), s))
	}
	st.DiskBytes += s.RawBytes
	return nil
}
