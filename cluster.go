package minato

import (
	"fmt"
	"slices"

	"github.com/minatoloader/minato/internal/cache"
	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/matcache"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trainer"
)

// clusterShare is a tenant's worker-quota handle in the cluster's fair
// arbitration.
type clusterShare = loader.Share

// AdmissionPolicy decides what Cluster.Open and Cluster.Train do when the
// cluster already hosts WithMaxSessions sessions.
type AdmissionPolicy int

const (
	// AdmitReject fails saturated opens immediately with
	// ErrClusterSaturated (the default).
	AdmitReject AdmissionPolicy = iota
	// AdmitQueue blocks saturated opens until a session slot frees
	// (approximately FIFO) or the cluster closes (ErrClusterClosed).
	AdmitQueue
)

// WithMaxSessions caps how many sessions the cluster hosts concurrently.
// Zero (the default) means unlimited. What happens to opens beyond the cap
// is decided by WithAdmission. NewCluster.
func WithMaxSessions(n int) Option {
	return Option{name: "WithMaxSessions", scope: atNewCluster, n: int64(n), apply: func(o *options, a Option) { o.maxSessions = int(a.n) }}
}

// WithAdmission sets the policy for opens arriving while the cluster is at
// WithMaxSessions capacity: AdmitReject (default) or AdmitQueue. NewCluster.
func WithAdmission(p AdmissionPolicy) Option {
	return Option{name: "WithAdmission", scope: atNewCluster, n: int64(p), apply: func(o *options, a Option) { o.admission = AdmissionPolicy(a.n) }}
}

// Cluster is a long-lived, shared machine hosting many concurrent loading
// and training sessions: one runtime, one CPU worker pool, one GPU set, one
// disk, one page cache, and one sample pool, multiplexed across tenants.
//
//	cluster, err := minato.NewCluster(
//	    minato.WithHardware(minato.ConfigA()),
//	    minato.WithMaxSessions(16),
//	    minato.WithAdmission(minato.AdmitQueue),
//	)
//	sess, err := cluster.Open(dataset, minato.WithPriority(2))
//
// Arbitration: preprocessing workers are shared fairly across tenant
// sessions, weighted by WithPriority — quotas rebalance whenever a session
// opens or closes, and each MinatoLoader's adaptive scheduler tracks its
// quota at the next tick. The page cache is shared with per-tenant
// attribution and soft capacity partitioning, so one tenant's working set
// cannot silently evict everyone else's, and each session's Report counts
// its own cache hits. Admission control (WithMaxSessions + WithAdmission)
// bounds the tenant count.
//
// A Cluster is safe for concurrent use. Its tenancy — admission, the session
// set, GPU placement, worker quotas, counters — is state of the cluster's
// kernel, like the caches, and Open, Train, Close and Stats each enter the
// kernel to touch it: call them from any goroutine that is not a task of
// that kernel (not from a Batches or StreamAll body). Sessions stream
// independently. Close marks the cluster closed (new opens fail, queued
// opens release with ErrClusterClosed) and reclaims the shared substrate
// once the last session has closed.
//
// A Cluster multiplexes many tenants over ONE machine. For the opposite
// shape — one training job spread data-parallel across MANY machines
// connected by a simulated interconnect — see WithNodes and Topology.
type Cluster struct {
	rt  *Runtime
	tb  *hardware.Testbed // the shared machine
	mat *matcache.Cache   // nil without WithMaterializedCache
	// tenants is the one tenant table under both cache tiers: a session
	// joins it once, and its id routes its traffic through both.
	tenants *cache.Tenants
	pool    *data.Pool
	shares  *loader.FairShare

	maxSessions int
	admission   AdmissionPolicy

	// The rest is the kernel's, like the caches.
	closed        bool
	reclaimed     bool
	active        int
	nextTenant    int
	openedTotal   int64
	rejectedTotal int64
	// waiters are the channels queued AdmitQueue opens wait on, outside the
	// kernel; release closes the oldest.
	waiters []chan struct{}
	// sessions are the open loading sessions, in admission order.
	sessions []*Session
	// gpuLoad counts sessions placed on each GPU; placement picks the
	// least-loaded devices so tenants spread across the cluster's GPUs
	// instead of stacking on a prefix.
	gpuLoad []int
}

// NewCluster builds a shared testbed for concurrent sessions. Hardware
// options (WithHardware, WithEnv, WithGPUs, WithRuntime) size the shared
// substrate exactly as they would a standalone Open; WithMaxSessions and
// WithAdmission configure tenancy. Defaults: an 8-core single-GPU
// environment on a fresh deterministic virtual runtime, unlimited
// sessions.
func NewCluster(opts ...Option) (*Cluster, error) {
	o, err := build(atNewCluster, opts)
	if err != nil {
		return nil, err
	}
	return newCluster(o)
}

// newCluster builds the substrate the (validated) options describe: an
// explicit cluster's, or the implicit one of a standalone Open or Train. It
// builds on the kernel, which may be shared (WithRuntime), and holds it.
func newCluster(co *options) (c *Cluster, err error) {
	rt := co.rt
	if rt == nil {
		rt = &Runtime{k: simtime.NewVirtual()}
	}
	c = &Cluster{rt: rt, maxSessions: co.maxSessions, admission: co.admission}
	rt.k.Do(func() { err = c.build(co) })
	if err != nil {
		return nil, err
	}
	return c, nil
}

// build is newCluster's on-kernel part.
func (c *Cluster) build(co *options) error {
	k := c.rt.k
	if err := k.SetTrace(co.trace); err != nil {
		return configErr("WithTracing", err.Error())
	}
	if co.hw != nil {
		cfg := *co.hw
		if co.gpus > 0 {
			cfg = cfg.WithGPUs(co.gpus)
		}
		c.tb = hardware.NewTestbed(k, cfg)
	} else {
		ec := EnvConfig{}
		if co.env != nil {
			ec = *co.env
		}
		if co.gpus > 0 {
			ec.GPUs = co.gpus
		}
		c.tb = buildEnv(k, ec)
	}
	c.tenants = c.tb.Cache.Tenants()
	if co.matBytes > 0 {
		// The materialized layer shares the machine's memory with the page
		// cache: carve its capacity out explicitly so the two layers never
		// double-count the same simulated bytes. Validate before reserving —
		// ReserveCapacity is a permanent, evicting shrink, and a failed
		// construction must not leave a caller-supplied testbed's page cache
		// mutilated.
		if pageCap := c.tb.Cache.Capacity(); co.matBytes > pageCap {
			return configErr("WithMaterializedCache",
				fmt.Sprintf("capacity %d exceeds the page cache's %d", co.matBytes, pageCap))
		}
		c.tb.Cache.ReserveCapacity(co.matBytes)
		c.mat = matcache.NewOn(co.matBytes, c.tenants)
		k.Own(c.mat)
	}
	c.pool = data.NewPool()
	k.Own(c.pool)
	c.shares = loader.NewFairShare(int(c.tb.CPU.Capacity()))
	c.gpuLoad = make([]int, len(c.tb.GPUs))
	k.Hold()
	return nil
}

// Runtime returns the runtime shared by every session of the cluster.
func (c *Cluster) Runtime() *Runtime { return c.rt }

// Open starts a data-loading session on the cluster's shared substrate.
// It accepts the session-level options of the standalone Open (pipeline,
// batch size, loader, budget, seed, priority); the hardware-shaping
// options are cluster-owned and return a *ConfigError here. WithGPUs
// selects how many of the cluster's GPUs the session shards delivery
// across (default: all of them).
//
// When the cluster is at WithMaxSessions capacity, Open rejects with
// ErrClusterSaturated or — under AdmitQueue — blocks until a slot frees.
// Queued opens are released with ErrClusterClosed if the cluster closes
// first. Open must be called from ordinary (untracked) goroutines, not
// from inside a virtual-kernel task.
func (c *Cluster) Open(dataset Dataset, opts ...Option) (*Session, error) {
	o, err := build(atClusterOpen, opts)
	if err != nil {
		return nil, err
	}
	var s *Session
	queued(func() (wait chan struct{}) {
		c.do(func() { s, wait, err = c.open(dataset, o, false, false) })
		return wait
	})
	return s, err
}

// queued makes enter, one kernel entry, again each time it comes back with
// the channel of a saturated AdmitQueue cluster, which the kernel closes
// when a slot frees: the opener waits for it here, outside the kernel.
func queued(enter func() chan struct{}) {
	for wait := enter(); wait != nil; wait = enter() {
		<-wait
	}
}

// open is Open's on-kernel form, which a server's dispatch task calls
// directly (served: see Session.served): it wires a session from built
// options. A saturated AdmitQueue cluster wires nothing and returns the
// channel to wait on instead (see queued).
func (c *Cluster) open(dataset Dataset, o *options, ownsCluster, served bool) (*Session, chan struct{}, error) {
	if dataset == nil {
		return nil, nil, configErr("Open", "requires a dataset")
	}
	f, err := o.resolveFactory()
	if err != nil {
		return nil, nil, err
	}
	script, err := o.resolveChaos(singleMachine)
	if err != nil {
		return nil, nil, err
	}
	gpuCount, err := c.sessionGPUs(o.gpus)
	if err != nil {
		return nil, nil, err
	}

	pipeline := o.pipeline
	if pipeline == nil {
		pipeline = NewPipeline("identity")
	}
	batchSize := o.batchSize
	if batchSize == 0 {
		batchSize = 32
	}
	epochs := o.epochs
	if o.iterations == 0 && epochs == 0 {
		epochs = 1
	}
	spec := Spec{
		Dataset:    dataset,
		Pipeline:   pipeline,
		BatchSize:  batchSize,
		Epochs:     epochs,
		Iterations: o.iterations,
		Seed:       o.seed,
		Skip:       o.skip,
	}
	if spec.BatchesPerEpoch() == 0 {
		return nil, nil, configErr("WithBatchSize", fmt.Sprintf("batch size %d exceeds dataset %q size %d",
			batchSize, dataset.Name(), dataset.Len()))
	}

	tenantID, wait, err := c.admit()
	if wait != nil || err != nil {
		return nil, wait, err
	}
	var s *Session
	if served {
		s = servedSession()
	} else {
		s = new(Session)
	}
	s.cl, s.ownsCluster, s.served = c, ownsCluster, served
	s.factory, s.spec, s.script = f, spec, script
	c.seat(&s.seat, o.weight, gpuCount)
	if !served {
		s.ledger = chaos.NewController(s.env.RT, 0, s.env.TraceTenant(), int(s.env.TraceNode), len(s.env.GPUs))
	}
	s.ld = f.New(&s.env, spec)
	s.stats = SessionStats{Tenant: tenantID, Dataset: dataset.Name(), Loader: f.Name, Priority: o.weight}
	s.rt, s.src, s.retain = c.rt, s, o.retain
	c.sessions = append(c.sessions, s)
	s.publish()
	return s, nil, nil
}

// Train runs a full training session — loader plus simulated GPU consumers
// — for a workload on the cluster's shared substrate, under the same
// admission control and worker arbitration as Open:
//
//	w, _ := minato.WorkloadByName("speech-3s", 1)
//	rep, err := cluster.Train(w, minato.WithPriority(2))
//
// It blocks until the training run completes and occupies one session slot
// for the duration.
func (c *Cluster) Train(w Workload, opts ...Option) (*Report, error) {
	o, err := build(atClusterTrain, opts)
	if err != nil {
		return nil, err
	}
	return c.train(w, o)
}

// shaped lays the budget options over a workload. With drop-last semantics a
// batch larger than the dataset yields zero batches per epoch, which would
// spin the index source forever instead of terminating; it is refused here,
// as Open refuses it.
func (o *options) shaped(w Workload) (Workload, error) {
	if o.batchSize > 0 {
		w.BatchSize = o.batchSize
	}
	if o.epochs > 0 {
		w = w.WithEpochs(o.epochs)
	}
	if o.iterations > 0 {
		w = w.WithIterations(o.iterations)
	}
	if w.Spec().BatchesPerEpoch() == 0 {
		return w, configErr("WithBatchSize", fmt.Sprintf("batch size %d exceeds dataset %q size %d",
			w.BatchSize, w.Dataset.Name(), w.Dataset.Len()))
	}
	return w, nil
}

// singleMachine is the chaos shape of every session of one machine.
func singleMachine(s ChaosScript) error { return s.Validate(0) }

// train runs one training session from built options: admission, tenancy
// and the run itself on one task of the cluster's kernel.
func (c *Cluster) train(w Workload, o *options) (*Report, error) {
	f, err := o.resolveFactory()
	if err != nil {
		return nil, err
	}
	script, err := o.resolveChaos(singleMachine)
	if err != nil {
		return nil, err
	}
	gpuCount, err := c.sessionGPUs(o.gpus)
	if err != nil {
		return nil, err
	}
	if w, err = o.shaped(w); err != nil {
		return nil, err
	}

	var rep *Report
	queued(func() (wait chan struct{}) {
		c.run(func() {
			if _, wait, err = c.admit(); wait != nil || err != nil {
				return
			}
			st := new(seat)
			c.seat(st, o.weight, gpuCount)
			rep, err = trainer.RunEnv(&st.env, w, f, o.params, script)
			c.unseat(st)
			c.release()
		})
		return wait
	})
	return rep, err
}

// seat is a session's place on the shared machine: its worker share, its
// cache tenancy, its GPUs, and its view of the substrate, together with the
// values that view points into — its tenant store and its task group — so
// one allocation holds all of it and a recycled session keeps their storage.
type seat struct {
	share       clusterShare
	cacheTenant int
	gpuIdxs     []int
	env         Env // the loader's, which holds its address
	store       storage.Store
	wg          simtime.WaitGroup
}

// seat gives a session its place: it joins the fair worker arbitration
// (every open session then publishes its rebalanced quota) and the cache
// tenancy, and is placed on gpus GPUs. unseat takes the place back. On the
// kernel.
func (c *Cluster) seat(st *seat, weight float64, gpus int) {
	c.shares.Join(&st.share, weight)
	c.republish()
	st.cacheTenant = c.tenants.Join()
	st.gpuIdxs = c.acquireGPUs(slices.Grow(st.gpuIdxs[:0], gpus), gpus)
	c.sessionEnv(st)
}

func (c *Cluster) unseat(st *seat) {
	c.tenants.Leave(st.cacheTenant)
	c.releaseGPUs(st.gpuIdxs)
	st.share.Leave()
	c.republish()
}

func (c *Cluster) republish() {
	for _, s := range c.sessions {
		s.publish()
	}
}

// sessionGPUs validates how many of the cluster's GPUs a session may use.
func (c *Cluster) sessionGPUs(requested int) (int, error) {
	if requested == 0 {
		return len(c.tb.GPUs), nil
	}
	if requested > len(c.tb.GPUs) {
		return 0, configErr("WithGPUs", fmt.Sprintf("session requests %d GPUs but the cluster has %d",
			requested, len(c.tb.GPUs)))
	}
	return requested, nil
}

// acquireGPUs places a session on the n least-loaded GPUs (ties broken by
// device index, so placement is deterministic for a deterministic open
// order) and appends the chosen indices to idxs. releaseGPUs undoes the
// placement.
func (c *Cluster) acquireGPUs(idxs []int, n int) []int {
	for range n {
		best := -1
		for i, load := range c.gpuLoad {
			if slices.Contains(idxs, i) {
				continue
			}
			if best < 0 || load < c.gpuLoad[best] {
				best = i
			}
		}
		c.gpuLoad[best]++
		idxs = append(idxs, best)
	}
	return idxs
}

func (c *Cluster) releaseGPUs(idxs []int) {
	for _, i := range idxs {
		c.gpuLoad[i]--
	}
}

// sessionEnv fills st.env, a session's view of the shared substrate: shared
// runtime, CPU, the placed GPUs, disk, cache (tenant-routed), and pool; a
// private WaitGroup for teardown; the tenant's worker-quota governor.
func (c *Cluster) sessionEnv(st *seat) {
	gpus := slices.Grow(st.env.GPUs[:0], len(st.gpuIdxs))
	for _, g := range st.gpuIdxs {
		gpus = append(gpus, c.tb.GPUs[g])
	}
	st.store = c.tb.Store.WithTenant(st.cacheTenant)
	st.wg.Init(c.rt.k)
	st.env = Env{
		RT:    c.rt.k,
		CPU:   c.tb.CPU,
		GPUs:  gpus,
		Store: &st.store,
		WG:    &st.wg,
		Pool:  c.pool,
		Gov:   &st.share,
		Mat:   c.mat,
	}
}

// admit takes one session slot, applying the admission policy, and returns
// the tenant sequence number — or, on a saturated AdmitQueue cluster, the
// channel release closes when a slot frees. On the kernel.
func (c *Cluster) admit() (int, chan struct{}, error) {
	if c.closed {
		return 0, nil, ErrClusterClosed
	}
	if c.maxSessions > 0 && c.active >= c.maxSessions {
		if c.admission == AdmitReject {
			c.rejectedTotal++
			return 0, nil, ErrClusterSaturated
		}
		wait := make(chan struct{})
		c.waiters = append(c.waiters, wait)
		return 0, wait, nil
	}
	c.active++
	c.openedTotal++
	c.nextTenant++
	return c.nextTenant, nil, nil
}

// release frees one session slot, waking the longest-queued opener.
func (c *Cluster) release() {
	c.active--
	if len(c.waiters) > 0 {
		close(c.waiters[0])
		c.waiters = c.waiters[1:]
	}
}

// releaseSession ends a session's tenancy: it leaves the session set and
// its seat, and frees its slot. On the kernel.
func (c *Cluster) releaseSession(s *Session) {
	if i := slices.Index(c.sessions, s); i >= 0 {
		c.sessions = slices.Delete(c.sessions, i, i+1)
	}
	c.unseat(&s.seat)
	c.release()
}

// do runs fn on the cluster's kernel, the one entry of an outside call, and
// then the reclaim fn may have made due (see reclaim); run is do for an fn
// that parks, as a task. The entry in which the kernel's last hold goes, the
// cluster's or a server's, recycles the kernel: Recycle waits for every task.
func (c *Cluster) do(fn func())  { c.enter(false, fn) }
func (c *Cluster) run(fn func()) { c.enter(true, fn) }

func (c *Cluster) enter(parks bool, fn func()) {
	k := c.rt.k
	var last bool
	body := func() {
		held := k.Held()
		fn()
		c.reclaim()
		last = held && !k.Held()
	}
	if parks {
		k.Run(body)
	} else {
		k.Do(body)
	}
	if last {
		k.Recycle()
	}
}

// reclaim gives back the cluster's hold on its kernel once the cluster is
// closed and its last session gone; the kernel's teardown recycles the
// cluster's testbed, pool and caches. A server's stream task that closes the
// last session leaves the reclaim to the next outside entry. On the kernel.
func (c *Cluster) reclaim() {
	if !c.closed || c.active > 0 || c.reclaimed {
		return
	}
	c.reclaimed = true
	c.rt.k.Release()
}

// Close marks the cluster closed: new opens fail with ErrClusterClosed and
// queued opens release with the same error. Once its last active session
// closes — at once, when none is — the cluster gives back its hold on the
// runtime, and the call that releases the runtime's last hold recycles
// everything registered with its kernel (see enter). Close is idempotent and
// safe to call concurrently with session activity.
func (c *Cluster) Close() error {
	c.do(c.close)
	return nil
}

// close is Close's on-kernel form.
func (c *Cluster) close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, wait := range c.waiters {
		close(wait)
	}
	c.waiters = nil
}

// ClusterStats is a live snapshot of a cluster's tenancy and shared
// resources.
type ClusterStats struct {
	// MaxSessions is the configured cap (0 = unlimited); ActiveSessions the
	// current tenant count; QueuedOpens how many AdmitQueue opens are
	// waiting for a slot.
	MaxSessions    int
	ActiveSessions int
	QueuedOpens    int
	// OpenedTotal and RejectedTotal count admissions and AdmitReject
	// refusals over the cluster's lifetime.
	OpenedTotal   int64
	RejectedTotal int64
	// WorkerCapacity is the CPU worker capacity being arbitrated across
	// tenants.
	WorkerCapacity int
	// Cache and Pool snapshot the shared page cache (whole-cache view) and
	// sample pool; MatCache the materialized preprocessed-sample cache
	// (zero when WithMaterializedCache is not enabled).
	Cache    CacheStats
	MatCache CacheStats
	Pool     PoolStats
	// Sessions holds a live SessionStats per open loading session, in
	// tenant (admission) order. Training runs (Cluster.Train) occupy session
	// slots — they are counted in ActiveSessions — but stream through no
	// public Session, so they do not appear here.
	Sessions []SessionStats
}

// SessionStats is a live snapshot of one session — see Session.Stats.
type SessionStats struct {
	// Tenant is the session's admission sequence number (1-based).
	Tenant  int
	Dataset string
	Loader  string
	// Priority is the WithPriority weight; WorkerQuota the current fair
	// share of preprocessing workers it buys.
	Priority    float64
	WorkerQuota int
	// State is "open" (not yet consumed), "streaming", or "closed".
	State string
	// Batches, Samples, Bytes count deliveries so far.
	Batches int64
	Samples int64
	Bytes   int64
	// Cache is the session's attributable slice of the shared page cache;
	// MatCache its slice of the materialized preprocessed-sample cache
	// (zero when WithMaterializedCache is not enabled).
	Cache    CacheStats
	MatCache CacheStats
}

// Stats returns a live snapshot of the cluster: tenancy counters, the
// shared cache and pool, and per-session statistics. Safe to call from any
// goroutine while sessions stream except a task of the cluster's kernel (a
// Batches or StreamAll body): the snapshot is taken there, between two tasks.
func (c *Cluster) Stats() (st ClusterStats) {
	c.rt.k.Do(func() {
		st = ClusterStats{
			MaxSessions:    c.maxSessions,
			ActiveSessions: c.active,
			QueuedOpens:    len(c.waiters),
			OpenedTotal:    c.openedTotal,
			RejectedTotal:  c.rejectedTotal,
			WorkerCapacity: c.shares.Capacity(),
			Pool:           c.pool.Stats(),
			Cache:          c.tb.Cache.Stats(),
			MatCache:       c.mat.Stats(),
		}
		for _, s := range c.sessions {
			s.publish()
			st.Sessions = append(st.Sessions, s.Stats())
		}
	})
	return st
}
