package minato

import (
	"fmt"
	"strings"
	"sync"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/matcache"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trace"
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
	return Option{"WithMaxSessions", atNewCluster, func(o *options) { o.maxSessions = n }}
}

// WithAdmission sets the policy for opens arriving while the cluster is at
// WithMaxSessions capacity: AdmitReject (default) or AdmitQueue. NewCluster.
func WithAdmission(p AdmissionPolicy) Option {
	return Option{"WithAdmission", atNewCluster, func(o *options) { o.admission = p }}
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
// A Cluster is safe for concurrent use. Open, Train, and Stats may be
// called from any goroutine that is not a task of the cluster's kernel (they
// enter it to touch the shared caches); sessions stream independently. Close
// marks the cluster closed (new opens fail, queued opens release with
// ErrClusterClosed) and reclaims the shared substrate once the last
// session has closed.
//
// A Cluster multiplexes many tenants over ONE machine. For the opposite
// shape — one training job spread data-parallel across MANY machines
// connected by a simulated interconnect — see TrainMultiNode and Topology.
type Cluster struct {
	rt     Runtime
	ownsRT bool
	cpu    *device.Device
	gpus   []*gpu.GPU
	disk   *storage.Disk
	cache  *storage.PageCache
	mat    *matcache.Cache
	store  *storage.Store
	pool   *data.Pool
	shares *loader.FairShare
	tr     *trace.Recorder

	maxSessions int
	admission   AdmissionPolicy

	mu            sync.Mutex
	closed        bool
	reclaimed     bool
	active        int
	nextTenant    int
	waiters       []chan struct{}
	openedTotal   int64
	rejectedTotal int64
	sessions      map[*Session]struct{}
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
// explicit cluster's, or the implicit one of a standalone Open or Train.
func newCluster(co *options) (*Cluster, error) {
	rt := co.rt
	ownsRT := rt == nil
	if ownsRT {
		rt = simtime.NewVirtual()
	}
	c := &Cluster{
		rt: rt, ownsRT: ownsRT,
		maxSessions: co.maxSessions,
		admission:   co.admission,
		pool:        data.NewPool(),
		sessions:    make(map[*Session]struct{}),
	}
	if co.hw != nil {
		cfg := *co.hw
		if co.gpus > 0 {
			cfg = cfg.WithGPUs(co.gpus)
		}
		tb := hardware.NewTestbed(rt, cfg)
		c.cpu, c.gpus, c.disk, c.cache, c.store = tb.CPU, tb.GPUs, tb.Disk, tb.Cache, tb.Store
	} else {
		ec := EnvConfig{}
		if co.env != nil {
			ec = *co.env
		}
		if co.gpus > 0 {
			ec.GPUs = co.gpus
		}
		env, disk, cache := buildEnv(rt, ec)
		c.cpu, c.gpus, c.disk, c.cache = env.CPU, env.GPUs, disk, cache
		c.store = env.Store
	}
	if co.matBytes > 0 {
		if c.cache == nil {
			return nil, configErr("WithMaterializedCache", "requires a page cache to carve capacity from")
		}
		// The materialized layer shares the machine's memory with the page
		// cache: carve its capacity out explicitly so the two layers never
		// double-count the same simulated bytes. Validate before reserving —
		// ReserveCapacity is a permanent, evicting shrink, and a failed
		// construction must not leave a caller-supplied testbed's page cache
		// mutilated.
		if pageCap := c.cache.Capacity(); co.matBytes > pageCap {
			return nil, configErr("WithMaterializedCache",
				fmt.Sprintf("capacity %d exceeds the page cache's %d", co.matBytes, pageCap))
		}
		c.cache.ReserveCapacity(co.matBytes)
		c.mat = matcache.New(co.matBytes)
	}
	if co.trace != nil {
		c.tr = co.trace
		// GPU kernel occupancy is recorded at the device; the per-tenant
		// step anatomy comes from consumer-side spans, so the device spans
		// carry tenant 0 and the GPU index as Key.
		for _, g := range c.gpus {
			g.EnableTrace(co.trace, 0, 0)
		}
		if c.store != nil {
			cp := *c.store
			cp.Trace = co.trace
			c.store = &cp
		}
	}
	c.shares = loader.NewFairShare(int(c.cpu.Capacity()))
	c.gpuLoad = make([]int, len(c.gpus))
	return c, nil
}

// Runtime returns the runtime shared by every session of the cluster.
func (c *Cluster) Runtime() Runtime { return c.rt }

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
	return c.open(dataset, o, false, false)
}

// open wires a session from built options. served says the caller is a
// server's dispatch task opening a stream (Session.served), on the cluster's
// kernel and not, as everyone else, outside it.
func (c *Cluster) open(dataset Dataset, o *options, ownsCluster, served bool) (*Session, error) {
	if dataset == nil {
		return nil, configErr("Open", "requires a dataset")
	}
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
		return nil, configErr("WithBatchSize", fmt.Sprintf("batch size %d exceeds dataset %q size %d",
			batchSize, dataset.Name(), dataset.Len()))
	}

	tenantID, err := c.admit()
	if err != nil {
		return nil, err
	}
	share := c.shares.Join(o.weight)
	cacheTenant, usage := c.joinTenantFrom(served)
	gpuIdxs := c.acquireGPUs(gpuCount)
	env := c.sessionEnv(gpuIdxs, cacheTenant, share)

	ld := f.New(env, spec)
	name := f.Name
	if name == "" {
		name = ld.Name()
	}
	s := &Session{
		cl:          c,
		ownsCluster: ownsCluster,
		served:      served,
		tenantID:    tenantID,
		cacheTenant: cacheTenant,
		share:       share,
		gpuIdxs:     gpuIdxs,
		weight:      o.weight,
		env:         env,
		ld:          ld,
		factory:     f,
		name:        name,
		spec:        spec,
		script:      script,
		usage:       usage,
	}
	s.rt, s.src, s.retain = c.rt, s, o.retain
	c.mu.Lock()
	c.sessions[s] = struct{}{}
	c.mu.Unlock()
	return s, nil
}

// Train runs a full training session — loader plus simulated GPU consumers
// — for a registered workload on the cluster's shared substrate, under the
// same admission control and worker arbitration as Open:
//
//	rep, err := cluster.Train("speech-3s", minato.WithPriority(2))
//
// It blocks until the training run completes and occupies one session slot
// for the duration.
func (c *Cluster) Train(workloadName string, opts ...Option) (*Report, error) {
	o, err := build(atClusterTrain, opts)
	if err != nil {
		return nil, err
	}
	w, ok := WorkloadByName(workloadName, o.seed)
	if !ok {
		return nil, configErr("Train", fmt.Sprintf("unknown workload %q (registered: %s)",
			workloadName, strings.Join(Workloads(), ", ")))
	}
	return c.train(w, o)
}

// TrainWorkload is Cluster.Train for a workload value built directly.
func (c *Cluster) TrainWorkload(w Workload, opts ...Option) (*Report, error) {
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

// train runs one training session from built options.
func (c *Cluster) train(w Workload, o *options) (*Report, error) {
	f, err := o.resolveFactory()
	if err != nil {
		return nil, err
	}
	script, err := o.resolveChaos(singleMachine)
	if err != nil {
		return nil, err
	}
	o.params.Chaos = script
	gpuCount, err := c.sessionGPUs(o.gpus)
	if err != nil {
		return nil, err
	}
	if w, err = o.shaped(w); err != nil {
		return nil, err
	}

	if _, err := c.admit(); err != nil {
		return nil, err
	}
	share := c.shares.Join(o.weight)
	gpuIdxs := c.acquireGPUs(gpuCount)
	defer func() {
		c.releaseGPUs(gpuIdxs)
		share.Leave()
		c.release(false)
	}()

	if c.tr != nil {
		o.params.Trace = c.tr
	}
	var rep *Report
	c.rt.Run(func() {
		cacheTenant := c.joinTenant()
		defer c.leaveTenant(cacheTenant)
		env := c.sessionEnv(gpuIdxs, cacheTenant, share)
		rep, err = trainer.RunEnv(env, w, f, o.params)
	})
	return rep, err
}

// joinTenant registers a session with the shared caches and returns its
// tenant id; leaveTenant undoes it. On the cluster's kernel, like every touch
// of the caches.
func (c *Cluster) joinTenant() (id int) {
	if c.cache != nil {
		id = c.cache.JoinTenant()
	}
	if c.mat != nil {
		// The materialized cache shares the page cache's tenant ids, so one
		// id routes a session's traffic through both layers.
		c.mat.JoinTenant(id)
	}
	return id
}

// joinTenantFrom is joinTenant for open, with the new tenant's first usage
// snapshot: a server's per-stream opens are on a task already and do not pay
// for the closure the outside ones enter through.
func (c *Cluster) joinTenantFrom(onTask bool) (int, sessionUsage) {
	if onTask {
		id := c.joinTenant()
		return id, c.tenantUsage(id)
	}
	var id int
	var u sessionUsage
	c.rt.Do(func() { id = c.joinTenant(); u = c.tenantUsage(id) })
	return id, u
}

// tenantUsage reads a tenant's slice of the shared caches and disk; on the
// cluster's kernel.
func (c *Cluster) tenantUsage(id int) (u sessionUsage) {
	if c.cache != nil {
		u.cache = c.cache.TenantStats(id)
		u.disk = c.cache.TenantDiskBytes(id)
	} else if c.disk != nil {
		u.disk = c.disk.BytesRead()
	}
	if c.mat != nil {
		u.mat = c.mat.TenantStats(id)
	}
	return u
}

func (c *Cluster) leaveTenant(id int) {
	if c.cache != nil {
		c.cache.LeaveTenant(id)
	}
	if c.mat != nil {
		c.mat.LeaveTenant(id)
	}
}

// sessionGPUs validates how many of the cluster's GPUs a session may use.
func (c *Cluster) sessionGPUs(requested int) (int, error) {
	if requested == 0 {
		return len(c.gpus), nil
	}
	if requested > len(c.gpus) {
		return 0, configErr("WithGPUs", fmt.Sprintf("session requests %d GPUs but the cluster has %d",
			requested, len(c.gpus)))
	}
	return requested, nil
}

// acquireGPUs places a session on the n least-loaded GPUs (ties broken by
// device index, so placement is deterministic for a deterministic open
// order) and returns the chosen indices. releaseGPUs undoes the placement.
func (c *Cluster) acquireGPUs(n int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	idxs := make([]int, 0, n)
	taken := make([]bool, len(c.gpuLoad))
	for len(idxs) < n {
		best := -1
		for i, load := range c.gpuLoad {
			if taken[i] {
				continue
			}
			if best < 0 || load < c.gpuLoad[best] {
				best = i
			}
		}
		taken[best] = true
		c.gpuLoad[best]++
		idxs = append(idxs, best)
	}
	return idxs
}

func (c *Cluster) releaseGPUs(idxs []int) {
	c.mu.Lock()
	for _, i := range idxs {
		c.gpuLoad[i]--
	}
	c.mu.Unlock()
}

// sessionEnv assembles a session's view of the shared substrate: shared
// runtime, CPU, the placed GPUs, disk, cache (tenant-routed), and pool; a
// private WaitGroup for teardown; the tenant's worker-quota governor.
func (c *Cluster) sessionEnv(gpuIdxs []int, cacheTenant int, share *clusterShare) *Env {
	gpus := make([]*gpu.GPU, len(gpuIdxs))
	for i, g := range gpuIdxs {
		gpus[i] = c.gpus[g]
	}
	return &Env{
		RT:    c.rt,
		CPU:   c.cpu,
		GPUs:  gpus,
		Store: c.store.WithTenant(cacheTenant),
		WG:    simtime.NewWaitGroup(c.rt),
		Pool:  c.pool,
		Gov:   share,
		Mat:   c.mat,
		Trace: c.tr,
	}
}

// admit takes one session slot, applying the admission policy, and returns
// the tenant sequence number.
func (c *Cluster) admit() (int, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return 0, ErrClusterClosed
		}
		if c.maxSessions <= 0 || c.active < c.maxSessions {
			break
		}
		if c.admission == AdmitReject {
			c.rejectedTotal++
			c.mu.Unlock()
			return 0, ErrClusterSaturated
		}
		ch := make(chan struct{})
		c.waiters = append(c.waiters, ch)
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
	}
	c.active++
	c.openedTotal++
	c.nextTenant++
	id := c.nextTenant
	c.mu.Unlock()
	return id, nil
}

// release frees one session slot, admitting the longest-queued waiter.
// onTask: the caller is a task of the cluster's kernel.
func (c *Cluster) release(onTask bool) {
	c.mu.Lock()
	c.active--
	var wake chan struct{}
	if len(c.waiters) > 0 {
		wake = c.waiters[0]
		c.waiters = c.waiters[1:]
	}
	reclaim := c.closed && c.active == 0 && !c.reclaimed
	if reclaim {
		c.reclaimed = true
	}
	c.mu.Unlock()
	if wake != nil {
		close(wake)
	}
	if reclaim {
		c.reclaim(onTask)
	}
}

// releaseSession ends a session's tenancy: quota rebalance and slot release
// (the session has left the caches itself, on the kernel).
func (c *Cluster) releaseSession(s *Session) {
	c.mu.Lock()
	delete(c.sessions, s)
	c.mu.Unlock()
	c.releaseGPUs(s.gpuIdxs)
	if s.share != nil {
		s.share.Leave()
	}
	c.release(s.served)
}

func (c *Cluster) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// reclaim drains the cluster-owned virtual kernel and recycles the shared
// cache storage. Runs at most once, after close with no active sessions.
func (c *Cluster) reclaim(onTask bool) {
	if c.ownsRT {
		c.rt.Drain()
	}
	if onTask || c.ownsRT { // on the kernel already, or nobody is left on it
		c.recycle()
	} else {
		c.rt.Do(c.recycle)
	}
}

func (c *Cluster) recycle() {
	if c.cache != nil {
		c.cache.Recycle()
	}
	if c.mat != nil {
		c.mat.Recycle()
	}
}

// Close marks the cluster closed: new opens fail with ErrClusterClosed and
// queued opens release with the same error. The shared substrate (kernel
// tasks, cache storage) is reclaimed once the last active session closes —
// immediately, when none is. Close is idempotent and safe to call
// concurrently with session activity.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		reclaimNow := c.active == 0 && !c.reclaimed
		if reclaimNow {
			c.reclaimed = true
		}
		c.mu.Unlock()
		if reclaimNow {
			c.reclaim(false)
		}
		return nil
	}
	c.closed = true
	ws := c.waiters
	c.waiters = nil
	reclaimNow := c.active == 0 && !c.reclaimed
	if reclaimNow {
		c.reclaimed = true
	}
	c.mu.Unlock()
	for _, ch := range ws {
		close(ch)
	}
	if reclaimNow {
		c.reclaim(false)
	}
	return nil
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
	MatCache MatCacheStats
	Pool     PoolStats
	// Sessions holds a live SessionStats per open loading session, in no
	// particular order. Training runs (Cluster.Train) occupy session slots
	// — they are counted in ActiveSessions — but stream through no public
	// Session, so they do not appear here.
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
	MatCache MatCacheStats
}

// Stats returns a live snapshot of the cluster: tenancy counters, the
// shared cache and pool, and per-session statistics. Safe to call from any
// goroutine while sessions stream except a task of the cluster's kernel (a
// Batches or StreamAll body): the snapshot is taken there, between two tasks.
func (c *Cluster) Stats() ClusterStats {
	c.mu.Lock()
	st := ClusterStats{
		MaxSessions:    c.maxSessions,
		ActiveSessions: c.active,
		QueuedOpens:    len(c.waiters),
		OpenedTotal:    c.openedTotal,
		RejectedTotal:  c.rejectedTotal,
		WorkerCapacity: c.shares.Capacity(),
	}
	sessions := make([]*Session, 0, len(c.sessions))
	for s := range c.sessions {
		sessions = append(sessions, s)
	}
	c.mu.Unlock()
	c.rt.Do(func() {
		if c.cache != nil {
			st.Cache = c.cache.Stats()
		}
		if c.mat != nil {
			st.MatCache = c.mat.Stats()
		}
		for _, s := range sessions {
			s.publish()
			st.Sessions = append(st.Sessions, s.Stats())
		}
	})
	st.Pool = c.pool.Stats()
	return st
}
