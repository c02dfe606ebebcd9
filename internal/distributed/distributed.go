// Package distributed extends the single-server evaluation to the
// multi-node data-parallel setting the paper discusses in §6: each node is
// a full testbed (CPU pool, GPUs, page cache) running its own loader
// instance over a dataset shard, and every training step ends with a
// gradient all-reduce across nodes over a simulated cluster interconnect
// (internal/netsim).
//
// The interconnect is real, not analytic: gradient exchange runs as
// ring-reduce flows on the fabric, and — on a remote-store cluster — cold
// shard reads are fetched from a shared storage server over the same NICs,
// so data traffic and gradient traffic contend exactly where they do on a
// Lustre-over-interconnect testbed (§3's Config A). The paper's claim is
// qualitative — "MinatoLoader retains its preprocessing and batch
// construction benefits" per node — and this package makes it measurable:
// the per-step barrier means a single input-stalled node stalls the whole
// cluster, so loader quality compounds with scale, and the Report
// attributes each node's stall time to its cause (own input, the barrier,
// or the network).
//
// # Fault injection and elastic membership
//
// Run may be given a chaos.Script, anchored at the run's start.
// Continuous-substrate events (link, disk, worker stalls) are applied by a
// chaos.Controller at their exact instants. Membership events
// (NodeCrash/NodeJoin) switch the run into elastic mode: they are applied
// at the first step boundary at or after their instant, inside the resume
// barrier's release hook, where every consumer in the cluster is parked —
// a quiescent point, the way an elastic agent reconfigures between steps. A membership change stops
// every loader (draining in-flight cache claims), drops the crashed
// node's page cache, re-shards the dataset across the survivors under a
// fresh deterministic permutation draw, and rebuilds the all-reduce ring
// over the live NICs. Consumers of a crashed node keep arriving at both
// step barriers as proxies — the barrier width never changes — but skip
// data, training, and the collective; their parked time is attributed to
// NodeStats.Downtime rather than BarrierStall. Because the script is
// static data and every application point is either an exact virtual time
// or a barrier completion, identical scripts yield bit-identical reports.
package distributed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/dist"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/netsim"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trace"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

// shardStream keys the deterministic shard-to-node assignment drawn from
// internal/dist: node i trains shard perm[i] of the epoch-invariant
// n-way split. The constant must stay unique among the repository's
// (seed, stream) draws — 77 is the workload accuracy-noise stream, and
// epoch shuffles live at epoch+1000. Elastic membership view v re-shards
// under stream shardStream+v, so each re-configuration is its own
// deterministic draw.
const shardStream = 4200

// NodeFault names one node and its degradation factor — the element of
// Topology.Stragglers and Topology.Degraded. A factor of 8 leaves the node
// an eighth of the resource; a factor of 1 leaves it whole.
type NodeFault struct {
	Node   int
	Factor float64
}

// Topology describes a multi-node training cluster: how many nodes, what
// hardware each runs, and the interconnect they share. The zero value of
// every field takes the default noted on it — the paper's cluster testbed,
// Config A nodes on a 200 Gb/s fabric sharing a remote store (§3).
type Topology struct {
	// Nodes is the number of servers (default 2); ignored when Mix is set.
	Nodes int
	// Node is the per-node hardware (default §3's Config A).
	Node hardware.Config
	// Mix gives each node its own hardware — the heterogeneous-cluster
	// scenario. When non-empty it defines the node count.
	Mix []hardware.Config

	// GradientBytes is the model gradient each node exchanges per step
	// (default 350 MiB, ResNet50-scale).
	GradientBytes int64
	// LinkBandwidth is each node's NIC bandwidth in bytes/s per direction
	// (default netsim.PaperBandwidth, 200 Gb/s).
	LinkBandwidth float64
	// LinkLatency is the per-transfer propagation delay on the fabric
	// (default netsim.PaperLatency, 200µs).
	LinkLatency time.Duration
	// LocalStore gives every node private storage. By default the dataset
	// sits on a shared storage server reached over the fabric (the Lustre
	// configuration): cold reads occupy the server disk and then a network
	// transfer into the reading node's NIC, contending with gradient
	// traffic.
	LocalStore bool

	// Stragglers divides each listed node's CPU core count by its factor —
	// the input-stalled-node scenario, where underprovisioned preprocessing
	// drags the whole synchronous cluster. One entry per afflicted node.
	Stragglers []NodeFault
	// Degraded divides each listed node's NIC bandwidth by its factor in
	// both directions — a flaky cable or oversubscribed leaf switch. One
	// entry per afflicted node.
	Degraded []NodeFault
}

// Resolve returns t with every zero field at its default, or an error for
// the first thing a run refuses: a node count below 1, or a straggler or
// degraded-link entry whose factor is below 1 or whose node is outside the
// cluster. Run resolves its topology itself; callers resolve first to learn
// the node count or to refuse a topology before running anything.
func Resolve(t Topology) (Topology, error) {
	if len(t.Mix) > 0 {
		t.Nodes = len(t.Mix)
	} else if t.Nodes == 0 {
		t.Nodes = 2
	}
	if t.Node.Cores <= 0 {
		t.Node = hardware.ConfigA()
	}
	if t.GradientBytes <= 0 {
		t.GradientBytes = 350 << 20
	}
	if t.LinkBandwidth <= 0 {
		t.LinkBandwidth = netsim.PaperBandwidth
	}
	if t.LinkLatency <= 0 {
		t.LinkLatency = netsim.PaperLatency
	}
	if t.Nodes < 1 {
		return t, fmt.Errorf("node count %d < 1", t.Nodes)
	}
	for _, c := range append([]hardware.Config{t.Node}, t.Mix...) {
		if err := c.Validate(); err != nil {
			return t, fmt.Errorf("node hardware %s: %w", c.Name, err)
		}
	}
	for _, f := range t.Stragglers {
		if err := f.check("straggler", t.Nodes); err != nil {
			return t, err
		}
	}
	for _, f := range t.Degraded {
		if err := f.check("degraded", t.Nodes); err != nil {
			return t, err
		}
	}
	return t, nil
}

// check refuses a fault entry with a factor below 1 or a node outside a
// cluster of the given size.
func (f NodeFault) check(what string, nodes int) error {
	switch {
	case f.Factor < 1:
		return fmt.Errorf("%s factor %g must be ≥ 1", what, f.Factor)
	case f.Node < 0 || f.Node >= nodes:
		return fmt.Errorf("%s node %d outside cluster of %d", what, f.Node, nodes)
	}
	return nil
}

// nodeConfigs returns the per-node hardware of a resolved topology, with
// the straggler scenario applied.
func (t Topology) nodeConfigs() []hardware.Config {
	var cfgs []hardware.Config
	if len(t.Mix) > 0 {
		cfgs = append(cfgs, t.Mix...)
	} else {
		for i := 0; i < t.Nodes; i++ {
			cfgs = append(cfgs, t.Node)
		}
	}
	for _, s := range t.Stragglers {
		if s.Factor > 1 {
			n := &cfgs[s.Node]
			n.Cores = int(float64(n.Cores) / s.Factor)
			if n.Cores < 1 {
				n.Cores = 1
			}
		}
	}
	return cfgs
}

// remoteFetch adapts a fabric path (storage server → node) to the
// storage.RemoteFetcher hook.
type remoteFetch struct {
	fab       *netsim.Fabric
	src, node int
}

func (rf remoteFetch) Fetch(ctx context.Context, n int64) error {
	return rf.fab.Transfer(ctx, rf.src, rf.node, n)
}

// Run executes a distributed data-parallel session on a fresh virtual
// kernel. Every node consumes per-GPU batches from its own loader over its
// shard; after each per-GPU step, nodes synchronize on a global barrier,
// node leaders run the ring all-reduce over the fabric, and everyone
// resumes together — the bulk-synchronous-parallel structure of DDP.
//
// script injects scripted faults during the run (see package chaos); its
// membership events switch the run into elastic mode. rec, when non-nil,
// becomes the recorder of the run's kernel: every layer (loaders, storage,
// consumer steps, the fabric, faults) records its spans into it. Nil
// disables tracing at zero hot-path cost. Run refuses what Resolve refuses.
func Run(t Topology, w workload.Workload, f trainer.Factory, script chaos.Script, rec *trace.Recorder) (*trainer.Report, error) {
	t, err := Resolve(t)
	if err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	if err := script.Validate(t.Nodes); err != nil {
		return nil, err
	}
	k := simtime.NewVirtual()
	_ = k.SetTrace(rec) // a fresh kernel takes any recorder
	rep := &trainer.Report{Workload: w.Name, Loader: f.Name, Nodes: t.Nodes}
	var runErr error
	k.Run(func() {
		runErr = run(k, t, script, w, f, rep)
	})
	k.Recycle() // the run's devices, fabric, page caches and pools, then the kernel
	if runErr != nil {
		return nil, runErr
	}
	return rep, nil
}

// nodeState is one node's runtime wiring and the samples it trained (plain:
// the node's consumers are tasks of one kernel).
type nodeState struct {
	tb      *hardware.Testbed
	env     *loader.Env
	samples int64
}

// memberView is one immutable membership configuration: which nodes are
// live, their loaders over the current shard split, and the all-reduce
// ring across their NICs. Consumers read the current view once per round;
// the controller swaps in a new view only at step boundaries, so nobody is
// mid-Next or mid-collective across a change.
type memberView struct {
	id      int
	active  []bool
	loaders []loader.Loader // indexed by node; nil when inactive
	ring    *netsim.Ring
	ranks   []int // node → rank in the ring; -1 when inactive
	done    bool
}

// ctrl is the run's membership controller: plain state of the run's kernel
// tasks. It keeps what is elastic — membership views and resharding — over
// the run's ledger (chaos.Controller), which applies every other event,
// counts every consumer stall, and takes membership into its fault table
// and each step boundary into its step histogram.
// Its onBoundary hook runs in the resume barrier's releasing arriver, with
// every other consumer parked (the next release cannot begin until each
// re-arrives); the ledger's engine task appends to the table at its own
// instants.
type ctrl struct {
	k       *simtime.Virtual
	w       workload.Workload
	f       trainer.Factory
	fab     *netsim.Fabric
	nodes   []*nodeState
	seed    uint64
	elastic bool

	view *memberView

	// Boundary-hook state (single-threaded: see above).
	rounds int64
	target int64 // elastic mode: rounds to run

	ledger *chaos.Controller

	consumeErr error
}

// onBoundary runs at every completed resume-barrier generation, in the
// releasing arriver, after the barrier reset and before any waiter wakes:
// the one point where every consumer in the cluster is parked. It records
// the step (closing pending join recoveries) and — in elastic mode — ends
// the run at the round target or applies pending membership events.
func (st *ctrl) onBoundary(uint64) {
	now := st.k.Now()
	st.ledger.Step(0, now)
	st.rounds++
	if !st.elastic {
		return
	}
	v := st.view
	if v.done {
		return
	}
	if st.rounds >= st.target {
		nv := *v
		nv.done = true
		st.view = &nv
		return
	}
	changed := false
	active := append([]bool(nil), v.active...)
	for ev, ok := st.ledger.Due(now); ok; ev, ok = st.ledger.Due(now) {
		switch ev.Kind {
		case chaos.NodeCrash:
			if active[ev.Node] {
				active[ev.Node] = false
				changed = true
				st.ledger.Open(ev, ev.Node)
			}
		case chaos.NodeJoin:
			if !active[ev.Node] {
				active[ev.Node] = true
				changed = true
				st.ledger.Close(chaos.NodeCrash, ev.Node)
				st.ledger.Recovering(ev, ev.Node)
			}
		}
	}
	if changed {
		st.reshard(v, active, now)
	}
}

// reshard applies a membership change: stop every loader (draining cache
// claims), drop crashed caches, re-split the dataset across the survivors
// under a fresh permutation draw, and rebuild the ring. Runs inside the
// boundary hook, so all consumers are parked.
func (st *ctrl) reshard(v *memberView, active []bool, now time.Duration) {
	for _, ld := range v.loaders {
		if ld != nil {
			ld.Stop()
		}
	}
	var members []int
	for i, a := range active {
		if v.active[i] && !a {
			// A restarted machine comes back with a cold page cache.
			st.nodes[i].tb.Cache.Recycle()
		}
		if a {
			members = append(members, i)
		}
	}
	id := v.id + 1
	if len(members) == 0 {
		st.consumeErr = chaos.ErrNodeLost
		st.view = &memberView{
			id:     id,
			active: active,
			ranks:  make([]int, len(active)),
			done:   true,
		}
		return
	}
	perm := dist.Permutation(st.seed, shardStream+uint64(id), len(members))
	loaders := make([]loader.Loader, len(active))
	ranks := make([]int, len(active))
	for i := range ranks {
		ranks[i] = -1
	}
	eps := make([]int, len(members))
	remaining := st.target - st.rounds
	for j, node := range members {
		eps[j] = node
		ranks[node] = j
		nd := st.nodes[node]
		shardW := st.w.WithDataset(dataset.Shard(st.w.Dataset, perm[j], len(members)))
		sp := shardW.Spec()
		sp.Iterations = int(remaining) * len(nd.tb.GPUs)
		sp.Epochs = 0
		ld := st.f.New(nd.env, sp)
		if err := ld.Start(context.Background()); err != nil {
			st.consumeErr = err
			st.view = &memberView{id: id, active: active, ranks: ranks, done: true}
			return
		}
		loaders[node] = ld
	}
	st.view = &memberView{
		id:      id,
		active:  active,
		loaders: loaders,
		ring:    netsim.NewRing(st.k, st.fab, eps),
		ranks:   ranks,
	}
}

func run(k *simtime.Virtual, t Topology, script chaos.Script, w workload.Workload, f trainer.Factory, rep *trainer.Report) error {
	ctx := context.Background()
	wg := simtime.NewWaitGroup(k)
	nodeCfgs := t.nodeConfigs()
	n := len(nodeCfgs)

	elastic := false
	for _, ev := range script.Events {
		elastic = elastic || ev.Kind.Membership()
	}

	// Fabric endpoints: one per node, plus the storage server when the
	// dataset is remote.
	endpoints := n
	storeEP := -1
	if !t.LocalStore {
		storeEP = n
		endpoints++
	}
	fab := netsim.New(k, netsim.Config{
		Endpoints: endpoints,
		Bandwidth: t.LinkBandwidth,
		Latency:   t.LinkLatency,
	})
	// Each node's NIC is its fabric endpoint, at its configured bandwidth
	// after static degradation — the level LinkRestore returns to.
	nics := make([]chaos.NIC, n)
	for i := range nics {
		nics[i] = chaos.NIC{Endpoint: i, Bandwidth: t.LinkBandwidth}
	}
	for _, d := range t.Degraded {
		if d.Factor > 1 {
			nics[d.Node].Bandwidth /= d.Factor
			fab.SetBandwidth(d.Node, nics[d.Node].Bandwidth)
		}
	}

	// On a remote-store cluster every node's cold reads share one server
	// disk (the Lustre array) and pay a fabric transfer into their NIC;
	// node-local page caches absorb warm reads before any of that.
	var serverDisk *storage.Disk
	if !t.LocalStore {
		serverDisk = storage.NewDisk(k, t.Node.StorageName+"-server",
			t.Node.StorageBandwidth, t.Node.StorageParallelism)
	}

	// Shard assignment through the deterministic draw family: node i
	// trains shard perm[i], so which node holds which slice is a pure
	// function of the seed.
	spec := w.Spec()
	perm := dist.Permutation(spec.Seed, shardStream, n)

	nodes := make([]*nodeState, n)
	cpus := make([]*device.Device, n) // the worker stalls' targets
	nodeEPs := make([]int, n)
	initLoaders := make([]loader.Loader, n)
	initRanks := make([]int, n)
	initActive := make([]bool, n)
	totalConsumers := 0
	target := int64(math.MaxInt64)
	for i := range nodes {
		tb := hardware.NewTestbed(k, nodeCfgs[i])
		store := tb.Store
		if !t.LocalStore {
			store = &storage.Store{Disk: serverDisk, Cache: tb.Cache,
				Remote: remoteFetch{fab: fab, src: storeEP, node: i}}
		}
		store.TraceNode = int32(i)
		for _, g := range tb.GPUs {
			g.SetNode(int32(i))
		}
		shardW := w.WithDataset(dataset.Shard(w.Dataset, perm[i], n))
		pool := data.NewPool()
		k.Own(pool)
		env := &loader.Env{RT: k, CPU: tb.CPU, GPUs: tb.GPUs, Store: store, WG: wg,
			Pool: pool, TraceNode: int32(i)}
		nodes[i], cpus[i] = &nodeState{tb: tb, env: env}, tb.CPU
		sp := shardW.Spec()
		if t := int64(sp.TotalBatches() / len(tb.GPUs)); t < target {
			target = t
		}
		if elastic {
			// Elastic runs are round-budget-driven: every node gets exactly
			// target rounds' worth of batches so the boundary hook, not an
			// EOF race, ends the run.
			sp.Iterations = int(target) * len(tb.GPUs)
			sp.Epochs = 0
		}
		initLoaders[i] = f.New(env, sp)
		nodeEPs[i] = i
		initRanks[i] = i
		initActive[i] = true
		totalConsumers += len(tb.GPUs)
	}
	if elastic && target <= 0 {
		return errors.New("distributed: chaos membership needs at least one full round per node")
	}

	st := &ctrl{
		k: k, w: w, f: f, fab: fab,
		nodes: nodes, seed: spec.Seed, elastic: elastic,
		target: target,
		// Disk windows are labelled node -1: they target the storage
		// substrate as a whole. The cluster steps as one lane.
		ledger: chaos.NewController(k, n, 0, -1, 1),
	}
	st.view = &memberView{
		active:  initActive,
		loaders: initLoaders,
		ring:    netsim.NewRing(k, fab, nodeEPs),
		ranks:   initRanks,
	}

	// Two cyclic barriers frame the synchronized region of each step: all
	// consumers arrive at `arrive`, node leaders run the collective, and
	// everyone leaves through `resume`; the resume release hook is the
	// run's quiescent point (step accounting, membership changes). A rank
	// exiting early (EOF, error) breaks all of it so the cluster unwinds
	// deterministically. Barrier width never changes — crashed nodes'
	// consumers keep arriving as proxies.
	arrive := simtime.NewBarrier(k, totalConsumers)
	resume := simtime.NewBarrierFunc(k, totalConsumers, st.onBoundary)
	breakAll := func() {
		arrive.Break()
		resume.Break()
		if r := st.view.ring; r != nil {
			r.Break()
		}
	}

	for _, ld := range initLoaders {
		if err := ld.Start(ctx); err != nil {
			return err
		}
	}
	// Disk degradation hits the storage server on a remote-store cluster,
	// every node's disk otherwise.
	disks := []*storage.Disk{serverDisk}
	if t.LocalStore {
		disks = nil
		for _, nd := range nodes {
			disks = append(disks, nd.tb.Disk)
		}
	}
	start := k.Now()
	st.ledger.Start(start, script, chaos.Targets{WG: wg, Disks: disks, CPUs: cpus, Links: fab, NICs: nics})
	var lastEnd time.Duration
	consumers := simtime.NewWaitGroup(k)
	for rank, nd := range nodes {
		rank, nd := rank, nd
		for g := range nd.tb.GPUs {
			g := g
			consumers.Go("dist-consumer", func() {
				dev := nd.tb.GPUs[g]
				tr := k.Trace()
				// Step spans share (Node=rank, Key=GPU, Seq=round): the
				// consumer-local round counter ties a round's anatomy
				// together for the critical-path analyzer, proxy rounds
				// included.
				var round int64
				for {
					v := st.view
					if v.done {
						return
					}
					act := v.active[rank]
					if act {
						t0 := k.Now()
						b, err := v.loaders[rank].Next(ctx, g)
						if errors.Is(err, io.EOF) {
							// This rank is out of data: release the others.
							breakAll()
							return
						}
						if err != nil {
							st.consumeErr = err
							breakAll()
							return
						}
						tData := k.Now()
						st.ledger.Stalled(rank, chaos.DataStall, int64(g), round, t0, tData)
						if err := dev.Train(ctx, w.GPUStep); err != nil {
							breakAll()
							return
						}
						tr.Record(trace.Span{Start: tData, End: k.Now(), Stage: trace.StageGPUStep,
							Node: int32(rank), Key: int64(g), Seq: round})
						nd.samples += int64(len(b.Samples))
						rep.Batches++
						b.Release()
					}

					// Synchronized region: barrier, collective, resume.
					// Crashed ranks pass through as proxies, training and
					// reducing nothing.
					t1 := k.Now()
					if _, err := arrive.Wait(ctx); err != nil {
						return // broken: another rank finished
					}
					t2 := k.Now()
					if act {
						st.ledger.Stalled(rank, chaos.BarrierStall, int64(g), round, t1, t2)
						if g == 0 {
							if err := v.ring.AllReduce(ctx, v.ranks[rank], t.GradientBytes); err != nil {
								if !errors.Is(err, simtime.ErrBarrierBroken) {
									st.consumeErr = err
								}
								breakAll()
								return
							}
						}
					}
					if _, err := resume.Wait(ctx); err != nil {
						return
					}
					now := k.Now()
					if act {
						st.ledger.Stalled(rank, chaos.NetworkStall, int64(g), round, t2, now)
					} else {
						st.ledger.Stalled(rank, chaos.Downtime, int64(g), round, t1, now)
					}
					round++
					lastEnd = max(lastEnd, now)
				}
			})
		}
	}
	if err := consumers.Wait(ctx); err != nil {
		return err
	}
	st.ledger.Stop()
	for _, ld := range st.view.loaders {
		if ld != nil {
			ld.Stop()
		}
	}
	if err := wg.Wait(ctx); err != nil {
		return err
	}
	if st.consumeErr != nil {
		return st.consumeErr
	}

	end := lastEnd
	if end < start {
		end = k.Now()
	}
	rep.TrainTime = end - start
	rep.Steps = st.rounds
	rep.NetworkBytes = fab.BytesMoved()
	rep.Recorded = trace.RecordedBy(k.Trace())

	dur := rep.TrainTime.Seconds()
	busyAll, gpuCount := 0.0, 0
	for i, nd := range nodes {
		busy := 0.0
		for _, g := range nd.tb.GPUs {
			busy += g.BusySeconds()
		}
		busyAll += busy
		gpuCount += len(nd.tb.GPUs)
		util := 0.0
		if dur > 0 {
			util = trainer.Utilization(busy, float64(len(nd.tb.GPUs)), dur)
		}
		rep.Samples += nd.samples
		rep.PerNode = append(rep.PerNode, trainer.NodeStats{
			Node:     i,
			Hardware: fmt.Sprintf("%s/%dc", nodeCfgs[i].Name, nodeCfgs[i].Cores),
			GPUs:     len(nd.tb.GPUs),
			Samples:  nd.samples,
			GPUUtil:  util,
		})
	}
	rep.GPUs = gpuCount
	if dur > 0 {
		rep.AvgGPUUtil = trainer.Utilization(busyAll, float64(gpuCount), dur)
	}
	trainer.ReadLedger(rep, st.ledger)
	return nil
}
