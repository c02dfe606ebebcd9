package minato

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"
	"time"

	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/netsim"
	"github.com/minatoloader/minato/internal/service"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
)

// Disaggregated preprocessing. Serve turns a Cluster into a preprocessing
// server: its CPU workers, caches, and admission machinery feed batches
// over a simulated network to remote training clients instead of local
// GPUs. Dial connects a client to a served stream and returns a
// RemoteSession whose Batches iterator looks exactly like a local
// Session's — same iter.Seq2 shape, same recycling contract — except the
// batches crossed a netsim fabric with real (virtual-time) transfer and
// queueing delays. One preprocessing fleet can feed many training
// clusters; clients hedge slow servers against replicas, retry overloaded
// ones with backoff, and are backpressured by bounded per-stream send
// windows. Everything runs on the virtual clock, so a served topology is
// as deterministic as a local run.
//
//	net := minato.NewServiceNet(nil, minato.ServiceNetConfig{})
//	cl, _ := minato.NewCluster(minato.WithRuntime(net.Runtime()))
//	addr, _ := minato.Serve(cl, minato.WithServiceNet(net),
//	    minato.Publish("train", dataset, pipeline))
//	rs, _ := minato.Dial(addr, minato.WithIterations(100))
//	for b, err := range rs.Batches(ctx) { ... }

// ServiceNetConfig sizes a service fabric: how many parties (servers and
// clients) attach, each NIC's bandwidth, and the per-frame latency. Zero
// fields take the service defaults documented on the fields (see
// internal/netsim).
type ServiceNetConfig = netsim.Config

// ServiceNet is the shared fabric a preprocessing fleet and its clients
// communicate over. Build one per topology and hand it to every Serve
// (WithServiceNet) whose cluster shares the runtime; Dial reaches servers
// through the address, so clients never touch the net directly.
type ServiceNet struct {
	rt  *Runtime
	net *service.Net
}

// NewServiceNet builds a service fabric on rt; a nil rt gets a fresh
// deterministic virtual runtime (share it with NewCluster via
// WithRuntime(net.Runtime())). It enters the kernel to build the fabric: not
// from the body of a Batches or StreamAll loop.
func NewServiceNet(rt *Runtime, cfg ServiceNetConfig) *ServiceNet {
	if rt == nil {
		rt = &Runtime{k: simtime.NewVirtual()}
	}
	n := &ServiceNet{rt: rt}
	rt.k.Do(func() { n.net = service.NewNet(rt.k, cfg) })
	return n
}

// Runtime returns the clock the fabric runs on.
func (n *ServiceNet) Runtime() *Runtime { return n.rt }

// ServiceNetStats is the fabric's deterministic traffic totals.
type ServiceNetStats struct {
	BytesMoved     int64
	FlowsCompleted int64
}

// Stats snapshots the fabric's traffic counters (on the fabric's kernel: not
// for the body of a Batches or StreamAll loop).
func (n *ServiceNet) Stats() (st ServiceNetStats) {
	n.rt.k.Do(func() {
		st = ServiceNetStats{BytesMoved: n.net.BytesMoved(), FlowsCompleted: n.net.FlowsCompleted()}
	})
	return st
}

// TokenQuota is one auth token's entitlement on a served cluster: a cap
// on concurrent streams and the fair-share weight its streams carry into
// the cluster's worker arbitration.
type TokenQuota = service.TokenQuota

// ServeStats is a server's multi-tenant front-end counters: streams
// admitted and active, typed rejections, batches/bytes sent, the
// send-window high-water, and hedge bookkeeping (cancels honored,
// fast-forwards).
type ServeStats = service.Stats

// RemoteStats is a remote session's client-side counters: delivered
// batches, batch-wait and inter-delivery quantiles, hedges fired,
// duplicates released, overloaded-open retries, and the outstanding-REQ
// high-water.
type RemoteStats = service.ClientStats

// published is one name → (dataset, pipeline) binding a server offers.
type published struct {
	dataset  Dataset
	pipeline *Pipeline
}

// WithServiceNet attaches the server to an existing fabric so several
// servers (and their clients) share one network. The fabric must run on
// the cluster's runtime. Default: a fresh fabric on the cluster's runtime.
// Serve.
func WithServiceNet(n *ServiceNet) Option {
	return Option{name: "WithServiceNet", scope: atServe, v: n, apply: func(o *options, a Option) { o.net = a.v.(*ServiceNet) }}
}

// WithToken adds an auth token to the server's admission table. A server
// with at least one token rejects unknown tokens with ErrUnauthorized and
// enforces each token's quota with ErrQuotaExceeded; a server with no
// tokens accepts everyone at weight 1. Serve.
func WithToken(token string, q TokenQuota) Option {
	return Option{name: "WithToken", scope: atServe, s: token, v: q,
		apply: func(o *options, a Option) {
			if o.tokens == nil {
				o.tokens = make(map[string]TokenQuota)
			}
			o.tokens[a.s] = a.v.(TokenQuota)
		}}
}

// WithSendWindow bounds batches granted-but-undelivered per stream (the
// server-side backpressure window). A client REQ beyond it is a protocol
// violation and kills the stream. Default 8. Serve.
func WithSendWindow(n int) Option {
	return Option{name: "WithSendWindow", scope: atServe, n: int64(n), apply: func(o *options, a Option) { o.sendWindow = int(a.n) }}
}

// WithServerMaxStreams caps concurrent streams server-wide; OPENs beyond
// it are rejected with ErrServerOverloaded and clients retry with
// backoff. 0 = unlimited (the backing cluster's WithMaxSessions still
// applies). Serve.
func WithServerMaxStreams(n int) Option {
	return Option{name: "WithServerMaxStreams", scope: atServe, n: int64(n), apply: func(o *options, a Option) { o.maxStreams = int(a.n) }}
}

// Publish offers dataset × pipeline under name: clients select it with
// WithStream(name). A nil pipeline serves samples unchanged. At least one
// Publish is required; each Dial-opened stream runs as its own session of
// the backing cluster (own seed and budget, shared caches and workers).
// Serve.
func Publish(name string, dataset Dataset, pipeline *Pipeline) Option {
	return Option{name: "Publish", scope: atServe, s: name, v: published{dataset: dataset, pipeline: pipeline},
		apply: func(o *options, a Option) {
			if o.published == nil {
				o.published = make(map[string]published)
			}
			o.published[a.s] = a.v.(published)
		}}
}

// ServerAddr is a running preprocessing server's address: what Dial
// connects to, and the handle for its stats and shutdown.
type ServerAddr struct {
	sn    *ServiceNet
	rt    *Runtime
	cl    *Cluster
	srv   *service.Server
	ep    int
	fleet int
	pub   map[string]published
	wg    *simtime.WaitGroup

	// The chaos script starts at the first batch pulled from any of the
	// server's streams (see clusterOpener.onFirstPull).
	script ChaosScript
	ctl    *chaos.Controller // started and stopped on the server's kernel

	closed bool // the kernel's
}

// startChaos starts the server's fault controller with the script anchored
// at the current virtual instant: disk events on the cluster's disk, link
// events on the NICs of the fleet the script was validated against. Runs on
// a stream pump task at the first batch pulled from any of the server's
// streams, so the anchor is deterministic.
func (a *ServerAddr) startChaos() {
	if a.ctl != nil || a.closed {
		return
	}
	k, net := a.rt.k, a.sn.net
	nics := make([]chaos.NIC, a.fleet+1)
	for i := range nics {
		nics[i] = chaos.NIC{Endpoint: net.ServerEndpoint(i), Bandwidth: net.Bandwidth()}
	}
	a.ctl = chaos.NewController(k, len(nics), 0, a.fleet, 0)
	a.ctl.Start(k.Now(), a.script, chaos.Targets{WG: a.wg,
		Disks: []*storage.Disk{a.cl.tb.Disk}, Links: net, NICs: nics})
}

// Serve starts a disaggregated preprocessing server on the cluster: its
// workers, caches, and fair-share governor become a multi-tenant backend
// for remote training clients. The cluster must use AdmitReject admission
// (a queued open would block the server's dispatch loop; overload is
// instead surfaced as a typed ErrServerOverloaded rejection that clients
// retry with backoff) and must share the fabric's runtime. At least one
// Publish is required.
//
// Chaos: WithChaos/WithChaosScenario here take the serve shape — link
// events degrade a fleet member's NIC by index (the fleet is every server
// registered on the fabric so far, in Serve order), disk events brown out
// the cluster's storage. Consumer-side kinds are rejected. The server's run
// starts at its first batch pull, and the script is anchored there as every
// run's script is anchored at its start.
func Serve(cl *Cluster, opts ...Option) (*ServerAddr, error) {
	if cl == nil {
		return nil, configErr("Serve", "requires a cluster")
	}
	o, err := build(atServe, opts)
	if err != nil {
		return nil, err
	}
	if len(o.published) == 0 {
		return nil, configErr("Publish", "a server must publish at least one stream")
	}
	for name, pub := range o.published {
		if pub.dataset == nil {
			return nil, configErr("Publish", fmt.Sprintf("stream %q has a nil dataset", name))
		}
	}
	if cl.admission == AdmitQueue {
		return nil, configErr("Serve",
			"AdmitQueue clusters block saturated opens, which would stall the server's dispatch loop; use AdmitReject (overload becomes a typed rejection clients retry)")
	}
	sn := o.net
	if sn == nil {
		sn = NewServiceNet(cl.rt, ServiceNetConfig{})
	} else if sn.rt.k != cl.rt.k {
		return nil, configErr("WithServiceNet", "the fabric and the cluster must share a runtime")
	}
	// The fabric, the disk, the kernel's task list and the cluster's tenancy
	// are the kernel's own: the server is attached, wired and spawned with
	// the kernel in hand. A running server holds the kernel (see Close).
	var addr *ServerAddr
	cl.rt.k.Do(func() {
		if cl.closed {
			err = ErrClusterClosed
		} else if addr, err = serve(cl, sn, o); err == nil {
			cl.rt.k.Hold()
		}
	})
	return addr, err
}

// serve is the part of Serve that runs on the cluster's kernel.
func serve(cl *Cluster, sn *ServiceNet, o *options) (*ServerAddr, error) {
	// Everything that can refuse the server comes before it joins the fleet:
	// the script is checked against the fleet this server would complete.
	script, err := o.resolveChaos(func(s ChaosScript) error { return s.ValidateServed(sn.net.ServerCount() + 1) })
	if err != nil {
		return nil, err
	}
	if err := cl.rt.k.SetTrace(o.trace); err != nil {
		return nil, configErr("WithTracing", err.Error())
	}
	ep, err := sn.net.AllocEndpoint()
	if err != nil {
		return nil, err
	}
	addr := &ServerAddr{
		sn:     sn,
		rt:     cl.rt,
		cl:     cl,
		ep:     ep,
		fleet:  sn.net.RegisterServer(ep),
		pub:    o.published,
		wg:     simtime.NewWaitGroup(cl.rt.k),
		script: script,
	}
	opener := &clusterOpener{cl: cl, pub: o.published}
	if !script.Empty() {
		opener.onFirstPull = addr.startChaos
	}
	addr.srv = service.NewServer(sn.net, ep, service.ServerConfig{
		Tokens:     o.tokens,
		SendWindow: o.sendWindow,
		MaxStreams: o.maxStreams,
	}, opener)
	addr.srv.Start()
	return addr, nil
}

// Fleet returns the server's fleet index on its fabric — what link-chaos
// events and replica selection refer to.
func (a *ServerAddr) Fleet() int { return a.fleet }

// Streams lists the published stream names, sorted.
func (a *ServerAddr) Streams() []string {
	names := make([]string, 0, len(a.pub))
	for n := range a.pub {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats snapshots the server's front-end counters, on the server's kernel:
// from any goroutine but its tasks (a Batches or StreamAll body).
func (a *ServerAddr) Stats() (st ServeStats) {
	a.rt.k.Do(func() { st = a.srv.Stats() })
	return st
}

// Close shuts the server down: the chaos controller stops, in-flight streams
// are torn down (their cluster sessions closed), and late frames are
// drained silently. The backing cluster stays open — closing it is the
// caller's job, though a cluster closed while it served is reclaimed here,
// once its last stream has ended. The server gives back its hold on the
// runtime (see Cluster.Close). Idempotent.
func (a *ServerAddr) Close() error {
	// The waits below park, so they run on a task of the server's kernel.
	a.cl.run(func() {
		if a.closed {
			return
		}
		a.closed = true
		a.ctl.Stop()
		_ = a.wg.Wait(context.Background())
		a.srv.Close()
		a.rt.k.Release()
	})
	return nil
}

// clusterOpener adapts a Cluster to the service.Opener seam: each
// accepted OPEN becomes one session of the backing cluster, so served
// streams get the same admission, fair-share arbitration, and shared
// caches as local sessions — a remote client's warm hits come from
// batches its neighbors already preprocessed.
type clusterOpener struct {
	cl  *Cluster
	pub map[string]published
	// onFirstPull fires once, at the first batch pulled from any stream —
	// the anchor for the server's lazily started chaos script. The
	// anchor is the pull, not the open: between a Dial and its Batches the
	// kernel is idle, and an engine armed early would be the only timer
	// holder, dragging the clock through the whole script before traffic
	// exists.
	onFirstPull func()
}

func (co *clusterOpener) OpenStream(spec service.StreamSpec, weight float64) (service.Stream, error) {
	pub, ok := co.pub[spec.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %q not published", service.ErrUnknownStream, spec.Name)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	if weight <= 0 {
		weight = 1
	}
	o := &options{
		pipeline:   pub.pipeline,
		batchSize:  spec.BatchSize,
		iterations: spec.Iterations,
		epochs:     spec.Epochs,
		seed:       seed,
		weight:     weight,
		gpus:       1,
	}
	// On the server's dispatch task; Serve refuses AdmitQueue clusters, so
	// the open is never queued.
	s, _, err := co.cl.open(pub.dataset, o, false, true)
	if err != nil {
		if errors.Is(err, ErrClusterSaturated) || errors.Is(err, ErrClusterClosed) {
			return nil, fmt.Errorf("%w: %v", service.ErrServerOverloaded, err)
		}
		return nil, err
	}
	s.srv = serveStream{s: s, onFirstPull: co.onFirstPull}
	return &s.srv, nil
}

// servedStock holds the shells of closed served sessions: each keeps the
// storage of its seat (GPU slices, task group) and of its delivery
// bookkeeping. The next served stream of any cluster draws from it;
// serve-256's 256 streams are its peak.
var servedStock = simtime.NewStock[*Session](256)

// servedSession returns a zero session for a served stream: a recycled
// shell, if there is one.
func servedSession() *Session {
	if s, ok := servedStock.Get(); ok {
		return s
	}
	return new(Session)
}

// recycle empties a closed served session's shell, keeping only its
// storage, and hands it to servedStock (see serveStream.Close).
func (s *Session) recycle() {
	st := s.seat
	*s = Session{
		seat: seat{gpuIdxs: st.gpuIdxs[:0], env: Env{GPUs: st.env.GPUs[:0]}, wg: st.wg},
		done: s.done[:0],
	}
	clear(s.env.GPUs[:cap(s.env.GPUs)])
	servedStock.Put(s)
}

// serveStream drives one cluster session as a server-side batch source:
// the same stream core a local Batches loop pumps, pulled one batch at a
// time by the server's stream task. The loader starts lazily at the first
// pull (an admitted stream costs nothing until its client REQs), and
// delivery runs on the session's single GPU-0 queue — the "GPU" here is the
// server's egress NIC. The frame a batch leaves in owns it, so nothing is
// recycled here.
type serveStream struct {
	s           *Session
	onFirstPull func()
}

func (st *serveStream) Next(ctx context.Context) (*Batch, error) {
	s := st.s
	if !s.begun {
		if err := s.claim(); err != nil {
			return nil, err
		}
		if st.onFirstPull != nil {
			st.onFirstPull()
		}
		if err := s.begin(ctx); err != nil {
			return nil, err
		}
	}
	return s.pull(ctx)
}

func (st *serveStream) Total() int { return st.s.spec.TotalBatches() }

// Close ends the stream and closes its session. Then it hands the session
// and its loader to their stocks: end waited for the loader's tasks to exit,
// no handle of a user reaches a served session, and the server's stream
// task calls nothing on it after Close.
func (st *serveStream) Close() {
	s := st.s
	s.end()
	s.close()
	core.Recycle(s.ld)
	s.recycle()
}

// WithStream selects which published stream to consume. Optional when the
// server publishes exactly one. Dial.
func WithStream(name string) Option {
	return Option{name: "WithStream", scope: atDial, s: name, apply: func(o *options, a Option) { o.stream = a.s }}
}

// WithAuthToken authenticates the client on token-gated servers. Dial.
func WithAuthToken(token string) Option {
	return Option{name: "WithAuthToken", scope: atDial, s: token, apply: func(o *options, a Option) { o.token = a.s }}
}

// WithPrefetch sets the client's pipeline depth: how many batch requests
// it keeps outstanding (the server caps it at its send window). Default 4.
// Dial.
func WithPrefetch(n int) Option {
	return Option{name: "WithPrefetch", scope: atDial, n: int64(n), apply: func(o *options, a Option) { o.prefetch = int(a.n) }}
}

// WithHedge arms hedged requests against a replica server: when the
// head-of-line batch has been outstanding longer than delay, the client
// re-requests it from the replica — first response wins, the loser's
// grant is cancelled, and a too-late duplicate is released, never leaked.
// The replica must serve the same stream on the same fabric. Dial.
func WithHedge(replica *ServerAddr, delay time.Duration) Option {
	return Option{name: "WithHedge", scope: atDial, v: replica, d: delay, apply: func(o *options, a Option) { o.hedge, o.hedgeDelay = a.v.(*ServerAddr), a.d }}
}

// WithDialRetry bounds OPEN retries after ErrServerOverloaded rejections
// (default 0: fail fast) with exponential backoff from the given base
// (default 10ms). Dial.
func WithDialRetry(attempts int, backoff time.Duration) Option {
	return Option{name: "WithDialRetry", scope: atDial, n: int64(attempts), d: backoff, apply: func(o *options, a Option) { o.retries, o.backoff = int(a.n), a.d }}
}

// Dial opens a batch stream on a served preprocessing cluster and returns
// the remote session. The stream's shape (batch size, budget, seed) is
// set client-side with the same options a local Open takes; the server
// admits the open through its auth table, quotas, and capacity — rejections
// come back as the typed ErrUnauthorized / ErrQuotaExceeded /
// ErrServerOverloaded, the latter retried per WithDialRetry before
// surfacing.
func Dial(addr *ServerAddr, opts ...Option) (*RemoteSession, error) {
	if addr == nil {
		return nil, configErr("Dial", "requires a server address")
	}
	o, err := build(atDial, opts)
	if err != nil {
		return nil, err
	}
	if o.stream == "" {
		if len(addr.pub) != 1 {
			return nil, configErr("WithStream", fmt.Sprintf(
				"the server publishes %d streams (%v); pick one", len(addr.pub), addr.Streams()))
		}
		for name := range addr.pub { // the only one
			o.stream = name
		}
	}
	if o.hedge != nil {
		switch {
		case o.hedgeDelay <= 0:
			return nil, configErr("WithHedge", fmt.Sprintf("hedge delay %v must be positive", o.hedgeDelay))
		case o.hedge.sn != addr.sn:
			return nil, configErr("WithHedge", "the replica must share the primary's fabric")
		case o.hedge == addr:
			return nil, configErr("WithHedge", "the replica must be a different server")
		}
	}
	rs := &RemoteSession{addr: addr, name: o.stream, dialed: o}
	rs.rt, rs.src, rs.retain = addr.rt, rs, o.retain
	rs.runOnKernel(openRemote, rs)
	rs.dialed = nil
	o.recycle()
	if err := rs.err; err != nil {
		if errors.Is(err, service.ErrUnknownStream) {
			return nil, configErr("WithStream", err.Error())
		}
		return nil, err
	}
	return rs, nil
}

// openRemote opens the session's stream as Dial's options shape it: Dial's
// step on the kernel.
func openRemote(x any) {
	s := x.(*RemoteSession)
	o := s.dialed
	replicaEP := -1
	if o.hedge != nil {
		replicaEP = o.hedge.ep
	}
	spec := service.StreamSpec{
		Name:       o.stream,
		Token:      o.token,
		BatchSize:  o.batchSize,
		Iterations: o.iterations,
		Epochs:     o.epochs,
		Seed:       o.seed,
	}
	cfg := service.ClientConfig{
		Window:     o.prefetch,
		HedgeDelay: o.hedgeDelay,
		Retries:    o.retries,
		Backoff:    o.backoff,
	}
	cli, err := service.Open(context.Background(), s.addr.sn.net, s.addr.ep, replicaEP, spec, cfg)
	if err != nil {
		s.err = err
		return
	}
	s.cli = cli
	s.stats.Attach(cli)
}

// closeRemote is Close's step on the kernel: the first one closes the stream
// and takes its Report and error into final and finalErr, which no later step
// writes.
func closeRemote(x any) {
	s := x.(*RemoteSession)
	if s.state == sessionClosed {
		return
	}
	s.state = sessionClosed
	s.stop()
	s.final, s.finalErr = s.report(s.name, "remote", 1), s.err
}

// RemoteSession is one client-side batch stream over the service fabric —
// the remote counterpart of a Session. Batches streams the configured
// budget exactly once with the same recycling contract; Close tears the
// stream down (server-side session included) and returns the Report.
type RemoteSession struct {
	// stream is the single-use state, counters and batch pump a
	// RemoteSession shares with a Session; the RemoteSession is its remote
	// source.
	stream

	addr *ServerAddr
	name string
	// dialed is Dial's options, while Dial's step on the kernel opens the
	// stream they shape.
	dialed *options
	// cli is the client, from Dial until it is recycled; hungUp, that it
	// has been closed (once, by the end of the Batches loop or by Close).
	// Both the kernel's. stats reads its counters, and then what they were
	// when it was recycled.
	cli    *service.Client
	hungUp bool
	stats  service.StatsView
	// final and finalErr are what the first Close took, for every Close to
	// return.
	final    Report
	finalErr error
}

// Batches returns a single-use iterator over the remote stream, shaped
// exactly like Session.Batches: batches arrive in order, a yielded batch
// is recycled when the loop takes the next step (unless WithRetainBatches),
// and breaking out early cancels the stream server-side. Waiting happens
// in virtual time; hedged requests fire while the consumer is parked.
func (s *RemoteSession) Batches(ctx context.Context) iter.Seq2[*Batch, error] { return s.pump(ctx) }

// The five methods below make a RemoteSession its stream's source: the
// stream was opened by Dial, so there is nothing to start, and its Stats are
// the client's own.

func (s *RemoteSession) ready() error                { return nil }
func (s *RemoteSession) start(context.Context) error { return nil }
func (s *RemoteSession) publish()                    {}

func (s *RemoteSession) next(ctx context.Context) (*Batch, error) { return s.cli.Recv(ctx) }

// stop closes the client, once. Then, unless a Batches loop is still inside
// the client (a Close from another task of the kernel; the loop's own end
// stops it again), it hands the client, with its endpoint's inbox, to their
// stocks: the END handshake is done, so nothing reaches either again. Stats
// reads the counters' snapshot from then on.
func (s *RemoteSession) stop() {
	if s.cli == nil {
		return
	}
	if !s.hungUp {
		s.hungUp = true
		_ = s.cli.Close(context.Background())
	}
	if !s.begun {
		s.cli = nil
		s.stats.Retire()
	}
}

// Stats snapshots the client-side counters; safe from any goroutine.
func (s *RemoteSession) Stats() RemoteStats { return s.stats.Stats() }

// Close tears the remote stream down — the server finishes or discards
// in-flight batches, closes its backing cluster session, and sends its
// final END — and returns the client-side Report. Idempotent.
func (s *RemoteSession) Close() (*Report, error) {
	s.runOnKernel(closeRemote, s)
	rep := new(Report)
	*rep = s.final
	cs := s.stats.Stats()
	rep.StepP50 = cs.StepP50
	rep.StepP99 = cs.StepP99
	return rep, s.finalErr
}
