// Package netsim models the cluster interconnect, where gradient
// all-reduce traffic and remote dataset fetches contend for the same NICs.
//
// Topology: every endpoint (a training node, the storage server, or a
// service fabric's server or client) owns a full-duplex NIC on a
// non-blocking switch, so the contention points are the 2·E unidirectional
// NIC links. A flow from src to dst occupies src's egress and dst's ingress
// for its byte count, after a fixed propagation latency.
//
// Sharing: flows receive max-min fair rates, by water-filling over the
// links they cross, recomputed at flow entry and exit and bandwidth changes
// within the connected component of links the change touches. The flows
// whose rate one link fixes share that rate, so they form the link's group:
// one device.Share, the processor-sharing integral devices use. A rate
// change re-anchors the group's integral and moves only its front's timer;
// a flow is re-anchored and retimed only when its bottleneck link changes.
// Identical seeds reproduce multi-node runs bit-for-bit.
package netsim

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
)

// The paper's cluster interconnect (§3): 200 Gb/s NICs and a 200µs
// per-transfer propagation delay. New takes a Config as given; the layers
// that build fabrics (distributed, service) fill zero fields from these.
const (
	PaperBandwidth = 25e9 // bytes/s per direction ≈ 200 Gb/s
	PaperLatency   = 200 * time.Microsecond
)

// Config sizes a fabric. New uses it as given; service.NewNet fills its zero
// fields with the defaults noted here.
type Config struct {
	// Endpoints is the number of NIC-owning endpoints: training nodes and
	// storage servers, or a service fabric's servers and clients (default 64).
	Endpoints int
	Bandwidth float64       // per NIC direction, bytes/s (default PaperBandwidth)
	Latency   time.Duration // per transfer (default PaperLatency)
}

// Fabric is the simulated interconnect: task-only state (simtime.Virtual.Run
// or Post reach it from outside). On a traced kernel each retiring flow
// records a StageFlow span (Node = source, Key = destination endpoint,
// Detail = bytes delivered) and each settled rate change a StageFlowRate
// instant (Detail = bytes/s), at the first fabric call across elapsed time,
// so a rate that bends and bends back within one instant leaves no span.
type Fabric struct {
	rt      *simtime.Virtual
	latency time.Duration

	links    []link         // 2 per endpoint: egress = 2e, ingress = 2e+1
	groups   []device.Share // per link: the flows whose rate it fixes
	all      flowList       // the live flows, in arrival order
	lastT    time.Duration
	reshared bool // since the rates last settled

	doneBytes int64 // delivered by retired flows: sizes, or partial progress
	flowsDone int64
	// free lists the recycled flow records, with their selectors, through
	// their fabric-list link: a record off the fabric list has no use for it.
	free *flow

	// Water-filling scratch: the component's links, its bottlenecks, the
	// links whose groups change, and the stamps of this reshare and its
	// latest pass (link.seen, begun and mark, flow.fixed).
	comp, bott, begun []int
	start, tick       uint64
}

// flowStock holds the flow records of recycled fabrics, process-wide. Its
// bound is the benchmark workloads' peak, serve-256's 256 records, a flow per
// client; multinode8-flashcrowd peaks at 73. A transfer draws its record
// when it starts, so the flows in their latency count.
var flowStock = simtime.NewStock[*flow](256)

// tieTol is water-filling's relative tie tolerance. An absolute one fails
// at NIC rates, where the residuals' rounding exceeds any fixed epsilon and
// one bottleneck level splits into many passes.
const tieTol = 1e-9

// link is one unidirectional NIC attachment; its group is Fabric.groups[i].
type link struct {
	flows flowList // the flows crossing it, in arrival order
	bw    float64  // current bandwidth, bytes/s
	// busyB is the full-bandwidth seconds of what its retired flows, and its
	// live ones before its last bandwidth change, carried at the time's bw.
	busyB float64
	// Water-filling scratch: residual capacity, unfixed flows, group rate,
	// and the visit, group and bottleneck stamps.
	cap, rate         float64
	un                int
	seen, begun, mark uint64
}

// flow is one in-flight transfer: an entry in the group of the link that
// fixes its rate. What water-filling visits comes first, in one cache line.
type flow struct {
	link        [2]int   // egress, ingress link indices
	next        [3]*flow // neighbours in the egress, ingress and fabric lists
	fixed       uint64   // the water-filling pass that fixed the rate
	grp, to     int      // group link (-1: none), and the next one
	prev        [3]*flow
	size        int64
	startT      time.Duration
	left        float64    // bytes left when it last changed group
	base        [2]float64 // bytes moved by each link's last bandwidth change
	e           device.Entry
	settledRate float64 // last recorded as a StageFlowRate; -1 before
	f           *Fabric
}

// flowList is an intrusive list of flows through slot s of their links:
// 0 for a link's egress flows, 1 for its ingress flows, 2 for the fabric's.
type flowList struct {
	head, tail *flow
	n          int
}

func (l *flowList) push(fl *flow, s int) {
	fl.prev[s], fl.next[s] = l.tail, nil
	if l.tail != nil {
		l.tail.next[s] = fl
	} else {
		l.head = fl
	}
	l.tail = fl
	l.n++
}

func (l *flowList) remove(fl *flow, s int) {
	if p := fl.prev[s]; p != nil {
		p.next[s] = fl.next[s]
	} else {
		l.head = fl.next[s]
	}
	if n := fl.next[s]; n != nil {
		n.prev[s] = fl.prev[s]
	} else {
		l.tail = fl.prev[s]
	}
	fl.prev[s], fl.next[s] = nil, nil
	l.n--
}

// New returns a fabric with cfg.Endpoints NICs. Endpoints and Bandwidth
// must be positive.
func New(rt *simtime.Virtual, cfg Config) *Fabric {
	if cfg.Endpoints <= 0 {
		panic("netsim: need at least one endpoint")
	}
	if cfg.Bandwidth <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	nl := 2 * cfg.Endpoints
	f := &Fabric{rt: rt, latency: cfg.Latency, links: make([]link, nl), groups: make([]device.Share, nl), lastT: rt.Now()}
	scratch := make([]int, 3*nl)
	f.comp, f.bott, f.begun = scratch[:0:nl], scratch[nl:nl:2*nl], scratch[2*nl:2*nl]
	slots := make([]*device.Entry, nl) // every group's first heap slot
	for i := range f.links {
		f.links[i].bw = cfg.Bandwidth
		f.groups[i].Reserve(slots[i : i+1 : i+1])
	}
	rt.Own(f)
	return f
}

// Endpoints returns the number of NIC-owning endpoints.
func (f *Fabric) Endpoints() int { return len(f.links) / 2 }

// MinBandwidth is the floor SetBandwidth clamps to, in bytes/s, so failure
// scripts can express a full link outage: traffic crawls at 1 B/s and
// resumes when the link is restored.
const MinBandwidth = 1.0

// SetBandwidth rescales one endpoint's NIC to bw bytes/s in both
// directions — the degraded-link failure injection — and re-shares the
// flows in flight. Values below MinBandwidth (including zero, negative and
// NaN: a scripted full link failure) are clamped to MinBandwidth.
func (f *Fabric) SetBandwidth(endpoint int, bw float64) {
	if bw < MinBandwidth || bw != bw {
		bw = MinBandwidth
	}
	f.settle()
	for _, i := range [2]int{2 * endpoint, 2*endpoint + 1} {
		f.busy(i, true)
		f.links[i].bw = bw
	}
	f.reshare(2*endpoint, 2*endpoint+1, nil)
}

// busy returns link i's transfer work in full-bandwidth seconds; rebase
// folds its live flows' bytes so far into busyB, before a bandwidth change.
func (f *Fabric) busy(i int, rebase bool) float64 {
	ln := &f.links[i]
	busy := ln.busyB
	for fl := ln.flows.head; fl != nil; fl = fl.next[i&1] {
		m := float64(fl.size) - f.remaining(fl)
		busy += (m - fl.base[i&1]) / ln.bw
		if rebase {
			fl.base[i&1] = m
		}
	}
	if rebase {
		ln.busyB = busy
	}
	return busy
}

// remaining returns the bytes fl has left as of the fabric's clock.
func (f *Fabric) remaining(fl *flow) float64 {
	g := &f.groups[fl.grp]
	g.Advance(f.lastT)
	return g.Left(&fl.e)
}

// BytesMoved returns the bytes delivered by retired and in-flight transfers.
func (f *Fabric) BytesMoved() int64 {
	f.settle()
	total := f.doneBytes
	for fl := f.all.head; fl != nil; fl = fl.next[2] {
		total += fl.size - int64(f.remaining(fl))
	}
	return total
}

// Recycle hands the fabric's flow records (with their selectors) to the
// fabrics built after it, at its kernel's teardown (simtime.Virtual.Recycle);
// a fabric with flows in flight keeps them. The fabric stays usable.
func (f *Fabric) Recycle() {
	if f.all.n > 0 {
		return
	}
	for fl := f.free; fl != nil; fl = f.free {
		f.free, fl.next[2] = fl.next[2], nil
		flowStock.Put(fl)
	}
}

// FlowsCompleted returns how many transfers have retired, done or cancelled.
func (f *Fabric) FlowsCompleted() int64 { return f.flowsDone }

// LinkBusySeconds returns a NIC direction's transfer work in full-bandwidth
// seconds (dir 0 = egress, 1 = ingress): utilization is Δbusy/Δt.
func (f *Fabric) LinkBusySeconds(endpoint, dir int) float64 {
	f.settle()
	return f.busy(2*endpoint+dir, false)
}

// Transfer moves n bytes from endpoint src to endpoint dst, occupying
// src's egress and dst's ingress NIC links. It blocks (in virtual time)
// for the propagation latency plus the fair-shared transfer time, and
// returns ctx.Err() if cancelled mid-flight. Loopback transfers (src ==
// dst) pay only the latency: node-local traffic never crosses the NIC.
// The task parks once: the flow's step (flow.Step) enters the flow when
// the latency ends and waits out its group's completions in place.
func (f *Fabric) Transfer(ctx context.Context, src, dst int, n int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if src < 0 || src >= f.Endpoints() || dst < 0 || dst >= f.Endpoints() {
		return fmt.Errorf("netsim: transfer %d→%d outside fabric of %d endpoints", src, dst, f.Endpoints())
	}
	if n <= 0 || src == dst {
		return f.rt.Sleep(ctx, f.latency)
	}

	fl := f.free
	if fl != nil {
		f.free = fl.next[2]
	} else {
		var ok bool
		if fl, ok = flowStock.Get(); !ok {
			fl = &flow{}
		}
		fl.e.Bind(f.rt)
	}
	fl.f, fl.link = f, [2]int{2 * src, 2*dst + 1}
	fl.size, fl.grp, fl.fixed, fl.base, fl.settledRate = n, -1, 0, [2]float64{}, -1
	sel := fl.e.Selector()
	sel.Reset()
	d, wait := f.latency, true
	if d <= 0 {
		d, wait = fl.Step() // no latency: enter now
	}
	var err error
	if wait {
		err = sel.WaitStep(ctx, d, fl)
	}
	if fl.grp < 0 { // cancelled within its latency: it never entered
		fl.next[2], f.free = f.free, fl
		return err
	}
	f.settle() // after a cancellation; the last step has settled otherwise
	f.exit(fl)
	return err
}

// Step implements simtime.Stepper for the flow's task: the wake that ends
// its latency enters the flow, a later one brings the fabric to now, and it
// parks the task again until its group's next completion, or resumes it
// once the flow is done.
func (fl *flow) Step() (time.Duration, bool) {
	f := fl.f
	if fl.grp < 0 {
		f.enter(fl)
	} else {
		f.settle()
	}
	g := &f.groups[fl.grp] // which can change while fl is parked
	if g.Advance(f.lastT); g.Done(&fl.e) {
		return 0, false
	}
	return g.Deadline(&fl.e, false), true
}

// enter puts fl in the fabric at the current instant, behind the flows in
// flight, and re-shares its component.
func (f *Fabric) enter(fl *flow) {
	f.settle()
	fl.startT = f.lastT
	f.all.push(fl, 2)
	for _, i := range fl.link {
		f.links[i].flows.push(fl, i&1)
	}
	f.reshare(fl.link[0], fl.link[1], nil)
}

// exit removes fl from the fabric (the survivors keep their arrival order),
// re-shares its component and recycles fl.
func (f *Fabric) exit(fl *flow) {
	for _, i := range fl.link {
		f.links[i].flows.remove(fl, i&1)
	}
	f.all.remove(fl, 2)
	f.reshare(fl.link[0], fl.link[1], fl)
	moved := fl.size - int64(fl.left)
	for s, i := range fl.link {
		f.links[i].busyB += (float64(fl.size) - fl.left - fl.base[s]) / f.links[i].bw
	}
	f.rt.Trace().Record(trace.Span{Start: fl.startT, End: f.lastT, Stage: trace.StageFlow,
		Node: int32(fl.link[0] / 2), Key: int64(fl.link[1] / 2), Detail: moved})
	f.doneBytes += moved
	f.flowsDone++
	fl.next[2], f.free = f.free, fl
}

// settle brings the fabric's clock to now. On a traced kernel, the rates
// the last reshare assigned have then persisted across real elapsed time:
// they are settled, and the ones that moved are recorded.
func (f *Fabric) settle() {
	now := f.rt.Now()
	if now <= f.lastT {
		return
	}
	if tr := f.rt.Trace(); f.reshared && tr.Enabled() {
		for fl := f.all.head; fl != nil; fl = fl.next[2] {
			if r := f.groups[fl.grp].Rate(); r != fl.settledRate {
				tr.Instant(trace.Span{Stage: trace.StageFlowRate,
					Node: int32(fl.link[0] / 2), Key: int64(fl.link[1] / 2),
					Detail: int64(r)}, f.lastT)
				fl.settledRate = r
			}
		}
	}
	f.reshared = false
	f.lastT = now
}

// reshare recomputes max-min fair rates over the connected component of
// links a and b (of a flow that came or left, gone, or of an endpoint whose
// bandwidth changed). Each pass marks every link within tieTol of the
// smallest residual fair share and fixes every unfixed flow crossing one at
// exactly that share: one pass per level. A flow joins the group of the
// link that fixed it (when both did, it stays, else takes its egress) with
// the bytes it has left, and each group takes its new rate.
func (f *Fabric) reshare(a, b int, gone *flow) {
	f.tick++
	f.start = f.tick
	comp, bott := append(f.comp[:0], a, b), f.bott[:0]
	f.begun = f.begun[:0]
	f.links[a].seen, f.links[b].seen = f.start, f.start
	unfixed := 0
	for q := 0; q < len(comp); q++ {
		i := comp[q]
		ln := &f.links[i]
		ln.cap, ln.un = ln.bw, ln.flows.n
		unfixed += ln.flows.n // each flow twice, once per link
		if q >= 2 && ln.flows.n == 1 {
			continue // found through its one flow
		}
		for fl := ln.flows.head; fl != nil; fl = fl.next[i&1] {
			if o := &f.links[fl.link[i&1^1]]; o.seen != f.start {
				o.seen = f.start
				comp = append(comp, fl.link[i&1^1])
			}
		}
	}
	unfixed /= 2
	if gone != nil {
		gone.to = -1
		f.regroup(gone)
	}
	for unfixed > 0 {
		f.tick++
		// The tightest link, comparing cap/un as cross products: cheaper.
		tight, tightN := math.Inf(1), 1
		for _, i := range comp {
			if ln := &f.links[i]; ln.un > 0 && ln.cap*float64(tightN) < tight*float64(ln.un) {
				tight, tightN = ln.cap, ln.un
			}
		}
		share, pass := tight/float64(tightN), len(bott)
		for _, i := range comp {
			if ln := &f.links[i]; ln.un > 0 && ln.cap <= share*(1+tieTol)*float64(ln.un) {
				ln.mark, ln.rate = f.tick, share
				bott = append(bott, i)
			}
		}
		for _, i := range bott[pass:] {
			for fl := f.links[i].flows.head; fl != nil; fl = fl.next[i&1] {
				if fl.fixed > f.start {
					continue
				}
				fl.fixed, fl.to = f.tick, fl.link[0]
				if g := fl.grp; g >= 0 && f.links[g].mark == f.tick {
					fl.to = g // a tie leaves a flow where it is
				} else if f.links[fl.to].mark != f.tick {
					fl.to = fl.link[1]
				}
				for _, j := range fl.link {
					f.links[j].cap -= share
					f.links[j].un--
				}
				unfixed--
				if fl.to != fl.grp {
					f.regroup(fl)
				}
			}
		}
	}
	for _, i := range bott {
		r := f.links[i].rate
		f.group(i).SetRate(r, r*1e-9) // slack: a nanosecond's bytes
	}
	for _, i := range f.begun {
		f.groups[i].Rearm()
	}
	f.comp, f.bott, f.reshared = comp, bott, true
}

// regroup moves fl out of its group, noting the bytes it has left, and into
// link fl.to's (none, -1, for a flow that left the fabric).
func (f *Fabric) regroup(fl *flow) {
	fl.left = float64(fl.size)
	if fl.grp >= 0 {
		g := f.group(fl.grp)
		fl.left = g.Left(&fl.e)
		g.Remove(&fl.e)
	}
	if fl.grp = fl.to; fl.to >= 0 {
		f.group(fl.to).Insert(&fl.e, fl.left)
	}
}

// group returns link i's group, begun for the changes of this reshare: its
// rate and front before them noted, for Rearm.
func (f *Fabric) group(i int) *device.Share {
	g := &f.groups[i]
	if ln := &f.links[i]; ln.begun != f.start {
		ln.begun = f.start
		g.Advance(f.lastT)
		g.Begin()
		f.begun = append(f.begun, i)
	}
	return g
}
