// Package netsim models the cluster interconnect: NICs and links with
// bandwidth fair-sharing and latency, on the same event-driven wait fabric
// (simtime.Selector) that device occupancy uses. It is the substrate for
// true multi-node runs, where gradient all-reduce traffic and remote
// dataset fetches contend for the same NICs — the regime the single-server
// evaluation cannot see.
//
// Topology: every endpoint (a training node, the storage server, or a
// service fabric's preprocessing server or client) owns a full-duplex NIC
// attached to a non-blocking switch, so the contention points are the 2·E
// unidirectional NIC links (egress and ingress per endpoint); the switch
// core is never the bottleneck, matching a fat-tree-style cluster fabric. A Flow from src to dst occupies src's
// egress and dst's ingress for its byte count, after a fixed propagation
// latency.
//
// Sharing: concurrent flows receive max-min fair rates, computed by
// water-filling over the links each flow crosses — the classic fluid
// approximation of per-flow fair queueing (TCP-like long flows on a shared
// fabric). Rates change only at flow entry/exit and explicit bandwidth
// changes, all of which are kernel-visible events; each in-flight flow
// parks once, on a recycled Selector with an exact completion deadline, and
// a rate change moves that deadline in place (Selector.Retime): a parked
// flow is resumed only when it has something to do — complete, or return a
// cancellation. No polling, and under the virtual runtime every transfer
// completes at a deterministic instant — identical seeds reproduce
// multi-node runs bit-for-bit.
package netsim

import (
	"context"
	"fmt"
	"math"
	"time"

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
	// Endpoints is the number of NIC-owning endpoints: training nodes plus
	// any storage servers, or a service fabric's preprocessing servers and
	// their clients (service.NewNet's default: 64).
	Endpoints int
	// Bandwidth is each NIC's full-duplex bandwidth in bytes/s per
	// direction (default PaperBandwidth).
	Bandwidth float64
	// Latency is the fixed per-transfer propagation delay (default
	// PaperLatency).
	Latency time.Duration
}

// Fabric is the simulated interconnect: plain task-only state, like the
// selectors its flows park on. Goroutines outside the kernel reach it through
// simtime.Virtual.Run or Post.
//
// On a traced kernel each retiring flow records a StageFlow span (Node =
// source endpoint, Key = destination endpoint, Detail = bytes delivered) and
// each settled rate change a StageFlowRate instant (Detail = bytes/s). Rate
// instants are recorded at settlement — the first advance across real
// elapsed time — so a rate that bends and bends back within one instant,
// carrying no bytes, leaves no span.
type Fabric struct {
	rt      *simtime.Virtual
	latency time.Duration

	links []link // 2 per endpoint: egress = 2e, ingress = 2e+1
	flows []*flow
	lastT time.Duration
	// anchorT is the last reshare instant: link busy integrals advance
	// analytically from their anchors at the carried rate-sum fixed then.
	anchorT time.Duration
	// residuals is water-filling scratch (one slot per link), kept on the
	// fabric so resharing allocates nothing.
	residuals []residual
	// active lists the links a live flow crosses, as of the last reshare:
	// water-filling and the busy integrals visit these, not all 2·E. A link
	// that goes idle leaves the list with its busyIntegral as it stands.
	active []int

	// doneBytes counts bytes delivered by retired flows exactly (a
	// completed flow contributes its full size as an integer, a cancelled
	// one its analytic partial progress); in-flight progress is added
	// analytically at query time. Nothing is accumulated per wake segment,
	// so the counter cannot pick up truncation jitter from scheduling-
	// dependent intermediate wakes.
	doneBytes int64
	flowsDone int64

	// free recycles flow records (and the selectors they embed) across Transfer
	// calls: the steady-state transfer path allocates nothing. Fresh records
	// come from the fabrics recycled before this one (see Recycle).
	free []*flow
}

// flowStock holds the flow records of recycled fabrics, process-wide. Its
// bound is serve-256's peak, a flow per client.
var flowStock = simtime.NewStock[*flow](256)

// link is one unidirectional NIC attachment.
type link struct {
	bw float64 // current bandwidth, bytes/s
	n  int     // flows crossing this link
	// busyIntegral accumulates ∫ (used-bandwidth / bw) dt in full-bandwidth
	// seconds, converted at the bandwidth in force when the traffic moved —
	// so a later SetBandwidth cannot retroactively rescale history.
	// Utilization over a window is Δbusy/Δt. It is anchored at the last
	// reshare (anchorB at Fabric.anchorT, advancing at rateSum/bw) and
	// recomputed analytically, never per wake segment.
	busyIntegral float64
	anchorB      float64
	rateSum      float64 // total rate of flows crossing this link
}

// flow is one in-flight transfer. Progress is anchored at the last rate
// change: remaining is recomputed analytically from (anchorRem, anchorT,
// rate) and the completion instant is the absolute finishAt stamped when
// the rate was assigned. Anchors move only at reshare points — flow entry,
// flow exit, SetBandwidth — never at a wake that changed nothing, so a
// flow's trajectory is a function of the fabric's event history. That
// history is itself a function of the program: the kernel runs one task at
// a time in a defined order, so Fabric.flows holds the live flows in
// arrival order and needs no sorting to be reproducible.
type flow struct {
	egress, ingress int           // link indices
	size            int64         // original transfer size
	startT          time.Duration // entry time
	remaining       float64       // bytes left as of Fabric.lastT
	rate            float64       // current max-min fair rate, bytes/s
	prevRate        float64       // rate before the current reshare pass
	anchorRem       float64       // remaining at the last rate change
	anchorT         time.Duration // time of the last rate change
	finishAt        time.Duration // absolute completion deadline at rate
	sel             simtime.Selector
	// settledRate is the rate last recorded as a StageFlowRate instant;
	// -1 until the flow's first settlement. Comparing against it (rather
	// than flagging changes inside reshare) keeps out of the trace the
	// transients that bend back within one instant: a filter on what is
	// worth a span, not an ordering device.
	settledRate float64
}

// residual is per-link water-filling state: capacity and flow count not
// yet claimed by fixed flows. live marks the links on Fabric.active.
type residual struct {
	cap  float64
	n    int
	live bool
}

// unfixedRate marks a flow not yet assigned by the current water-filling
// pass.
const unfixedRate = -1

// New returns a fabric with cfg.Endpoints NICs. Endpoints and Bandwidth
// must be positive.
func New(rt *simtime.Virtual, cfg Config) *Fabric {
	if cfg.Endpoints <= 0 {
		panic("netsim: need at least one endpoint")
	}
	if cfg.Bandwidth <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	f := &Fabric{
		rt:        rt,
		latency:   cfg.Latency,
		links:     make([]link, 2*cfg.Endpoints),
		residuals: make([]residual, 2*cfg.Endpoints),
		lastT:     rt.Now(),
		anchorT:   rt.Now(),
	}
	for i := range f.links {
		f.links[i].bw = cfg.Bandwidth
	}
	rt.Own(f)
	return f
}

// Endpoints returns the number of NIC-owning endpoints.
func (f *Fabric) Endpoints() int { return len(f.links) / 2 }

// MinBandwidth is the floor SetBandwidth clamps to, in bytes/s. A zero or
// negative bandwidth would divide the water-filling rate computation by
// zero; clamping instead of panicking lets failure scripts express a full
// link outage (traffic crawls at 1 B/s — effectively parked — and resumes
// when the link is restored).
const MinBandwidth = 1.0

// SetBandwidth rescales one endpoint's NIC to bw bytes/s in both
// directions — the degraded-link failure injection. In-flight flows are
// re-shared immediately. Values below MinBandwidth (including zero and
// negative: a scripted full link failure) are clamped to MinBandwidth.
func (f *Fabric) SetBandwidth(endpoint int, bw float64) {
	if bw < MinBandwidth || bw != bw {
		bw = MinBandwidth
	}
	f.advance()
	f.links[2*endpoint].bw = bw
	f.links[2*endpoint+1].bw = bw
	f.reshare()
}

// BytesMoved returns the cumulative bytes delivered by completed and
// in-progress transfers (in-flight progress included analytically).
func (f *Fabric) BytesMoved() int64 {
	f.advance()
	total := f.doneBytes
	for _, fl := range f.flows {
		total += fl.size - int64(fl.remaining)
	}
	return total
}

// Recycle hands the fabric's flow records, with the selectors they embed, to
// the fabrics built after it, in this run or another. The fabric's kernel
// calls it at the run's teardown (simtime.Virtual.Recycle), with which New
// registers it; a fabric with flows in flight keeps its records. The fabric
// stays usable.
func (f *Fabric) Recycle() {
	if len(f.flows) > 0 {
		return
	}
	for i, fl := range f.free {
		flowStock.Put(fl)
		f.free[i] = nil
	}
	f.free = f.free[:0]
}

// FlowsCompleted returns how many transfers have retired (finished or
// cancelled mid-flight).
func (f *Fabric) FlowsCompleted() int64 { return f.flowsDone }

// LinkBusySeconds returns a NIC direction's cumulative transfer work in
// full-bandwidth seconds (dir 0 = egress, 1 = ingress): utilization over a
// window is Δbusy/Δt.
func (f *Fabric) LinkBusySeconds(endpoint, dir int) float64 {
	f.advance()
	return f.links[2*endpoint+dir].busyIntegral
}

// Transfer moves n bytes from endpoint src to endpoint dst, occupying
// src's egress and dst's ingress NIC links. It blocks (in virtual time)
// for the propagation latency plus the fair-shared transfer time, and
// returns ctx.Err() if cancelled mid-flight. Loopback transfers (src ==
// dst) pay only the latency: node-local traffic never crosses the NIC.
func (f *Fabric) Transfer(ctx context.Context, src, dst int, n int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if src < 0 || src >= f.Endpoints() || dst < 0 || dst >= f.Endpoints() {
		return fmt.Errorf("netsim: transfer %d→%d outside fabric of %d endpoints", src, dst, f.Endpoints())
	}
	if f.latency > 0 {
		if err := f.rt.Sleep(ctx, f.latency); err != nil {
			return err
		}
	}
	if n <= 0 || src == dst {
		return nil
	}

	var fl *flow
	if k := len(f.free); k > 0 {
		fl, f.free = f.free[k-1], f.free[:k-1]
	} else {
		var ok bool
		if fl, ok = flowStock.Get(); !ok {
			fl = &flow{}
		}
		fl.sel.Bind(f.rt)
	}
	fl.egress, fl.ingress = 2*src, 2*dst+1
	fl.size = n
	fl.remaining = float64(n)
	fl.rate = 0
	fl.settledRate = -1
	fl.finishAt = math.MaxInt64

	f.advance()
	fl.startT = f.lastT
	fl.anchorRem = fl.remaining
	fl.anchorT = f.lastT
	f.links[fl.egress].n++
	f.links[fl.ingress].n++
	f.flows = append(f.flows, fl)
	f.reshare()

	for {
		if fl.remaining <= 1e-6 {
			f.exit(fl)
			return nil
		}
		// Park until the absolute completion instant stamped at the last
		// rate change; a later rate change moves the armed deadline through
		// reshare, so the flow normally parks once.
		deadline := fl.finishAt - f.lastT
		if deadline <= 0 {
			deadline = time.Nanosecond
		}
		fl.sel.Reset()
		_, err := fl.sel.Wait(ctx, deadline)
		f.advance()
		if err != nil {
			f.exit(fl)
			return err
		}
	}
}

// exit removes fl from the fabric (the survivors keep their arrival order),
// re-shares them and recycles fl.
func (f *Fabric) exit(fl *flow) {
	f.rt.Trace().Record(trace.Span{Start: fl.startT, End: f.lastT, Stage: trace.StageFlow,
		Node: int32(fl.egress / 2), Key: int64(fl.ingress / 2),
		Detail: fl.size - int64(fl.remaining)})
	f.doneBytes += fl.size - int64(fl.remaining)
	f.links[fl.egress].n--
	f.links[fl.ingress].n--
	for i, e := range f.flows {
		if e == fl {
			copy(f.flows[i:], f.flows[i+1:])
			last := len(f.flows) - 1
			f.flows[last] = nil
			f.flows = f.flows[:last]
			break
		}
	}
	f.flowsDone++
	f.reshare()
	f.free = append(f.free, fl)
}

// advance integrates every in-flight flow's progress (and each
// link's carried bytes) up to now. Progress is recomputed analytically
// from the flow's rate-change anchor rather than accumulated per segment,
// so the value of remaining at any instant — and therefore every
// completion time — does not depend on how many intermediate wakes
// happened to observe the flow along the way.
func (f *Fabric) advance() {
	now := f.rt.Now()
	if now <= f.lastT {
		return
	}
	if tr := f.rt.Trace(); tr.Enabled() {
		// Rates assigned at lastT persisted across real elapsed time: they
		// are settled, record the ones that moved.
		for _, fl := range f.flows {
			if fl.rate != fl.settledRate {
				tr.Instant(trace.Span{Stage: trace.StageFlowRate,
					Node: int32(fl.egress / 2), Key: int64(fl.ingress / 2),
					Detail: int64(fl.rate)}, f.lastT)
				fl.settledRate = fl.rate
			}
		}
	}
	el := (now - f.anchorT).Seconds()
	for _, i := range f.active {
		ln := &f.links[i]
		ln.busyIntegral = ln.anchorB + ln.rateSum/ln.bw*el
	}
	for _, fl := range f.flows {
		if now >= fl.finishAt {
			fl.remaining = 0
			continue
		}
		rem := fl.anchorRem - fl.rate*(now-fl.anchorT).Seconds()
		if rem < 0 {
			rem = 0
		}
		fl.remaining = rem
	}
	f.lastT = now
}

// reshare recomputes max-min fair rates by water-filling: repeatedly
// find the most-constrained link (smallest per-flow fair share among its
// unfixed flows), fix its flows at that share, subtract their bandwidth,
// and continue until every flow has a rate. Only the active links — those
// a live flow crosses — take part. The minimum over them does not depend on
// the order they are scanned in; the float rounding of the residual-capacity
// updates does depend on the order flows are fixed in, which is their arrival
// order. Each flow whose rate changed is re-anchored here: its progress and
// absolute completion instant are restamped from the new rate, making
// reshare points the only places a flow's trajectory can bend, and a parked
// flow's armed deadline is moved to the new instant where it sleeps.
func (f *Fabric) reshare() {
	// The links active until now are exactly those whose busy integral has
	// been advancing: re-anchor them, then rebuild the list from the flows.
	res := f.residuals
	for _, i := range f.active {
		f.links[i].anchorB = f.links[i].busyIntegral
		f.links[i].rateSum = 0
		res[i].live = false
	}
	f.active = f.active[:0]
	f.anchorT = f.lastT
	unfixed := len(f.flows)
	for _, fl := range f.flows {
		fl.prevRate = fl.rate
		fl.rate = unfixedRate
		for _, i := range [2]int{fl.egress, fl.ingress} {
			if !res[i].live {
				res[i] = residual{cap: f.links[i].bw, n: f.links[i].n, live: true}
				f.active = append(f.active, i)
			}
		}
	}
	for unfixed > 0 {
		// The tightest link's fair share bounds every flow through it.
		share := math.Inf(1)
		for _, i := range f.active {
			if res[i].n > 0 {
				if s := res[i].cap / float64(res[i].n); s < share {
					share = s
				}
			}
		}
		// Fix every flow crossing a bottleneck link at that share. Fixing
		// by value (not by one chosen link) handles several links tying in
		// a single deterministic pass.
		for _, fl := range f.flows {
			if fl.rate != unfixedRate {
				continue
			}
			eg, in := &res[fl.egress], &res[fl.ingress]
			if eg.cap/float64(eg.n) <= share+1e-9 || in.cap/float64(in.n) <= share+1e-9 {
				fl.rate = share
				eg.cap -= share
				eg.n--
				in.cap -= share
				in.n--
				unfixed--
			}
		}
	}
	now := f.lastT
	for _, fl := range f.flows {
		f.links[fl.egress].rateSum += fl.rate
		f.links[fl.ingress].rateSum += fl.rate
		if fl.rate != fl.prevRate {
			// Rate changes are the only anchor points: progress and the
			// absolute completion instant are restamped here and nowhere
			// else.
			fl.anchorRem = fl.remaining
			fl.anchorT = now
			fl.finishAt = now + time.Duration(fl.anchorRem/fl.rate*float64(time.Second)) + time.Nanosecond
			// Refused by a flow that is not parked — the one entering, or
			// one readied at this instant: it re-reads finishAt itself.
			fl.sel.Retime(fl.finishAt)
		}
	}
}
