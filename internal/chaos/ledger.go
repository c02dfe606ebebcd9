package chaos

import (
	"slices"
	"time"

	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/trace"
)

// The run's ledger. The fault-window table holds one FaultStat per applied
// event, in application order, and the windows still open; a Controller
// fills it as it applies a script, and the multi-node runner records its
// membership events into it. Beside it, the drivers' consumers record every
// wait they measure (Stalled) and every step boundary (Step), each once and
// with its span, so a report's stall attribution, its step-interval
// quantiles and each window's StallDuring come from one set of totals.
// Stats, Stalls, StepHist and PreemptStall are for after the run.

// window is one open fault window: the stat it completes, and the stall
// snapshot taken when it opened.
type window struct {
	kind  Kind
	node  int
	idx   int // index into stats
	stall time.Duration
}

// instant records ev applied now, with its StageFault span, and returns its
// stat's index.
func (c *Controller) instant(ev Event, node int) int {
	now := c.rt.Now()
	c.stats = append(c.stats, FaultStat{Event: ev, AppliedAt: now})
	c.rt.Trace().Instant(trace.Span{Stage: trace.StageFault, Tenant: c.tenant,
		Node: int32(node), Key: int64(ev.Kind)}, now)
	return len(c.stats) - 1
}

// begin records ev taking effect now and returns its window, which only
// end closes; node also labels the spans (-1: the substrate as a whole).
func (c *Controller) begin(ev Event, node int) window {
	return window{kind: ev.Kind, node: node, idx: c.instant(ev, node), stall: c.consumerStall()}
}

// Open records ev taking effect now and opens its window under (ev.Kind,
// node), for the Close of its counterpart. Script.Validate pairs every
// counterpart with one open window.
func (c *Controller) Open(ev Event, node int) { c.open = append(c.open, c.begin(ev, node)) }

// Close clears the window kind opened on node; it does nothing when no such
// window is open.
func (c *Controller) Close(kind Kind, node int) {
	for i, w := range c.open {
		if w.kind == kind && w.node == node {
			c.open = slices.Delete(c.open, i, i+1)
			c.end(w)
			return
		}
	}
}

// end clears w, stamping ClearedAt, the stall accumulated since it opened and
// the StageFaultWindow span.
func (c *Controller) end(w window) {
	fs := &c.stats[w.idx]
	fs.ClearedAt = c.rt.Now()
	fs.StallDuring = c.consumerStall() - w.stall
	c.rt.Trace().Record(trace.Span{Start: fs.AppliedAt, End: fs.ClearedAt, Stage: trace.StageFaultWindow,
		Tenant: c.tenant, Node: int32(w.node), Key: int64(w.kind)})
}

// Stats returns a copy of the table (nil when nothing was applied).
func (c *Controller) Stats() []FaultStat { return append([]FaultStat(nil), c.stats...) }

// Stall names what a consumer waited on.
type Stall uint8

const (
	DataStall    Stall = iota // blocked on the loader
	BarrierStall              // parked at the step barrier for slower ranks
	NetworkStall              // in the gradient all-reduce
	Downtime                  // crashed out of the membership: no window is charged it
	stallKinds
)

// stallStages are the spans the waits record.
var stallStages = [stallKinds]trace.Stage{trace.StageDataWait, trace.StageBarrierWait,
	trace.StageNetworkWait, trace.StageDowntime}

// Stalls is one node's consumer stall totals by kind, summed over its
// consumers.
type Stalls [stallKinds]time.Duration

// Stalled records one consumer wait of kind s from start to end: consumer
// key of node waited at its batch or round seq. It adds end − start to the
// run's total of that kind and, on a multi-node run, to the node's (on one
// machine node only labels the span), and records the wait's span.
func (c *Controller) Stalled(node int, s Stall, key, seq int64, start, end time.Duration) {
	d := end - start
	c.total[s] += d
	if c.nodes > 0 {
		c.stalls[node][s] += d
	}
	c.rt.Trace().Record(trace.Span{Start: start, End: end, Stage: stallStages[s], Tenant: c.tenant,
		Node: int32(node), Key: key, Seq: seq})
}

// Step records lane's step boundary at now: the interval since the lane's
// last one (or the run's start) goes into the step-interval histogram, and
// the boundary is a progress point, which closes every pending recovery. A
// nil controller (a served stream keeps no ledger) records nothing.
func (c *Controller) Step(lane int, now time.Duration) {
	if c == nil {
		return
	}
	c.hist.AddDuration(now - c.last[lane])
	c.last[lane] = now
	for _, r := range c.recovering {
		c.stats[r.idx].Recovery = now - r.from
	}
	c.recovering = c.recovering[:0]
}

// consumerStall is the consumer stall a fault window is charged the growth
// of: the recorded data, barrier and network waits, and the gate's.
func (c *Controller) consumerStall() time.Duration {
	return c.total[DataStall] + c.total[BarrierStall] + c.total[NetworkStall] + c.PreemptStall()
}

// Stalls returns the run's stall totals and, on a multi-node run, each
// node's, in node order. The slice is the ledger's own.
func (c *Controller) Stalls() (run Stalls, nodes []Stalls) { return c.total, c.stalls }

// StepHist returns the step-interval histogram. It is the ledger's own.
func (c *Controller) StepHist() *metrics.LogHist { return &c.hist }
