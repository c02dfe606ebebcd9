package chaos

import (
	"slices"
	"time"

	"github.com/minatoloader/minato/internal/trace"
)

// The fault-window table: one FaultStat per applied event, in application
// order, and the windows still open. A Controller fills it as it applies a
// script; the multi-node runner also records its membership events into it.
// Stats is for after the run.

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
