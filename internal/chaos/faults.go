package chaos

import (
	"slices"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
)

// Faults is a run's fault-window table: one FaultStat per applied event, in
// application order, and the windows still open. A Controller keeps one and
// fills it as it applies a script; the multi-node runner also records its
// membership events into its controller's table. Task-only, like the kernel
// it stamps from; Stats is for after the run.
type Faults struct {
	rt     *simtime.Virtual
	tenant int32
	// stall, when set, is the run's cumulative consumer stall; a window is
	// attributed the difference between its close and its open.
	stall func() time.Duration

	stats []FaultStat
	open  []window // the windows Close can find, keyed by (kind, node)
}

// window is one open fault window: the stat it completes, and the stall
// snapshot taken when it opened.
type window struct {
	kind  Kind
	node  int
	idx   int // index into stats
	stall time.Duration
}

// Instant records ev applied now, with its StageFault span, and opens no
// window (Resume, NodeJoin). It returns the stat's index, for the Recovery the
// driver measures later (At).
func (f *Faults) Instant(ev Event, node int) int {
	now := f.rt.Now()
	f.stats = append(f.stats, FaultStat{Event: ev, AppliedAt: now})
	f.rt.Trace().Instant(trace.Span{Stage: trace.StageFault, Tenant: f.tenant,
		Node: int32(node), Key: int64(ev.Kind)}, now)
	return len(f.stats) - 1
}

// begin records ev taking effect now and returns its window, which only
// end closes; node also labels the spans (-1: the substrate as a whole).
func (f *Faults) begin(ev Event, node int) window {
	w := window{kind: ev.Kind, node: node, idx: f.Instant(ev, node)}
	if f.stall != nil {
		w.stall = f.stall()
	}
	return w
}

// Open records ev taking effect now and opens its window under (ev.Kind,
// node), for the Close of its counterpart. Script.Validate pairs every
// counterpart with one open window.
func (f *Faults) Open(ev Event, node int) { f.open = append(f.open, f.begin(ev, node)) }

// Close clears the window kind opened on node and returns its stat (valid
// until the next Open or Instant); nil when no such window is open.
func (f *Faults) Close(kind Kind, node int) *FaultStat {
	for i, w := range f.open {
		if w.kind == kind && w.node == node {
			f.open = slices.Delete(f.open, i, i+1)
			return f.end(w)
		}
	}
	return nil
}

// end clears w, stamping ClearedAt, the stall accumulated since it opened and
// the StageFaultWindow span.
func (f *Faults) end(w window) *FaultStat {
	fs := &f.stats[w.idx]
	fs.ClearedAt = f.rt.Now()
	if f.stall != nil {
		fs.StallDuring = f.stall() - w.stall
	}
	f.rt.Trace().Record(trace.Span{Start: fs.AppliedAt, End: fs.ClearedAt, Stage: trace.StageFaultWindow,
		Tenant: f.tenant, Node: int32(w.node), Key: int64(w.kind)})
	return fs
}

// At returns the i-th stat for the driver to complete; valid until the next
// Open or Instant.
func (f *Faults) At(i int) *FaultStat { return &f.stats[i] }

// Stats returns a copy of the table (nil when nothing was applied).
func (f *Faults) Stats() []FaultStat { return append([]FaultStat(nil), f.stats...) }
