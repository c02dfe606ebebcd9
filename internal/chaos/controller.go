package chaos

import (
	"context"
	"math"
	"time"

	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
)

// Controller applies a run's scripted faults and keeps the run's ledger: the
// fault table, the preemption gate its consumers Wait at, the recoveries
// still being measured, every consumer stall (Stalled) and every step
// interval (Step). Start installs the disk timeline and replays every other
// event on one engine task, strictly in time order (stable for ties), so the
// injection schedule is deterministic. Membership events are the multi-node
// runner's: it takes them with Due at step boundaries and records them here.
// Task-only, like the kernel it runs on.
type Controller struct {
	rt     *simtime.Virtual
	tenant int32
	nodes  int // the run shape, as Validate's: 0 is one machine
	node   int // the label of faults that target the run as a whole
	t      Targets

	start  time.Duration // the run's start: each event applies at start + At
	events []Event       // the script, sorted
	next   int           // the first event Due has not passed

	stats      []FaultStat
	open       []window   // the windows Close can find, keyed by (kind, node)
	recovering []recovery // recoveries the driver's next step closes

	// The stall ledger: the run's totals, and each node's on a multi-node
	// run.
	total  Stalls
	stalls []Stalls
	// The step ledger: the step-interval histogram and each lane's last
	// step boundary.
	hist metrics.LogHist
	last []time.Duration

	// The preemption gate. gated is the parked consumers' stall integral up
	// to since; parked consumers add to it live (PreemptStall).
	paused, terminal bool
	resumes          int // Resume events not yet applied: a Preempt with none left is terminal
	waiters          simtime.WaitList
	parked           int
	gated, since     time.Duration

	stopped bool
	scope   simtime.CancelScope
}

// Targets are what a script's events act on.
type Targets struct {
	// WG tracks the engine task and the worker-stall hogs' closers.
	WG *simtime.WaitGroup
	// Disks take the disk events as their slowdown timeline (nil entries
	// are skipped).
	Disks []*storage.Disk
	// CPUs take worker stalls: CPUs[ev.Node] on a multi-node run, CPUs[0]
	// on one machine.
	CPUs []*device.Device
	// Links sets a NIC's bandwidth; a link event targets NICs[ev.Node].
	Links Links
	NICs  []NIC
}

// Links is the fabric a link event degrades (netsim.Fabric, service.Net).
type Links interface {
	SetBandwidth(endpoint int, bandwidth float64)
}

// NIC is one link-event target: its fabric endpoint, and the bandwidth
// LinkRestore returns it to.
type NIC struct {
	Endpoint  int
	Bandwidth float64
}

// NewController returns an empty ledger for a run of the given shape (nodes
// as Validate's: 0 is one machine) whose steps come in lanes lanes (a
// machine's consumers, or one for the whole cluster). The ledger stamps from
// rt and records its spans under tenant into rt's recorder. node labels the
// faults that target the run as a whole: disk faults, preemption and, on one
// machine, worker stalls.
func NewController(rt *simtime.Virtual, nodes int, tenant int32, node int, lanes int) *Controller {
	c := &Controller{rt: rt, tenant: tenant, nodes: nodes, node: node,
		stalls: make([]Stalls, nodes), last: make([]time.Duration, lanes)}
	c.waiters.Init(rt)
	return c
}

// Start anchors the ledger at start, the run's start instant: every lane's
// first step interval runs from it, and script, validated for the
// controller's run shape, applies at start + At to t. Start writes the disk
// events onto the disks' slowdown timelines and spawns the engine task on
// t.WG for the remaining events that are not membership events, if there
// are any.
func (c *Controller) Start(start time.Duration, script Script, t Targets) {
	c.t, c.start, c.events = t, start, script.Sorted()
	for i := range c.last {
		c.last[i] = start
	}
	n := 0
	for _, ev := range c.events {
		if ev.Kind.Membership() {
			continue
		}
		switch ev.Kind {
		case DiskDegrade, DiskRestore:
			// The slowdown itself is the disks' timeline (storage.Disk:
			// the one disk-degradation mechanism); the engine only keeps
			// the window.
			f := ev.Factor
			if ev.Kind == DiskRestore {
				f = 1
			}
			for _, d := range t.Disks {
				if d != nil {
					d.ScheduleSlowdown(start+ev.At, f)
				}
			}
		case Resume:
			c.resumes++
		}
		n++
	}
	if n == 0 {
		return
	}
	rt := c.rt
	ctx := c.scope.Begin(rt, context.Background())
	t.WG.Go("chaos-engine", func() {
		for _, ev := range c.events {
			if ev.Kind.Membership() {
				continue
			}
			if d := start + ev.At - rt.Now(); d > 0 {
				if err := rt.Sleep(ctx, d); err != nil {
					return
				}
			}
			if c.stopped {
				return
			}
			c.apply(ev)
		}
	})
}

// apply runs in the engine task at ev's instant.
func (c *Controller) apply(ev Event) {
	switch ev.Kind {
	case LinkDegrade:
		nic := c.t.NICs[ev.Node]
		c.t.Links.SetBandwidth(nic.Endpoint, nic.Bandwidth/ev.Factor)
		c.Open(ev, ev.Node)
	case LinkRestore:
		nic := c.t.NICs[ev.Node]
		c.t.Links.SetBandwidth(nic.Endpoint, nic.Bandwidth)
		c.Close(LinkDegrade, ev.Node)
	case DiskDegrade:
		c.Open(ev, c.node)
	case DiskRestore:
		c.Close(DiskDegrade, c.node)
	case WorkerStall:
		if c.nodes > 0 {
			c.stallWorkers(c.t.CPUs[ev.Node], ev, ev.Node)
		} else {
			c.stallWorkers(c.t.CPUs[0], ev, c.node)
		}
	case Preempt:
		c.Open(ev, c.node)
		c.paused, c.terminal = true, c.resumes == 0
		if c.terminal {
			c.waiters.WakeAll()
		}
	case Resume:
		c.resumes--
		c.Close(Preempt, c.node)
		c.paused = false
		c.waiters.WakeAll()
		c.Recovering(ev, c.node)
	}
}

// stallWorkers opens ev's window now, occupies cpu with ceil(Factor ×
// capacity) hog tasks for ev.Duration each, and spawns a closer on the
// targets' wait group that clears this stall's own window when its last hog
// drains: overlapping stalls on one CPU each keep their own window. The hogs
// share one body, so a stall costs one closure however many cores it takes.
func (c *Controller) stallWorkers(cpu *device.Device, ev Event, node int) {
	w := c.begin(ev, node)
	n := max(1, int(math.Ceil(ev.Factor*cpu.Capacity())))
	hogs := simtime.NewWaitGroup(c.rt)
	hog := func() { _ = cpu.Run(context.Background(), ev.Duration) }
	for i := 0; i < n; i++ {
		hogs.Go("chaos-hog", hog)
	}
	c.t.WG.Go("chaos-hog-closer", func() {
		_ = hogs.Wait(context.Background())
		c.end(w)
	})
}

// Stop ends the replay: pending events are discarded and none is applied
// again. Safe on a nil controller and idempotent. Drivers stop the
// controller when the run's consumers finish, before waiting out background
// tasks, so a script outliving the run cannot append trailing fault records.
func (c *Controller) Stop() {
	if c == nil {
		return
	}
	c.stopped = true
	c.scope.Cancel()
}

// Due returns the next membership event whose instant (start + At) is at or
// before now, in script order, and passes it; ok is false when none is due.
// The multi-node runner applies what it returns at a step boundary.
func (c *Controller) Due(now time.Duration) (ev Event, ok bool) {
	for c.next < len(c.events) && c.start+c.events[c.next].At <= now {
		ev = c.events[c.next]
		c.next++
		if ev.Kind.Membership() {
			return ev, true
		}
	}
	return Event{}, false
}

// Wait is the preemption gate: consumers call it at every batch boundary,
// and it parks the caller while the run is preempted. A terminal preemption
// (no resume left in the script) returns ErrPreempted; a ctx error passes
// through. A nil controller (a served stream keeps no ledger) gates nothing.
func (c *Controller) Wait(ctx context.Context) error {
	if c == nil {
		return nil
	}
	for c.paused {
		if c.terminal {
			return ErrPreempted
		}
		c.settle(1)
		err := c.waiters.Wait(ctx)
		c.settle(-1)
		if err != nil {
			return err
		}
	}
	return nil
}

// settle folds the parked consumers' stall up to now into gated and changes
// their count by d.
func (c *Controller) settle(d int) {
	c.gated, c.since = c.PreemptStall(), c.rt.Now()
	c.parked += d
}

// PreemptStall returns the time consumers have spent parked at the gate,
// summed over consumers, up to now: the waits still parked count too.
func (c *Controller) PreemptStall() time.Duration {
	return c.gated + time.Duration(c.parked)*(c.rt.Now()-c.since)
}

// recovery is a fault whose recovery the driver's next step measures, from
// the instant from.
type recovery struct {
	idx  int // into stats
	from time.Duration
}

// Recovering records ev applied now, with no window (Resume, NodeJoin), and
// measures its recovery from its instant (start + At) to the driver's next
// step.
func (c *Controller) Recovering(ev Event, node int) {
	c.recovering = append(c.recovering, recovery{idx: c.instant(ev, node), from: c.start + ev.At})
}

// Restored records a checkpoint restore: a Resume at 0 (it precedes the
// resumed run's start) applied now, whose recovery runs from now to the
// driver's next step.
func (c *Controller) Restored() {
	c.recovering = append(c.recovering, recovery{idx: c.instant(Event{Kind: Resume}, c.node), from: c.rt.Now()})
}
