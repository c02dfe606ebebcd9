package chaos

import (
	"context"
	"math"
	"time"

	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
)

// Controller applies a run's scripted faults to the machine and keeps its
// fault table (the embedded Faults). Start installs the disk timeline and
// replays every other event on one engine task, which parks on the virtual
// clock until each event's At: events apply strictly in time order (stable
// for ties), so the injection schedule is deterministic. Membership events
// are the multi-node runner's: it applies them at step boundaries and
// records them in this table. Task-only, like the kernel it runs on.
type Controller struct {
	Faults

	nodes int // the run shape, as Validate's: 0 is one machine
	node  int // the label of faults that target the run as a whole
	t     Targets

	pauser  *Pauser
	resumes int // Resume events not yet applied: a Preempt with none left is terminal
	resumed int // stat index of a Resume that Resumed has not returned yet; -1 none

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

// NewController returns a controller with an empty fault table for a run of
// the given shape (nodes as Validate's: 0 is one machine). The table stamps
// from rt and records its spans under tenant into rt's recorder. node labels
// the faults that target the run as a whole: disk faults, preemption and, on
// one machine, worker stalls; node-targeted faults carry their own node.
// stall, if not nil, is the run's cumulative consumer stall: a window is
// attributed its growth while the window is open.
func NewController(rt *simtime.Virtual, nodes int, tenant int32, node int, stall func() time.Duration) *Controller {
	return &Controller{Faults: Faults{rt: rt, tenant: tenant, stall: stall}, nodes: nodes, node: node, resumed: -1}
}

// Start applies events, sorted as Script.Sorted returns them and validated
// for the controller's run shape, to t: it writes the disk events onto the
// disks' slowdown timelines and spawns the engine task on t.WG for the
// events that are not membership events. With no such event it starts
// nothing.
func (c *Controller) Start(events []Event, t Targets) {
	c.t = t
	n := 0
	for _, ev := range events {
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
					d.ScheduleSlowdown(ev.At, f)
				}
			}
		case Preempt:
			if c.pauser == nil {
				c.pauser = NewPauser(c.rt)
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
		for _, ev := range events {
			if ev.Kind.Membership() {
				continue
			}
			if d := ev.At - rt.Now(); d > 0 {
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

// apply runs in the engine task at ev's scripted time.
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
		c.pauser.Pause(c.resumes == 0)
	case Resume:
		c.resumes--
		c.pauser.Resume()
		if fs := c.Close(Preempt, c.node); fs != nil {
			// The pause window itself is the stall: every consumer is
			// parked for its full extent.
			fs.StallDuring = fs.ClearedAt - fs.AppliedAt
		}
		c.resumed = c.Instant(ev, c.node)
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

// Gate parks the calling consumer while the run is preempted and returns the
// time it parked; see Pauser.Wait.
func (c *Controller) Gate(ctx context.Context) (time.Duration, error) {
	return c.pauser.Wait(ctx)
}

// Resumed returns the stat index of the last Resume applied since the
// previous call, or -1: the session measures its recovery at the next
// delivered batch.
func (c *Controller) Resumed() int {
	i := c.resumed
	c.resumed = -1
	return i
}

// Pauser gates training consumers for session preemption: consumers call
// Wait at each batch boundary and park while the session is preempted.
// Pause with terminal=true (no resume scheduled in the script) releases
// waiters with ErrPreempted instead of parking them forever.
type Pauser struct {
	rt *simtime.Virtual

	paused   bool
	terminal bool
	waiters  simtime.WaitList
}

// NewPauser returns an unpaused gate.
func NewPauser(rt *simtime.Virtual) *Pauser {
	p := &Pauser{rt: rt}
	p.waiters.Init(rt)
	return p
}

// Pause preempts the session; terminal marks a preemption with no
// scheduled resume. Parked waiters of a terminal pause wake immediately
// with ErrPreempted.
func (p *Pauser) Pause(terminal bool) {
	p.paused, p.terminal = true, terminal
	if terminal {
		p.waiters.WakeAll()
	}
}

// Resume releases every parked consumer.
func (p *Pauser) Resume() {
	p.paused, p.terminal = false, false
	p.waiters.WakeAll()
}

// Wait parks until the session is not preempted and returns the time
// spent parked. A terminal preemption returns ErrPreempted (with the
// stall accumulated so far); a ctx error passes through. Safe on a nil
// pauser, which never pauses.
func (p *Pauser) Wait(ctx context.Context) (time.Duration, error) {
	if p == nil {
		return 0, nil
	}
	var stalled time.Duration
	for {
		if !p.paused {
			return stalled, nil
		}
		if p.terminal {
			return stalled, ErrPreempted
		}
		t0 := p.rt.Now()
		err := p.waiters.Wait(ctx)
		stalled += p.rt.Now() - t0
		if err != nil {
			return stalled, err
		}
	}
}
