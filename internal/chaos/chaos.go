// Package chaos is a deterministic fault-injection engine for the
// simulated training substrate: a Script of timed events — node crashes and
// rejoins, NIC degradation, disk-read slowdowns, CPU worker stalls, session
// preemption — scheduled on the simtime.Virtual clock and applied to a
// running session, multi-node job or preprocessing server. Because the
// clock is discrete-event and the script is static data, an identical
// script against an identical run produces bit-identical reports: chaos
// here is reproducible by construction, which is what makes recovery-time
// and p99-step-time SLOs assertable in tests.
//
// This package alone decides what an event does. Validate and
// ValidateServed decide which kinds a run shape accepts, and a Controller
// applies them: it writes disk events onto the disks' slowdown timelines,
// replays the other continuous-substrate events (link, disk windows, worker
// stalls, preemption) on one engine task, opens and closes their windows in
// its fault table, spawns the stall hogs and is the preemption gate. The
// Controller is also where the run's consumers record every stall they
// measure and every step boundary they reach: it is the run's one ledger.
// Membership events (NodeCrash/NodeJoin) cannot safely fire mid-step — a
// synchronous data-parallel cluster has no consistent state there — so the
// distributed runner takes them from its controller (Due) at the first
// step boundary at or after their instant, the way an elastic agent
// (TorchElastic-style) reconfigures between steps, and records them in its
// controller's table.
//
// Every run keeps its ledger by three rules:
//
//   - Anchor. An event's At counts from its run's start, which the driver
//     passes to Start: a loading session's first pull, a training run's
//     start, a multi-node job's start, a server's first pull. The event
//     applies at start + At, so one script faults a run the same way on a
//     fresh kernel and on a clock other runs have moved.
//   - Stall. A window's StallDuring is the growth, while it is open, of the
//     consumer stall the run's report counts: the data, barrier and network
//     waits its consumers recorded (Stalled) plus the time they spend parked
//     at the preemption gate (PreemptStall), read live.
//   - Recovery. A Resume, a NodeJoin and a checkpoint restore each measure
//     their Recovery from their instant to the driver's next progress point
//     (a delivered batch, a completed step), on one pending list that the
//     driver's next Step closes.
package chaos

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// ErrPreempted is the session-preempted sentinel: a script paused the
// session with no resume scheduled. Re-exported as minato.ErrPreempted.
var ErrPreempted = errors.New("minato: session preempted")

// ErrNodeLost is the no-survivors sentinel: a script crashed the last
// live node of a multi-node job. Re-exported as minato.ErrNodeLost.
var ErrNodeLost = errors.New("minato: all nodes lost")

// Kind enumerates fault-event types. Each closing kind directly follows
// the kind it closes (Event.window relies on it).
type Kind int

const (
	// NodeCrash removes Node from a multi-node job at the first step
	// boundary at or after At: its consumers stop training, its loader is
	// torn down (draining claims), its page cache is dropped (a restarted
	// machine comes back cold), and the survivors re-shard the dataset.
	NodeCrash Kind = iota
	// NodeJoin returns a crashed Node at the first step boundary at or
	// after At; the cluster re-shards across the enlarged membership and
	// the report records the node's recovery time (rejoin event to its
	// first completed synchronized step).
	NodeJoin
	// LinkDegrade divides Node's NIC bandwidth by Factor at At — a flaky
	// cable or oversubscribed leaf switch. Factor = +Inf expresses a full
	// outage (the fabric clamps to its documented floor).
	LinkDegrade
	// LinkRestore returns Node's NIC to its configured bandwidth.
	LinkRestore
	// DiskDegrade multiplies storage read times by Factor at At — the
	// shared-filesystem brownout of §5.3. On a remote-store multi-node
	// cluster it hits the storage server; with local stores, every node.
	DiskDegrade
	// DiskRestore returns the disk to full speed.
	DiskRestore
	// WorkerStall occupies roughly Factor× the CPU pool's cores with hog
	// work for Duration — a co-located job stealing preprocessing cores.
	// On a multi-node job it targets Node's CPU pool.
	WorkerStall
	// Preempt parks a single-machine run's consumers at their next batch
	// boundary; its loader keeps preprocessing. With a later Resume the
	// run continues and the consumers' parked time is its preemption stall;
	// with none, the run halts with ErrPreempted — checkpoint a session
	// and minato.Resume it to continue warm.
	Preempt
	// Resume unpauses a preempted session.
	Resume
)

// Membership reports whether k changes a multi-node job's membership
// (NodeCrash, NodeJoin): the distributed runner applies those at step
// boundaries, and a Controller skips them.
func (k Kind) Membership() bool { return k == NodeCrash || k == NodeJoin }

// String names the kind.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case NodeJoin:
		return "node-join"
	case LinkDegrade:
		return "link-degrade"
	case LinkRestore:
		return "link-restore"
	case DiskDegrade:
		return "disk-degrade"
	case DiskRestore:
		return "disk-restore"
	case WorkerStall:
		return "worker-stall"
	case Preempt:
		return "preempt"
	case Resume:
		return "resume"
	default:
		return fmt.Sprintf("chaos.Kind(%d)", int(k))
	}
}

// Event is one scripted fault.
type Event struct {
	// At is when the event fires, as an offset from the run's start
	// (membership events apply at the first step boundary at or after it).
	At time.Duration
	// Kind selects the fault.
	Kind Kind
	// Node targets a multi-node rank (NodeCrash/NodeJoin/LinkDegrade/
	// LinkRestore/WorkerStall). Single-machine events leave it 0.
	Node int
	// Factor is the degradation multiplier (≥ 1) for LinkDegrade,
	// DiskDegrade, and WorkerStall.
	Factor float64
	// Duration bounds a WorkerStall's hog work.
	Duration time.Duration
}

// String formats the event compactly.
func (e Event) String() string {
	s := fmt.Sprintf("%s@%v", e.Kind, e.At)
	switch e.Kind {
	case NodeCrash, NodeJoin, LinkRestore:
		s += fmt.Sprintf(" node=%d", e.Node)
	case LinkDegrade, WorkerStall:
		s += fmt.Sprintf(" node=%d ×%g", e.Node, e.Factor)
	case DiskDegrade:
		s += fmt.Sprintf(" ×%g", e.Factor)
	}
	if e.Duration > 0 {
		s += fmt.Sprintf(" for=%v", e.Duration)
	}
	return s
}

// Script is a named, composable fault schedule. The zero value injects
// nothing.
type Script struct {
	Name   string
	Events []Event
}

// Empty reports whether the script injects nothing.
func (s Script) Empty() bool { return len(s.Events) == 0 }

// Sorted returns the events ordered by At (stable: equal times keep
// script order), leaving s untouched.
func (s Script) Sorted() []Event {
	if s.Empty() {
		return nil
	}
	evs := make([]Event, len(s.Events))
	copy(evs, s.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Compose merges scripts into one named schedule; overlapping times keep
// argument order (stable sort at run time).
func Compose(name string, scripts ...Script) Script {
	out := Script{Name: name}
	for _, s := range scripts {
		out.Events = append(out.Events, s.Events...)
	}
	return out
}

// Validate checks the script against a run shape: nodes > 0 is a
// multi-node job with that many ranks; nodes == 0 a single-machine
// session. It verifies per-kind fields, node bounds, and pairing in the
// order the events apply: a join needs its node crashed, a resume a
// preemption, a restore its link or the disk degraded, and a crash, a
// preemption or a degrade needs its target whole. It returns a descriptive
// error on the first violation. A crash schedule that leaves zero live
// nodes is legal here — the runner detects it at the step boundary where it
// actually happens and unwinds with ErrNodeLost.
func (s Script) Validate(nodes int) error {
	multi := nodes > 0
	open := map[[2]int]bool{} // the windows in effect (Event.window)
	for _, ev := range s.Sorted() {
		if ev.At < 0 {
			return fmt.Errorf("%v: negative time", ev)
		}
		switch ev.Kind {
		case NodeCrash, NodeJoin, LinkDegrade, LinkRestore:
			if !multi {
				return fmt.Errorf("%v: node/link events need a multi-node run", ev)
			}
			if ev.Node < 0 || ev.Node >= nodes {
				return fmt.Errorf("%v: node outside cluster of %d", ev, nodes)
			}
		case WorkerStall:
			if multi && (ev.Node < 0 || ev.Node >= nodes) {
				return fmt.Errorf("%v: node outside cluster of %d", ev, nodes)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("%v: needs a positive Duration", ev)
			}
		case DiskDegrade, DiskRestore:
			// Targets the storage substrate as a whole; no node bound.
		case Preempt, Resume:
			if multi {
				return fmt.Errorf("%v: preemption applies to single-machine sessions; crash nodes instead", ev)
			}
		default:
			return fmt.Errorf("%v: unknown kind", ev)
		}
		switch ev.Kind {
		case LinkDegrade, DiskDegrade, WorkerStall:
			if !(ev.Factor >= 1) || math.IsNaN(ev.Factor) {
				return fmt.Errorf("%v: factor must be ≥ 1", ev)
			}
		}
		if w, closes, ok := ev.window(); ok {
			switch {
			case closes && !open[w]:
				return fmt.Errorf("%v: no %v in effect", ev, Kind(w[0]))
			case !closes && open[w]:
				return fmt.Errorf("%v: %v already in effect", ev, Kind(w[0]))
			}
			open[w] = !closes
		}
	}
	return nil
}

// window names the fault window ev opens or closes — a node's crash, a
// link's degradation, the disk's brownout, the session's preemption — as
// (opening kind, node), and reports whether ev closes it. ok is false for a
// worker stall: only its own hogs close its window. Each closing kind
// follows its opening one.
func (ev Event) window() (w [2]int, closes, ok bool) {
	switch ev.Kind {
	case NodeCrash, LinkDegrade:
		return [2]int{int(ev.Kind), ev.Node}, false, true
	case NodeJoin, LinkRestore:
		return [2]int{int(ev.Kind - 1), ev.Node}, true, true
	case DiskDegrade, Preempt: // one target each, whatever Node says
		return [2]int{int(ev.Kind), 0}, false, true
	case DiskRestore, Resume:
		return [2]int{int(ev.Kind - 1), 0}, true, true
	}
	return w, false, false
}

// ValidateServed checks the script against a preprocessing server in a
// fleet of the given size: link events degrade a fleet member's NIC by
// index and disk events brown out the server's storage. Training-run kinds
// (crash, preempt, worker stall) are refused — they script consumers, and a
// server has none. Bounds, factors and pairing are Validate's, with the
// fleet as the cluster.
func (s Script) ValidateServed(fleet int) error {
	for _, ev := range s.Events {
		switch ev.Kind {
		case LinkDegrade, LinkRestore, DiskDegrade, DiskRestore:
		default:
			return fmt.Errorf("%v events apply to training runs, not preprocessing servers", ev.Kind)
		}
	}
	return s.Validate(fleet)
}

// FaultStat is one applied fault in a report. Event is the event as
// scripted, its At an offset from the run's start; AppliedAt and ClearedAt
// (zero if never cleared) are instants of the run's kernel. Recovery is
// measured from the event's instant to the driver's next progress point
// (NodeJoin: the node's first completed synchronized step; Resume and a
// checkpoint restore: the next delivered batch). StallDuring is the
// consumer stall the run accumulated while the fault was active — the
// per-fault attribution of churn cost.
type FaultStat struct {
	Event       Event
	AppliedAt   time.Duration
	ClearedAt   time.Duration
	Recovery    time.Duration
	StallDuring time.Duration
}

// Builders for the common one-fault scripts; compose them with Compose.

// CrashNode crashes node at `at` and rejoins it at `rejoin` (rejoin ≤ at
// means the node never returns).
func CrashNode(node int, at, rejoin time.Duration) Script {
	s := Script{
		Name:   fmt.Sprintf("crash-node-%d", node),
		Events: []Event{{At: at, Kind: NodeCrash, Node: node}},
	}
	if rejoin > at {
		s.Events = append(s.Events, Event{At: rejoin, Kind: NodeJoin, Node: node})
	}
	return s
}

// FlapLink degrades node's NIC by factor at `at` and restores it after
// duration.
func FlapLink(node int, at time.Duration, factor float64, duration time.Duration) Script {
	return Script{
		Name: fmt.Sprintf("link-flap-%d", node),
		Events: []Event{
			{At: at, Kind: LinkDegrade, Node: node, Factor: factor},
			{At: at + duration, Kind: LinkRestore, Node: node},
		},
	}
}

// BrownoutDisk slows storage reads by factor at `at` and restores them
// after duration.
func BrownoutDisk(at time.Duration, factor float64, duration time.Duration) Script {
	return Script{
		Name: "disk-brownout",
		Events: []Event{
			{At: at, Kind: DiskDegrade, Factor: factor},
			{At: at + duration, Kind: DiskRestore},
		},
	}
}

// StallWorkers occupies ~factor× of node's CPU cores with hog work for
// duration, starting at `at`.
func StallWorkers(node int, at time.Duration, factor float64, duration time.Duration) Script {
	return Script{
		Name: "worker-stall",
		Events: []Event{
			{At: at, Kind: WorkerStall, Node: node, Factor: factor, Duration: duration},
		},
	}
}

// PreemptFor pauses the session at `at` and resumes it after duration; a
// zero duration preempts permanently (the session ends with
// ErrPreempted).
func PreemptFor(at, duration time.Duration) Script {
	s := Script{Name: "preempt", Events: []Event{{At: at, Kind: Preempt}}}
	if duration > 0 {
		s.Events = append(s.Events, Event{At: at + duration, Kind: Resume})
	}
	return s
}
