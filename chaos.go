package minato

import (
	"time"

	"github.com/minatoloader/minato/internal/chaos"
)

// Chaos engineering. A ChaosScript is a deterministic schedule of faults —
// node crashes and rejoins, NIC degradation, disk brownouts, CPU worker
// stalls, session preemption — replayed against a training session or
// multi-node job on the virtual clock. Because the clock is discrete-event
// and the script is static data, an identical script against an identical
// run reproduces the report bit-for-bit: recovery times and p99 step times
// are assertable, not flaky.
//
// Attach a script with WithChaos (or a registered scenario by name with
// WithChaosScenario) to Train (on one machine or across nodes),
// Cluster.Train, Open, or Cluster.Open:
//
//	rep, err := minato.Train(w,
//	    minato.WithNodes(8),
//	    minato.WithChaos(minato.CrashNode(3, 5*time.Second, 8*time.Second)),
//	)
//	// rep.RecoveryTime(), rep.StepP99, rep.Faults, rep.PerNode[3].Downtime
//
// A script's times count from its run's start: a training run's start, a
// loading session's first pull. Single-machine sessions accept disk,
// worker-stall, and preempt/resume events; multi-node jobs accept node,
// link, disk, and worker-stall events.
// Scripts are validated against the run shape at configuration time, so a
// mismatched script is a *ConfigError, not a silent no-op.

type (
	// ChaosScript is a named, composable fault schedule; the zero value
	// injects nothing. Build one from events directly, from the builders
	// (CrashNode, FlapLink, BrownoutDisk, StallWorkers, PreemptFor), or by
	// ComposeChaos.
	ChaosScript = chaos.Script
	// ChaosEvent is one scripted fault.
	ChaosEvent = chaos.Event
	// ChaosKind enumerates fault-event types (ChaosNodeCrash ... ChaosResume).
	ChaosKind = chaos.Kind
	// FaultStat is one applied fault window in a Report: the event as
	// scripted, when it took effect and cleared (instants of the run's
	// clock), the measured recovery time, and the stall attributed to it.
	FaultStat = chaos.FaultStat
)

// The fault kinds. See the chaos package for exact semantics; the short
// version: Event.At counts from the run's start, membership events
// (crash/join) apply at step boundaries of a multi-node job, everything
// else at exactly the run's start plus Event.At.
const (
	ChaosNodeCrash   = chaos.NodeCrash
	ChaosNodeJoin    = chaos.NodeJoin
	ChaosLinkDegrade = chaos.LinkDegrade
	ChaosLinkRestore = chaos.LinkRestore
	ChaosDiskDegrade = chaos.DiskDegrade
	ChaosDiskRestore = chaos.DiskRestore
	ChaosWorkerStall = chaos.WorkerStall
	ChaosPreempt     = chaos.Preempt
	ChaosResume      = chaos.Resume
)

// Builders for the common one-fault scripts; compose them with ComposeChaos.

// CrashNode crashes node at `at` and rejoins it at `rejoin` (rejoin ≤ at
// means the node never returns). Multi-node Train only.
func CrashNode(node int, at, rejoin time.Duration) ChaosScript {
	return chaos.CrashNode(node, at, rejoin)
}

// FlapLink degrades node's NIC bandwidth by factor at `at` and restores it
// after duration. Multi-node Train only.
func FlapLink(node int, at time.Duration, factor float64, duration time.Duration) ChaosScript {
	return chaos.FlapLink(node, at, factor, duration)
}

// BrownoutDisk slows storage reads by factor at `at` and restores them
// after duration — the shared-filesystem brownout.
func BrownoutDisk(at time.Duration, factor float64, duration time.Duration) ChaosScript {
	return chaos.BrownoutDisk(at, factor, duration)
}

// StallWorkers occupies ~factor× of node's CPU cores with hog work for
// duration, starting at `at` — a co-located job stealing preprocessing
// cores. Single-machine sessions use node 0.
func StallWorkers(node int, at time.Duration, factor float64, duration time.Duration) ChaosScript {
	return chaos.StallWorkers(node, at, factor, duration)
}

// PreemptFor pauses the session's consumers at `at` and resumes them after
// duration; a zero duration preempts permanently and the session ends with
// ErrPreempted (checkpoint it and Resume to continue warm). Single-machine
// sessions only.
func PreemptFor(at, duration time.Duration) ChaosScript {
	return chaos.PreemptFor(at, duration)
}

// ComposeChaos merges scripts into one named schedule; overlapping times
// keep argument order.
func ComposeChaos(name string, scripts ...ChaosScript) ChaosScript {
	return chaos.Compose(name, scripts...)
}

// ShiftChaos returns a copy of s with every event delayed by d — for
// staggering one scenario across tenants.
func ShiftChaos(s ChaosScript, d time.Duration) ChaosScript {
	evs := make([]ChaosEvent, len(s.Events))
	for i, ev := range s.Events {
		ev.At += d
		evs[i] = ev
	}
	return ChaosScript{Name: s.Name, Events: evs}
}

// RegisterChaosScenario adds a named scenario builder, the way
// RegisterLoader and RegisterWorkload extend their registries: it panics on
// an empty or duplicate name. Built-in
// scenarios: node-crash, link-flap, disk-brownout, worker-stall,
// preempt-resume, churn-storm.
func RegisterChaosScenario(name string, build func() ChaosScript) {
	chaos.Register(name, build)
}

// ChaosScenarioByName builds a registered scenario.
func ChaosScenarioByName(name string) (ChaosScript, bool) {
	return chaos.ByName(name)
}

// ChaosScenarios lists the registered scenario names, sorted.
func ChaosScenarios() []string {
	return chaos.Names()
}

// WithChaos injects the given fault script into the session, multi-node
// job, or preprocessing server. The script is validated against the run
// shape: single-machine entry points (Open, Train, Cluster.Open,
// Cluster.Train, Resume) accept disk, worker-stall, and preempt/resume
// events; a multi-node Train accepts node, link, disk, and worker-stall
// events; Serve accepts link events (targeting servers by fleet index) and
// disk events. Identical scripts against identical runs reproduce reports
// bit-for-bit.
func WithChaos(s ChaosScript) Option {
	return Option{name: "WithChaos", scope: runs | atServe | atResume, v: &s, apply: func(o *options, a Option) { o.chaos = a.v.(*ChaosScript) }}
}

// WithChaosScenario injects a registered fault scenario by name — the
// one-line form of WithChaos for scripts in the scenario registry
// (RegisterChaosScenario). Scoped like WithChaos.
func WithChaosScenario(name string) Option {
	return Option{name: "WithChaosScenario", scope: runs | atServe | atResume, s: name, apply: func(o *options, a Option) { o.chaosName = a.s }}
}
