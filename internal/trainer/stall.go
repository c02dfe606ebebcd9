package trainer

import (
	"time"

	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/storage"
)

// StallBreakdown is the stall-attribution block embedded by Report, on
// one machine and across nodes: where consumer time went when it was not
// training, plus the SLO view of step-time jitter
// and the fault windows the run absorbed. ReadLedger fills it from the run's
// ledger (chaos.Controller), traced or not. The ledger records each wait's
// span from the instants it counts, so the critical-path analyzer
// (internal/trace) fills exactly this shape from a recorded trace and agrees
// to the nanosecond.
type StallBreakdown struct {
	// DataStall is total consumer time blocked on the loader — input
	// starvation, the paper's central attribution.
	DataStall time.Duration
	// BarrierStall is total consumer time parked at the step barrier for
	// slower ranks (zero on a single machine).
	BarrierStall time.Duration
	// NetworkStall is total consumer time in gradient synchronization
	// over the fabric (zero on a single machine).
	NetworkStall time.Duration

	// StepP50 and StepP99 are batch-completion interval quantiles from a
	// log-bucketed histogram — a fault that stalls a handful of steps
	// leaves the mean almost untouched and shows up here.
	StepP50 time.Duration
	StepP99 time.Duration

	// Faults records each applied chaos event window, in application
	// order: when it took effect, when it cleared, the stall accumulated
	// while it was open, and the measured recovery.
	Faults []chaos.FaultStat
}

// RecoveryTime returns the largest fault recovery in the breakdown (zero
// when nothing needed recovering).
func (s *StallBreakdown) RecoveryTime() time.Duration {
	var max time.Duration
	for _, f := range s.Faults {
		if f.Recovery > max {
			max = f.Recovery
		}
	}
	return max
}

// NodeStats attributes one node's time in a multi-node Report: where its
// consumers stalled, what it trained, how busy its GPUs were. Stall
// durations are summed across the node's GPU consumers.
type NodeStats struct {
	Node     int
	Hardware string // config name + core count, e.g. "ConfigA/128c"
	GPUs     int
	Samples  int64
	// DataStall is time blocked on the node's own loader — input starvation.
	DataStall time.Duration
	// BarrierStall is time parked at the step barrier waiting for slower
	// ranks: the compounding cost of someone else's input stall.
	BarrierStall time.Duration
	// NetworkStall is time in the gradient all-reduce (flows + phase
	// barriers) — the interconnect's share of the step.
	NetworkStall time.Duration
	// Downtime is time the node's consumers spent crashed out of the
	// membership, idling through proxy rounds — attributed here, not to
	// BarrierStall, so churn cost is separable from straggler cost.
	Downtime time.Duration
	// GPUUtil is the node's average GPU utilization in percent.
	GPUUtil float64
}

// StartLedger anchors l at start, the run's start instant, and applies
// script, validated for one machine (Script.Validate(0)): disk events on
// env.Store.Disk, which may be nil, and worker stalls on env.CPU. A nil l (a
// served stream keeps no ledger) does nothing.
func StartLedger(l *chaos.Controller, env *loader.Env, start time.Duration, script chaos.Script) {
	if l == nil {
		return
	}
	var t chaos.Targets
	if !script.Empty() {
		t = chaos.Targets{WG: env.WG, Disks: []*storage.Disk{env.Store.Disk}, CPUs: []*device.Device{env.CPU}}
	}
	l.Start(start, script, t)
}

// ReadLedger fills rep from its run's ledger: the stall totals (and, on a
// multi-node run, each PerNode row's, which rep must already hold in node
// order), the step-interval histogram and its quantiles, the preemption
// stall and the fault table. Call once the run's tasks, hog closers
// included, have drained.
func ReadLedger(rep *Report, l *chaos.Controller) {
	run, nodes := l.Stalls()
	rep.DataStall, rep.BarrierStall = run[chaos.DataStall], run[chaos.BarrierStall]
	rep.NetworkStall = run[chaos.NetworkStall]
	for i, s := range nodes {
		n := &rep.PerNode[i]
		n.DataStall, n.BarrierStall = s[chaos.DataStall], s[chaos.BarrierStall]
		n.NetworkStall, n.Downtime = s[chaos.NetworkStall], s[chaos.Downtime]
	}
	h := l.StepHist()
	rep.StepHist, rep.StepP50, rep.StepP99 = h, h.QuantileDuration(0.5), h.QuantileDuration(0.99)
	rep.PreemptStall = l.PreemptStall()
	rep.Faults = l.Stats()
}
