package trainer

import (
	"time"

	"github.com/minatoloader/minato/internal/chaos"
)

// StallBreakdown is the stall-attribution block embedded by Report, on
// one machine and across nodes: where consumer time went when it was not
// training, plus the SLO view of step-time jitter
// and the fault windows the run absorbed. The critical-path analyzer
// (internal/trace) fills exactly this shape from a recorded trace; runs
// without tracing fill it from the consumers' stall counters — the two
// sources are stamped at the same virtual instants and agree to the
// nanosecond.
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
