package trainer

import (
	"time"

	"github.com/minatoloader/minato/internal/chaos"
)

// StallBreakdown is the shared stall-attribution block embedded by the
// single-session Report and the multi-node Report: where consumer time
// went when it was not training, plus the SLO view of step-time jitter
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
