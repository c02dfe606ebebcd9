package core

import (
	"math"
	"time"

	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/simtime"
)

// The scheduler's constants, the paper's values (§4.3).
const (
	alpha, beta   = 2.0, 2.0    // sensitivity to queue emptiness and to CPU use
	cpuThreshold  = 0.7         // θ_c
	deltaClip     = 2           // |Δ| bound
	schedInterval = time.Second // between two decisions
)

// Scheduler implements the adaptive worker scheduler of §4.3:
//
//	Δ = α·(1 − Q/Qmax) + β·(C − θc)            (Formula 2)
//	workers = min(maxWorkers, max(1, workers + clip(Δ)))  (Formula 1)
//
// Q is a moving average of batch-queue occupancy, C is the utilization of
// the currently allocated workers, and Δ is clipped to a small integer
// range for stability. Empty queues and busy workers grow the pool (a CPU
// bottleneck); full queues and idle workers shrink it (over-provisioning).
type Scheduler struct {
	l *Loader

	// Plain counters: only the loader's own tasks touch them.
	target, live, peak, retireTokens int

	qAvg metrics.EWMA
	sel  simtime.Selector // the scheduling loop's

	lastBusy    float64
	lastTime    time.Duration
	lastCPUUtil float64

	// body is the scheduling loop's task body, built once per scheduler.
	body func()
}

// init readies the scheduler embedded in l for a run of l: a zero one, or
// one a recycled loader carries.
func (sc *Scheduler) init(l *Loader) {
	body := sc.body
	if body == nil {
		body = sc.loop
	}
	*sc = Scheduler{l: l, qAvg: *metrics.NewEWMA(0.3), body: body}
	sc.sel.Bind(l.env.RT)
}

// SetTarget fixes the desired worker count (initialization and tests).
func (sc *Scheduler) SetTarget(n int) { sc.target = n }

// Target returns the current desired worker count.
func (sc *Scheduler) Target() int { return sc.target }

// workerSpawned registers a new worker.
func (sc *Scheduler) workerSpawned() {
	sc.live++
	sc.peak = max(sc.peak, sc.live)
}

// peakWorkers returns the pool's high-water mark.
func (sc *Scheduler) peakWorkers() int { return sc.peak }

// workerExited deregisters a worker.
func (sc *Scheduler) workerExited() { sc.live-- }

// liveWorkers returns the current pool size.
func (sc *Scheduler) liveWorkers() int { return sc.live }

// shouldRetire lets one worker claim an outstanding retirement token.
func (sc *Scheduler) shouldRetire() bool {
	if sc.retireTokens <= 0 {
		return false
	}
	sc.retireTokens--
	return true
}

// Start launches the scheduling loop, under the loader's run context.
func (sc *Scheduler) Start() {
	sc.lastBusy = sc.l.env.CPU.BusySeconds()
	sc.lastTime = sc.l.env.RT.Now()
	sc.l.env.WG.Go("minato-scheduler", sc.body)
}

// loop is the scheduling loop's body.
func (sc *Scheduler) loop() {
	ctx := sc.l.runCtx
	// Park on a selector armed on the loader's gate, with the tick
	// interval as the heartbeat, rather than a plain Sleep: Stop pulses
	// the gate, and a gate wake reaches the kernel synchronously. A
	// context cancel would leave this task's interval timer live until
	// the cancellation propagates, and an otherwise-idle kernel can
	// advance the clock to that deadline in the window — a wall-clock
	// race in what must be a deterministic schedule.
	for {
		if sc.l.stopFlag {
			return
		}
		next := sc.l.env.RT.Now() + schedInterval
		for {
			park := next - sc.l.env.RT.Now()
			if park <= 0 {
				break
			}
			idx, err := sc.sel.Select(ctx, park, &sc.l.gate)
			if err != nil {
				return
			}
			if sc.l.stopFlag || sc.l.srcDone {
				return
			}
			if idx == simtime.Heartbeat {
				break
			}
		}
		sc.tick()
	}
}

// tick performs one scheduling decision.
func (sc *Scheduler) tick() {
	// Q: moving average of total batch-queue occupancy.
	qLen := 0
	qMax := 0
	for g := range sc.l.lanes {
		qLen += sc.l.lanes[g].batches.Len()
		qMax += sc.l.lanes[g].batches.Cap()
	}
	qAvg := sc.qAvg.Update(float64(qLen))
	qFrac := qAvg / float64(qMax)

	// C: utilization of the allocated workers over the last interval.
	now := sc.l.env.RT.Now()
	busy := sc.l.env.CPU.BusySeconds()
	dt := (now - sc.lastTime).Seconds()
	live := float64(sc.liveWorkers())
	c := sc.lastCPUUtil
	if dt > 0 && live > 0 {
		c = (busy - sc.lastBusy) / (dt * live)
		if c > 1 {
			c = 1
		}
		if c < 0 {
			c = 0
		}
	}
	sc.lastBusy, sc.lastTime, sc.lastCPUUtil = busy, now, c

	delta := alpha*(1-qFrac) + beta*(c-cpuThreshold)
	d := int(math.Round(delta))
	if d > deltaClip {
		d = deltaClip
	}
	if d < -deltaClip {
		d = -deltaClip
	}
	sc.apply(d)
}

// apply adjusts the pool toward workers+delta within [1, maxWorkersNow].
// The upper bound is re-read each call: when a cluster governor shrinks this
// tenant's quota (a new tenant joined), the pool retires down to the new
// bound even on a zero delta.
func (sc *Scheduler) apply(delta int) {
	cur := sc.Target()
	next := cur + delta
	if next < 1 {
		next = 1
	}
	if max := sc.l.maxWorkersNow(); next > max {
		next = max
	}
	if next == cur {
		return
	}
	sc.SetTarget(next)
	if next > cur {
		// Absorb pending retirements first, then spawn the remainder.
		absorbed := min(next-cur, max(sc.retireTokens, 0))
		sc.retireTokens -= absorbed
		for i := absorbed; i < next-cur; i++ {
			sc.l.spawnWorker()
		}
		return
	}
	sc.retireTokens += cur - next
}
