package simtime

import (
	"context"
	"errors"
)

// Barrier is a runtime-aware cyclic barrier for n participants: the n-th
// arrival releases everyone and the barrier resets for the next round.
// Distributed data-parallel training uses it as the per-step gradient
// synchronization point. Task-only.
type Barrier struct {
	n         int
	onRelease func(gen uint64)

	gen     uint64
	broken  bool
	arrived int      // the round's earlier arrivals, those that gave up included
	parked  WaitList // the ones still waiting
}

// NewBarrier returns a barrier for n participants (n must be positive).
func NewBarrier(rt *Virtual, n int) *Barrier {
	if n <= 0 {
		panic("simtime: barrier size must be positive")
	}
	b := &Barrier{n: n}
	b.parked.Init(rt)
	return b
}

// NewBarrierFunc returns a barrier whose fn runs once per completed round,
// in the releasing (last-arriving) participant, after the barrier has reset
// for the next round but before any waiter wakes. Every participant is
// parked or releasing at that instant, so fn observes — and may mutate —
// shared state with no participant mid-step: the hook distributed training
// uses to apply membership changes (node crash/rejoin) at a quiescent
// point. fn receives the generation that completed. It must not call Wait
// on the same barrier.
func NewBarrierFunc(rt *Virtual, n int, fn func(gen uint64)) *Barrier {
	b := NewBarrier(rt, n)
	b.onRelease = fn
	return b
}

// Wait blocks until all n participants have arrived. It returns the round
// generation that completed. If the barrier is broken (a participant left),
// Wait returns ErrBarrierBroken immediately for all current and future
// callers.
func (b *Barrier) Wait(ctx context.Context) (uint64, error) {
	if b.broken {
		return 0, ErrBarrierBroken
	}
	gen := b.gen
	if b.arrived == b.n-1 {
		b.arrived = 0
		b.gen++
		if b.onRelease != nil {
			b.onRelease(gen)
		}
		b.parked.WakeAll()
		return gen, nil
	}
	b.arrived++
	if err := b.parked.Wait(ctx); err != nil {
		return 0, err
	}
	// Report broken only if this waiter's generation never completed
	// (release advances gen before waking). A waiter woken by a normal
	// release must return success even when a participant breaks the
	// barrier immediately afterwards.
	if b.broken && b.gen == gen {
		return 0, ErrBarrierBroken
	}
	return gen, nil
}

// Break releases all waiters with ErrBarrierBroken; used when a
// participant exits early (end of its shard).
func (b *Barrier) Break() {
	b.broken = true
	b.arrived = 0
	b.parked.WakeAll()
}

// ErrBarrierBroken is returned by Wait after Break.
var ErrBarrierBroken = errors.New("simtime: barrier broken")
