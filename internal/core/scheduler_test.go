package core

import (
	"context"
	"testing"
	"time"
)

// newIdleLoader builds a loader without starting it, so scheduler state
// can be driven directly.
func newIdleLoader(t *testing.T, h *harness) *Loader {
	t.Helper()
	return New(h.env, bimodalSpec(4, 10), DefaultConfig())
}

func TestSchedulerApplyClampsToBounds(t *testing.T) {
	h := newHarness(16, 1)
	h.k.Run(func() {
		l := newIdleLoader(t, h)
		sc := &l.sched
		sc.SetTarget(1)
		// Shrinking below 1 clamps.
		sc.apply(-5)
		if got := sc.Target(); got != 1 {
			t.Fatalf("target = %d, want 1 (floor)", got)
		}
		// Growing beyond MaxWorkers clamps (MaxWorkers = 16 cores here).
		sc.SetTarget(15)
		sc.apply(+5)
		if got := sc.Target(); got != 16 {
			t.Fatalf("target = %d, want 16 (cores ceiling)", got)
		}
		l.Stop()
	})
	h.k.Drain()
}

func TestSchedulerGrowSpawnsWorkers(t *testing.T) {
	h := newHarness(16, 1)
	h.k.Run(func() {
		l := newIdleLoader(t, h)
		sc := &l.sched
		sc.SetTarget(2)
		sc.apply(+3)
		if got := sc.Target(); got != 5 {
			t.Fatalf("target = %d, want 5", got)
		}
		// Let the spawned workers register.
		_ = h.k.Sleep(context.Background(), 100*time.Millisecond)
		if got := sc.liveWorkers(); got != 3 {
			t.Fatalf("live = %d, want 3 spawned (none existed before)", got)
		}
		l.Stop()
	})
	h.k.Drain()
}

func TestSchedulerShrinkPostsRetireTokens(t *testing.T) {
	h := newHarness(16, 1)
	h.k.Run(func() {
		l := newIdleLoader(t, h)
		sc := &l.sched
		sc.SetTarget(8)
		sc.apply(-3)
		if got := sc.Target(); got != 5 {
			t.Fatalf("target = %d, want 5", got)
		}
		if got := sc.retireTokens; got != 3 {
			t.Fatalf("retire tokens = %d, want 3", got)
		}
		// Regrowing absorbs outstanding retirements before spawning.
		sc.apply(+2)
		if got := sc.retireTokens; got != 1 {
			t.Fatalf("retire tokens after regrow = %d, want 1", got)
		}
		l.Stop()
	})
	h.k.Drain()
}

func TestSchedulerRetireTokenClaiming(t *testing.T) {
	h := newHarness(16, 1)
	h.k.Run(func() {
		l := newIdleLoader(t, h)
		sc := &l.sched
		sc.retireTokens = 2
		claims := 0
		for i := 0; i < 5; i++ {
			if sc.shouldRetire() {
				claims++
			}
		}
		if claims != 2 {
			t.Fatalf("claims = %d, want exactly 2 (one per token)", claims)
		}
		l.Stop()
	})
	h.k.Drain()
}

func TestSchedulerZeroDeltaNoChange(t *testing.T) {
	h := newHarness(16, 1)
	h.k.Run(func() {
		l := newIdleLoader(t, h)
		sc := &l.sched
		sc.SetTarget(4)
		sc.apply(0)
		if sc.Target() != 4 || sc.retireTokens != 0 {
			t.Fatal("zero delta mutated state")
		}
		l.Stop()
	})
	h.k.Drain()
}
