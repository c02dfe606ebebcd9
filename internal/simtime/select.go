package simtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the event-driven wait fabric: a Selector parks a task
// until one of several wake sources fires. The first to fire claims the
// selector; readiness at arm time is checked in source order, so callers
// encode priorities (fast queue before slow queue) by argument position.

// Heartbeat is returned by Selector.Wait/Select when the wait ended because
// the deadline (the fallback heartbeat) expired rather than a source firing.
const Heartbeat = -1

// Source is a wake source a Selector can be armed on. Queues, gates, and
// other blocking structures implement it.
//
// Arm registers s for a single wakeup with the given result index. If the
// source is already ready, implementations call s.TryWake(idx) instead of
// registering and return true so the caller stops arming further sources.
// Disarm removes a registration; it must be a no-op when s is not
// registered (already woken and popped, or never added).
type Source interface {
	Arm(s *Selector, idx int) bool
	Disarm(s *Selector)
}

// Selector is a reusable multi-source wait primitive: the runtime-aware
// analogue of a select statement over wake sources. One task owns a
// Selector; each cycle it Resets, arms the selector on its sources, and
// parks in Wait. The first TryWake claims the cycle — later TryWake calls
// return false so the caller passes the wakeup to another waiter instead of
// losing it. A positive deadline is a kernel timer under Virtual, and a
// wall-clock timer scaled like Real.Sleep on any other runtime.
type Selector struct {
	k     *Virtual // nil on nondeterministic runtimes
	scale float64  // wall-clock compression for deadline waits when k == nil
	ch    chan int // result hand-off when k == nil

	// state transitions are guarded by k.mu under Virtual (so the claim and
	// the owner's move to the ready queue are one step) and by CAS alone
	// under Real.
	state atomic.Int32
	idx   int      // the claimed cycle's result; guarded by k.mu
	owner *task    // the task parked in Wait; guarded by k.mu
	notes []uint64 // see Note; the owner's alone
	nbuf  [4]uint64
}

const (
	selIdle int32 = iota
	selArmed
	selWoken
	selExpired
)

// NewSelector returns a selector bound to rt.
func NewSelector(rt Runtime) *Selector {
	switch r := rt.(type) {
	case *Virtual:
		return &Selector{k: r}
	case *Real:
		return &Selector{ch: make(chan int, 1), scale: r.scale}
	}
	return &Selector{ch: make(chan int, 1), scale: 1}
}

// Deterministic reports whether rt is the deterministic virtual kernel, where
// a lost wakeup surfaces as a loud deadlock and a fallback heartbeat would
// only add events; on a wall-clock runtime it is the recovery from a hang.
func Deterministic(rt Runtime) bool {
	_, ok := rt.(*Virtual)
	return ok
}

// Reset begins a new wait cycle, discarding a wake delivered since the last
// Wait returned (a waker may claim the selector while its owner is between
// cycles; the owner re-checks its condition before waiting, so the wake's
// information is not lost). Callers that publish the selector to wakers
// through their own lock (as Device does) must Reset under that lock so
// wakes are serialized against the cycle boundary.
//
// On a wall-clock runtime the drain must come BEFORE the state store:
// Gate.Pulse delivers TryWake outside its lock, so a delayed waker either
// is refused (stale state) or claims the fresh cycle with its send intact;
// the other way round its send could be eaten and the next Wait never wake.
func (s *Selector) Reset() {
	if s.k == nil {
		select {
		case <-s.ch:
		default:
		}
	}
	s.notes = s.nbuf[:0]
	s.state.Store(selIdle)
}

// Note records, for the current cycle, a position a Source registered s at,
// and Notes returns them: a Source with a positional wait list checks the
// noted positions in Disarm instead of searching the list for s.
func (s *Selector) Note(pos uint64) { s.notes = append(s.notes, pos) }
func (s *Selector) Notes() []uint64 { return s.notes }

// TryWake claims the selector's current cycle and delivers idx as the wait
// result. It reports whether the wakeup was delivered: false means another
// source (or a timeout/cancellation) already claimed the cycle, so the
// caller should wake someone else instead. Under Virtual a parked owner
// joins the ready queue; it runs after the caller parks.
func (s *Selector) TryWake(idx int) bool {
	if k := s.k; k != nil {
		k.mu.Lock()
		defer k.mu.Unlock()
		if st := s.state.Load(); st != selIdle && st != selArmed {
			return false
		}
		s.state.Store(selWoken)
		s.idx = idx
		if s.owner != nil {
			k.readyLocked(s.owner)
		}
		return true
	}
	for {
		st := s.state.Load()
		if st != selIdle && st != selArmed {
			return false
		}
		if s.state.CompareAndSwap(st, selWoken) {
			s.ch <- idx
			return true
		}
	}
}

// Wait parks the calling task until TryWake, the deadline (if positive), or
// ctx cancellation. It returns the index passed to TryWake, or Heartbeat
// when the deadline expired. The caller must have Reset the selector for
// this cycle; sources armed for the cycle must be disarmed by the caller
// afterwards (Select does both).
func (s *Selector) Wait(ctx context.Context, deadline time.Duration) (int, error) {
	return s.wait(ctx, deadline, "selector")
}

// wait is Wait; on names the primitive in errors and the deadlock report
// ("selector", or "waiter" for the one-shot cycle of a Waiter).
func (s *Selector) wait(ctx context.Context, deadline time.Duration, on string) (int, error) {
	if k := s.k; k != nil {
		k.mu.Lock()
		// Whatever readies a parked task first — a wake, the deadline,
		// cancellation — settles state and idx before the task resumes.
		if st := s.state.Load(); st == selIdle && k.parkLocked(ctx, on, deadline, s) {
			return 0, ctx.Err()
		} else if st == selWoken {
			k.mu.Unlock()
		} else if st != selIdle {
			k.mu.Unlock()
			return 0, fmt.Errorf("simtime: %s waited on again without a Reset", on)
		}
		return s.idx, nil
	}
	if !s.state.CompareAndSwap(selIdle, selArmed) {
		if s.state.Load() == selWoken {
			return <-s.ch, nil
		}
		return 0, fmt.Errorf("simtime: %s waited on again without a Reset", on)
	}
	var timerC <-chan time.Time
	if deadline > 0 {
		tm := time.NewTimer(time.Duration(float64(deadline) / s.scale))
		defer tm.Stop()
		timerC = tm.C
	}
	select {
	case idx := <-s.ch:
		return idx, nil
	case <-timerC:
		if s.state.CompareAndSwap(selArmed, selExpired) {
			return Heartbeat, nil
		}
		return <-s.ch, nil // a wake won the race; deliver it
	case <-ctx.Done():
		if s.state.CompareAndSwap(selArmed, selExpired) {
			return 0, ctx.Err()
		}
		return <-s.ch, nil
	}
}

// Select arms the selector on each source in order, parks until one fires
// (or the heartbeat expires, or ctx is cancelled), then disarms. It returns
// the index of the source that fired, or Heartbeat. Readiness is checked in
// argument order at arm time, so earlier sources take priority when several
// are ready — deterministic under Virtual.
func (s *Selector) Select(ctx context.Context, heartbeat time.Duration, sources ...Source) (int, error) {
	s.Reset()
	armed := len(sources)
	for i, src := range sources {
		if src.Arm(s, i) {
			armed = i + 1
			break
		}
	}
	idx, err := s.Wait(ctx, heartbeat)
	for _, src := range sources[:armed] {
		src.Disarm(s)
	}
	return idx, err
}

// Gate is a broadcast wake source for condition changes that are not queue
// operations (accounting flips, shutdown). Pulse wakes every armed selector.
// It is level-correct across the check-then-arm race: each Pulse advances a
// version, and Arm fires immediately when a pulse happened since the
// selector last armed — so "check condition, arm gate, park" never misses a
// pulse delivered between the check and the arm.
type Gate struct {
	mu      sync.Mutex
	version uint64
	seen    map[*Selector]uint64
	subs    []gateSub
}

type gateSub struct {
	sel *Selector
	idx int
}

// NewGate returns an empty gate.
func NewGate() *Gate {
	return &Gate{seen: make(map[*Selector]uint64)}
}

// gateSeenLimit bounds the per-selector pulse memory: beyond it, Pulse
// drops the whole map rather than let transient selectors accumulate. A
// dropped entry costs its selector at most one spurious wake at its next Arm.
const gateSeenLimit = 1024

// Pulse wakes every armed selector and advances the gate version.
func (g *Gate) Pulse() {
	g.mu.Lock()
	g.version++
	subs := g.subs
	g.subs = nil
	if len(g.seen) > gateSeenLimit {
		clear(g.seen)
	}
	for _, e := range subs {
		g.seen[e.sel] = g.version
	}
	g.mu.Unlock()
	for _, e := range subs {
		e.sel.TryWake(e.idx)
	}
}

// Arm implements Source.
func (g *Gate) Arm(s *Selector, idx int) bool {
	g.mu.Lock()
	if g.seen[s] != g.version {
		g.seen[s] = g.version
		g.mu.Unlock()
		s.TryWake(idx)
		return true
	}
	g.subs = append(g.subs, gateSub{sel: s, idx: idx})
	g.mu.Unlock()
	return false
}

// Disarm implements Source.
func (g *Gate) Disarm(s *Selector) {
	g.mu.Lock()
	for i, e := range g.subs {
		if e.sel == s {
			g.subs = append(g.subs[:i], g.subs[i+1:]...)
			break
		}
	}
	g.mu.Unlock()
}

var _ Source = (*Gate)(nil)
