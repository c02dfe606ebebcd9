package simtime

import (
	"context"
	"errors"
	"time"
)

// This file implements the event-driven wait fabric: a Selector parks a task
// until one of several wake sources fires. The first to fire claims the
// selector; readiness at arm time is checked in source order, so callers
// encode priorities (fast queue before slow queue) by argument position.

// Heartbeat is returned by Selector.Wait/Select when the wait ended because
// the deadline expired rather than a source firing.
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
// losing it. A positive deadline is a kernel timer, which Retime moves while
// the owner stays parked. Like all kernel state a Selector has no lock: its
// owner and its wakers are tasks (or posted functions) of one kernel.
type Selector struct {
	k *Virtual

	state int32
	spare bool  // a WaitList.Wait's, handed back to k when its cycle ends
	idx   int   // the claimed cycle's result
	owner *task // the task parked in Wait
	// notes are the positions WaitLists registered s at in this cycle (and
	// renumbered), so that Disarm checks them instead of searching its list.
	notes []uint64
	nbuf  [4]uint64

	// The Gate subscription (see Gate): the gate last armed on and the pulse
	// version seen there.
	gate     *Gate
	gateSeen uint64
}

const (
	selIdle int32 = iota
	selWoken
	selExpired
)

// NewSelector returns a selector bound to rt.
func NewSelector(rt *Virtual) *Selector { return &Selector{k: rt} }

// Bind binds a zero Selector, one embedded by value in a larger struct, to
// rt: what NewSelector does for one of its own.
func (s *Selector) Bind(rt *Virtual) { s.k = rt }

// Reset begins a new wait cycle, discarding a wake delivered since the last
// Wait returned (a waker may claim the selector while its owner is between
// cycles; the owner re-checks its condition before waiting, so the wake's
// information is not lost).
func (s *Selector) Reset() {
	s.notes = s.nbuf[:0]
	s.state = selIdle
}

// TryWake claims the selector's current cycle and delivers idx as the wait
// result. It reports whether the wakeup was delivered: false means another
// source (or a timeout/cancellation) already claimed the cycle, so the
// caller should wake someone else instead. A parked owner joins the ready
// queue; it runs after the caller parks.
func (s *Selector) TryWake(idx int) bool { return s.tryWake(idx) == selIdle }

// tryWake is TryWake, returning the state it found the cycle in.
func (s *Selector) tryWake(idx int) (found int32) {
	if s.state == selIdle {
		s.state = selWoken
		s.idx = idx
		if s.owner != nil {
			s.k.makeReady(s.owner)
		}
		return selIdle
	}
	return s.state
}

// Parked reports whether a task is parked on s with the cycle unclaimed:
// whether Retime would move its deadline and TryWake resume it.
func (s *Selector) Parked() bool { return s.owner != nil }

// Retime moves the deadline of the task parked on s to the absolute instant
// at (no earlier than the next nanosecond), arming a timer if the park had
// none, and resumes nothing: a task whose completion time moved has nothing
// to do until the new one. The timer is armed afresh — among timers due at
// one instant it fires after those armed or re-timed before this call. It
// reports whether a deadline was moved: false means nobody is parked on s
// with the cycle unclaimed (the owner is running, already readied, or has
// not parked yet), and nothing changed.
func (s *Selector) Retime(at time.Duration) bool {
	k := s.k
	t := s.owner // set only while parked, cleared by whatever claims the cycle
	if t == nil {
		return false
	}
	i := t.hidx
	if i < 0 {
		i = len(k.timers)
	}
	k.timers.place(i, timer{at: max(at, k.Now()+1), seq: k.seq, t: t})
	k.seq++
	k.stats.Retimes++
	return true
}

// Wait parks the calling task until TryWake, the deadline (if positive), or
// ctx cancellation. It returns the index passed to TryWake, or Heartbeat
// when the deadline expired. The caller must have Reset the selector for
// this cycle; sources armed for the cycle must be disarmed by the caller
// afterwards (Select does both).
func (s *Selector) Wait(ctx context.Context, deadline time.Duration) (int, error) {
	// Whatever readies a parked task first — a wake, the deadline,
	// cancellation — settles state and idx before the task resumes.
	if st := s.state; st == selIdle && s.k.park(ctx, "selector", deadline, s) {
		return 0, ctx.Err()
	} else if st == selExpired {
		return 0, errors.New("simtime: selector waited on again without a Reset")
	}
	return s.idx, nil
}

// Stepper is a task's wake step: what the task does between a wake returning
// from its Wait and its next park, run for it in its turn (WaitStep). Step
// returns the deadline of the next park and wait true to park again, with the
// cycle Reset and its sources armed as before a Wait, or wait false for the
// task to resume. It runs with the task current but not on its stack, so it
// must not park, and must not need the task's frame.
type Stepper interface {
	Step() (deadline time.Duration, wait bool)
}

// WaitStep is a Wait loop whose body is st.Step: it parks until TryWake, the
// deadline (if positive) or ctx cancellation, and each wake, instead of
// resuming the task, runs st.Step on the loop in the task's ready-queue turn,
// which parks the task again in place or resumes it. So a wait that takes
// many wakes to finish costs one coroutine round trip, and moves no kernel
// event: the parks, timers, self-wakes and their order are the Wait loop's,
// and KernelStats.Steps counts the parks a step made. It returns nil once a
// step returned wait false, or ctx.Err() when cancellation readied the task,
// which is then resumed without a step. A cycle claimed before it parks (at
// the call, or while a step armed) runs the step at once, as Wait returns at
// once. The caller must have Reset the selector for the first cycle, and
// disarms the sources of the last one.
func (s *Selector) WaitStep(ctx context.Context, deadline time.Duration, st Stepper) error {
	k := s.k
	for wait := true; ; {
		switch s.state {
		case selExpired:
			return errors.New("simtime: selector waited on again without a Reset")
		case selIdle:
			t := k.running("selector")
			t.step = waitStep{st: st, sel: s, ctx: ctx}
			cancelled := k.park(ctx, "selector", deadline, s)
			served := t.step.st == nil
			t.step = waitStep{}
			if cancelled {
				return ctx.Err()
			}
			if served {
				return nil
			}
			continue // a park that woke itself returns here: the step is the task's
		}
		if deadline, wait = st.Step(); !wait {
			return nil
		}
	}
}

// Select arms the selector on each source in order, parks until one fires
// (or the deadline, if positive, expires, or ctx is cancelled), then disarms.
// It returns the index of the source that fired, or Heartbeat. Readiness is
// checked in argument order at arm time, so earlier sources take priority
// when several are ready.
func (s *Selector) Select(ctx context.Context, deadline time.Duration, sources ...Source) (int, error) {
	s.Reset()
	armed := len(sources)
	for i, src := range sources {
		if src.Arm(s, i) {
			armed = i + 1
			break
		}
	}
	idx, err := s.Wait(ctx, deadline)
	for _, src := range sources[:armed] {
		src.Disarm(s)
	}
	return idx, err
}

// Gate is a broadcast wake source for condition changes that are not queue
// operations (accounting flips, shutdown). Pulse wakes every armed selector,
// in the order they armed. It is level-correct across the check-then-arm
// race: each Pulse advances a version, and Arm fires immediately when a pulse
// happened since the selector last armed — so "check condition, arm gate,
// park" never misses a pulse delivered between the check and the arm. A
// selector that has never armed on the gate has seen version 0.
//
// The version a selector saw lives on the selector, so a Selector can be
// armed on one Gate at a time. While it is armed it holds the version the
// next Pulse will make, the one that wakes it; a Disarm that takes it out
// first puts back the current one. The subscribers are a WaitList: two of
// them fit in the gate, more take a heap ring. Task-only, like the selectors
// it wakes. The zero value is an empty gate, ready to embed in its owner.
type Gate struct {
	version uint64
	armed   WaitList
}

// Pulse wakes every armed selector and advances the gate version.
func (g *Gate) Pulse() {
	g.version++
	g.armed.WakeAll()
}

// Arm implements Source.
func (g *Gate) Arm(s *Selector, idx int) bool {
	if s.gate != g {
		if s.gate != nil && s.gateSeen == s.gate.version+1 {
			panic("simtime: selector armed on two gates at once")
		}
		s.gate, s.gateSeen = g, 0
	}
	if s.gateSeen != g.version {
		s.gateSeen = g.version
		s.TryWake(idx)
		return true
	}
	s.gateSeen = g.version + 1
	g.armed.Arm(s, idx)
	return false
}

// Disarm implements Source.
func (g *Gate) Disarm(s *Selector) {
	if s.gate == g && g.armed.Disarm(s) {
		s.gateSeen = g.version
	}
}

// Init readies a gate its recycled owner used before, which nobody is armed
// on, for a new run: its version starts over at 0, as the zero value's does,
// and its subscriber list keeps its ring.
func (g *Gate) Init() {
	if g.armed.Len() != 0 {
		panic("simtime: Init of a gate with selectors armed on it")
	}
	g.version = 0
}

var _ Source = (*Gate)(nil)
