package chaos

import (
	"context"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// Engine replays a list of timed events against a running session: one
// tracked task parks on the virtual clock until each event's At and hands
// it to the caller's apply function. Events are applied strictly in time
// order (stable for ties) by that single task, so the injection schedule
// is deterministic. Membership events in a multi-node run are not driven
// by an Engine — the step barrier applies them at quiescent points; see
// the package comment. Task-only, like the Pauser: every driver starts and
// stops its engine on a kernel task.
type Engine struct {
	stopped bool
	scope   simtime.CancelScope
}

// StartEngine launches the replay task on wg (no-op returning nil when
// events is empty). apply runs in the engine's task at each event time;
// after Stop it is never called again.
func StartEngine(rt *simtime.Virtual, wg *simtime.WaitGroup, events []Event, apply func(Event)) *Engine {
	if len(events) == 0 {
		return nil
	}
	e := new(Engine)
	ctx := e.scope.Begin(rt, context.Background())
	wg.Go("chaos-engine", func() {
		for _, ev := range events {
			if d := ev.At - rt.Now(); d > 0 {
				if err := rt.Sleep(ctx, d); err != nil {
					return
				}
			}
			if e.stopped {
				return
			}
			apply(ev)
		}
	})
	return e
}

// Stop ends the replay: pending events are discarded and apply is never
// invoked again. Safe on a nil engine and idempotent. Callers stop the
// engine when the run's consumers finish, before waiting out background
// tasks, so a script outliving the run cannot append trailing fault
// records.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.stopped = true
	e.scope.Cancel()
}

// Pauser gates training consumers for session preemption: consumers call
// Wait at each batch boundary and park while the session is preempted.
// Pause with terminal=true (no resume scheduled in the script) releases
// waiters with ErrPreempted instead of parking them forever.
type Pauser struct {
	rt *simtime.Virtual

	paused   bool
	terminal bool
	waiters  simtime.WaitList
}

// NewPauser returns an unpaused gate.
func NewPauser(rt *simtime.Virtual) *Pauser {
	p := &Pauser{rt: rt}
	p.waiters.Init(rt)
	return p
}

// Pause preempts the session; terminal marks a preemption with no
// scheduled resume. Parked waiters of a terminal pause wake immediately
// with ErrPreempted.
func (p *Pauser) Pause(terminal bool) {
	p.paused, p.terminal = true, terminal
	if terminal {
		p.waiters.WakeAll()
	}
}

// Resume releases every parked consumer.
func (p *Pauser) Resume() {
	p.paused, p.terminal = false, false
	p.waiters.WakeAll()
}

// Wait parks until the session is not preempted and returns the time
// spent parked. A terminal preemption returns ErrPreempted (with the
// stall accumulated so far); a ctx error passes through. Safe on a nil
// pauser, which never pauses.
func (p *Pauser) Wait(ctx context.Context) (time.Duration, error) {
	if p == nil {
		return 0, nil
	}
	var stalled time.Duration
	for {
		if !p.paused {
			return stalled, nil
		}
		if p.terminal {
			return stalled, ErrPreempted
		}
		t0 := p.rt.Now()
		err := p.waiters.Wait(ctx)
		stalled += p.rt.Now() - t0
		if err != nil {
			return stalled, err
		}
	}
}
