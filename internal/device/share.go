package device

import (
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// Share is a processor-sharing integral: its entries all advance at one
// rate, set by the owner, and one admitted with w units of work completes
// when the integral has grown by w. Completion order is target order, kept
// in a min-heap, and only the front holds a kernel timer; the others park
// deadline-free until they reach the front and are armed where they sleep
// (Selector.Retime). A membership or rate change costs O(log k) heap work
// and no coroutine switch, where waking all k entries was quadratic when a
// cold rush piles hundreds of readers onto one disk.
//
// A Device is one Share at rate min(1, C/k); a netsim link holds one for the
// flows whose fair rate it fixes. A Share is task-only state, like its owner.
type Share struct {
	entries  entryHeap // min-heap by completion target
	rate     float64   // current per-entry progress rate
	progress float64   // ∫ rate dt as of lastT
	lastT    time.Duration
	slack    float64 // progress within slack of a target completes it

	// progress(t) = anchorP + rate·(t−anchorPT), never accumulated per
	// wake. A change at one instant moves only rate (and the epoch, when its
	// value moves); the next Advance across elapsed time re-anchors. So a
	// rate that bends away and back within an instant leaves the anchor be,
	// where settling eagerly in SetRate shifts later stamps' rounding: it
	// ends TestContendedParkBudgetAndEndTime at 825589668 ns, not 825589690.
	// A stamp taken before settlement uses (lastT, progress), where the
	// anchor will settle, so re-stamping is bitwise idempotent.
	anchorP    float64
	anchorPT   time.Duration
	anchorRate float64 // rate in effect since anchorPT
	epoch      uint64

	timed    int     // entries in the heap that hold a timer
	was      float64 // the rate before the change in progress (Begin)
	wasFront *Entry  // and the front
}

// invalidEpoch marks an entry with no stamped completion instant.
const invalidEpoch = ^uint64(0)

// Entry is one occupant of a Share: a task parked on the selector it embeds.
type Entry struct {
	target float64       // progress value at which this entry completes
	finish time.Duration // absolute completion instant, per rate epoch
	epoch  uint64        // rate epoch finish was stamped under
	idx    int           // heap index, -1 when not in the heap
	// timed: the task holds a timer at finish, as the front does (and on
	// an uncontended device everyone, batched by same-deadline chaining).
	timed bool
	sel   simtime.Selector
}

// Bind binds the entry's selector to rt, once, before its first use.
func (e *Entry) Bind(rt *simtime.Virtual) { e.sel.Bind(rt) }

// Selector returns the selector the entry's task parks on.
func (e *Entry) Selector() *simtime.Selector { return &e.sel }

// Reserve gives an empty share's heap the backing array buf[:0].
func (s *Share) Reserve(buf []*Entry) { s.entries = buf[:0] }

// Rate returns the share's current per-entry rate.
func (s *Share) Rate() float64 { return s.rate }

// Advance brings progress up to now, first settling a rate change made at
// lastT: the anchor moves there when a new rate is about to apply.
func (s *Share) Advance(now time.Duration) {
	if now <= s.lastT {
		return
	}
	if s.rate != s.anchorRate {
		// progress is anchorP + anchorRate·(lastT − anchorPT) exactly: the
		// previous Advance computed that expression.
		s.anchorP, s.anchorPT, s.anchorRate = s.progress, s.lastT, s.rate
	}
	s.progress = s.anchorP + s.anchorRate*(now-s.anchorPT).Seconds()
	s.lastT = now
}

// SetRate sets the per-entry rate, and the slack within which progress
// completes a target. The share must be advanced to now.
func (s *Share) SetRate(r, slack float64) {
	s.slack = slack
	if r != s.rate {
		s.rate = r
		s.epoch++
	}
}

// Begin notes the share's rate and front before changes at this instant,
// advanced to it, that Rearm then follows up.
func (s *Share) Begin() {
	s.was, s.wasFront = s.rate, nil
	if len(s.entries) > 0 {
		s.wasFront = s.entries[0]
	}
}

// Insert admits e with work units of service.
func (s *Share) Insert(e *Entry, work float64) {
	e.target = s.progress + work
	e.epoch = invalidEpoch
	s.entries.push(e)
}

// Remove takes e out of the share.
func (s *Share) Remove(e *Entry) {
	s.entries.remove(e)
	s.setTimed(e, false)
}

// Left returns the work e has left as of the share's clock.
func (s *Share) Left(e *Entry) float64 {
	if s.Done(e) {
		return 0
	}
	return max(e.target-s.progress, 0)
}

// Done reports whether e is complete as of the share's clock: its target is
// within slack, or its completion instant at the current rate has come.
func (s *Share) Done(e *Entry) bool {
	return s.progress >= e.target-s.slack || (e.epoch == s.epoch && s.lastT >= e.finish)
}

// Deadline begins a wait cycle for e's task, advanced to now and not Done,
// and returns the deadline it parks with: a timer if e is the front (or all
// hold one), none otherwise. The caller advances and re-checks Done after
// the wake.
func (s *Share) Deadline(e *Entry, all bool) (d time.Duration) {
	if all || s.entries[0] == e {
		s.stamp(e)
		d = max(e.finish-s.lastT, time.Nanosecond)
	}
	s.setTimed(e, d > 0)
	e.sel.Reset()
	return d
}

// Rearm re-arms whoever's deadline the changes since Begin moved: a rate
// rise makes every armed deadline late, a rate drop the front's early, and
// a new front parked deadline-free needs one. A timed entry no longer the
// front finds its timer early and parks deadline-free.
func (s *Share) Rearm() {
	if len(s.entries) > 0 && (s.rate != s.was || s.entries[0] != s.wasFront) {
		s.rearm()
	}
}

func (s *Share) rearm() {
	front := s.entries[0]
	if s.rate > s.was && s.timed > 0 {
		for _, en := range s.entries {
			if en.timed {
				s.arm(en)
			}
		}
	}
	if s.rate < s.was && front.timed || (s.rate > s.was || front != s.wasFront) && !front.timed {
		s.arm(front)
	}
}

// stamp sets e.finish, the completion instant at the current rate, once per
// rate epoch and from the epoch's anchor: the same instant, to the bit, no
// matter when or by whom the entry is stamped.
func (s *Share) stamp(e *Entry) {
	if e.epoch == s.epoch {
		return
	}
	at, p := s.anchorPT, s.anchorP
	if s.rate != s.anchorRate { // awaiting settlement at (lastT, progress)
		at, p = s.lastT, s.progress
	}
	e.finish = at + time.Duration((e.target-p)/s.rate*float64(time.Second)) + time.Nanosecond
	e.epoch = s.epoch
}

func (s *Share) setTimed(e *Entry, timed bool) {
	if e.timed != timed {
		e.timed = timed
		if timed {
			s.timed++
		} else {
			s.timed--
		}
	}
}

// arm gives the parked entry en a timer at its completion instant, or moves
// the one it holds, without resuming it; an entry already at its target is
// woken instead. An entry whose task is not parked needs neither: it
// re-evaluates its loop when it runs.
func (s *Share) arm(en *Entry) {
	if !en.sel.Parked() {
		return
	}
	if s.progress >= en.target-s.slack {
		en.sel.TryWake(0)
		return
	}
	s.stamp(en)
	en.sel.Retime(en.finish)
	s.setTimed(en, true)
}

// entryHeap is a min-heap of entries by completion target. Each entry knows
// its index, so a leaver is removed wherever it sits.
type entryHeap []*Entry

func (h *entryHeap) push(e *Entry) {
	*h = append(*h, nil)
	h.place(len(*h)-1, e)
}

func (h *entryHeap) remove(e *Entry) {
	i, last := e.idx, len(*h)-1
	e.idx = -1
	moved := (*h)[last]
	(*h)[last] = nil
	*h = (*h)[:last]
	if i < last {
		h.place(i, moved)
	}
}

// place puts e where it belongs, given a hole at i: up while its target is
// before its parent's, else down while a child's is before its own.
func (h entryHeap) place(i int, e *Entry) {
	for parent := (i - 1) / 2; i > 0 && e.target < h[parent].target; parent = (i - 1) / 2 {
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	for {
		child := 2*i + 1
		if child+1 < len(h) && h[child+1].target < h[child].target {
			child++
		}
		if child >= len(h) || h[child].target >= e.target {
			break
		}
		h[i] = h[child]
		h[i].idx = i
		i = child
	}
	h[i], e.idx = e, i
}
