// Package device models shared-capacity hardware: CPU core pools, GPU
// compute (with concurrent streams), and disk bandwidth.
//
// A Device has a capacity C of parallel units. k concurrent tasks each
// progress at rate min(1, C/k): with k ≤ C every task runs at full speed;
// beyond that the device is fair-shared. This single abstraction covers the
// three substrates the paper's evaluation depends on:
//
//   - CPU pool: C = number of cores; oversubscribed preprocessing workers
//     slow each other down (what MinatoLoader's worker scheduler must avoid).
//   - GPU: C slightly above 1 models concurrent CUDA streams — DALI's
//     GPU-side preprocessing overlaps training imperfectly, reproducing the
//     resource contention of §3.5 (Takeaway 5).
//   - Disk: C = 1, task work = bytes/bandwidth; concurrent readers share
//     bandwidth fairly (§5.5).
//
// Progress accounting is exact piecewise integration over a shared progress
// integral (see Device): rate changes are integrated once, device-wide, and
// only the next-to-finish task keeps a completion alarm armed — one that
// moves with the rate while the task stays parked.
package device

import (
	"context"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
)

// Device is a shared-capacity resource.
//
// Progress is tracked with a shared integral (generalized processor
// sharing): every in-flight task advances at the common rate min(1, C/k),
// so a task entering with `work` seconds of compute completes when the
// device's progress integral reaches entry-progress + work. Completion
// order is therefore the order of completion targets — only the task with
// the earliest target needs a kernel timer; everyone else parks
// deadline-free, and when one becomes the front its completion instant is
// stamped for it and armed under it where it sleeps (Selector.Retime). An
// occupant is resumed only when it has something to do: complete, or return
// a cancellation. A membership change (a task entering or leaving) costs
// O(log k) heap work and no coroutine switch, where the previous per-entry
// accounting broadcast a wake to all k occupants on every rate change —
// quadratic exactly when a multi-tenant cold rush piles hundreds of readers
// onto a parallelism-4 disk.
//
// A Device has no lock: it is task-only state (see simtime's ownership
// rule). Only kernel tasks, of which one runs at a time, may call its
// methods once tasks have started.
type Device struct {
	rt   *simtime.Virtual
	name string
	cap  float64

	entries  entryHeap // min-heap by completion target
	rate     float64   // current per-task progress rate
	progress float64   // ∫ rate dt, in full-speed seconds, as of lastT
	lastT    time.Duration

	// Both integrals are anchored and recomputed analytically, never
	// accumulated per wake segment: progress(t) = anchorP + rate·(t−anchorPT).
	// Re-anchoring is DEFERRED to the next advance across real elapsed time:
	// membership events at one instant only update d.rate (and bump the
	// epoch when its value moves), and advance settles the anchor at
	// lastT before integrating past it. This is numerics, not ordering — the
	// kernel fixes the order of same-instant events — and it stays: a rate
	// that bends away and back within one instant (1 → C/(C+1) → 1) leaves
	// the anchor where it was, where settling eagerly in setRate would move
	// it twice and shift the float rounding of every later completion
	// stamp. Measured: the eager form ends TestContendedParkBudgetAndEndTime
	// at 825589668 ns instead of the pinned 825589690, and the headline's
	// dali run at 156816959216 ns instead of 156816959218.
	// Completion instants are stamped from the settled anchor — or, while
	// a change awaits settlement, from (lastT, progress), which is exactly
	// where the anchor will settle — so re-stamping is bitwise idempotent:
	// a rate that bends away and back within one instant (a task leaving
	// and re-entering) re-stamps the front to the identical instant.
	anchorP    float64
	anchorPT   time.Duration
	anchorRate float64 // rate in effect since anchorPT
	anchorB    float64
	anchorBT   time.Duration
	anchorK    float64 // effective occupancy min(k, cap) since anchorBT
	rateEpoch  uint64

	// timed counts the entries in the heap that hold a timer (entry.timed).
	timed int

	// free recycles entries (and the selectors they embed) across Run
	// calls: the occupancy fast path allocates nothing in steady state.
	// Fresh entries come from the entries of devices recycled before this
	// one (see Recycle).
	free []*entry

	// busyIntegral accumulates ∫ min(k, cap) dt in unit-seconds: the total
	// amount of work the device has performed, as of lastT. Utilization
	// over a window is Δbusy / (cap · Δt).
	busyIntegral float64

	// traced devices record one StageDeviceRun span per completed Run into
	// the kernel's recorder, under these labels (TraceAs).
	traced   bool
	trTenant int32
	trNode   int32
	trKey    int64
}

// invalidEpoch marks an entry with no stamped completion instant.
const invalidEpoch = ^uint64(0)

type entry struct {
	target float64       // progress value at which this task completes
	finish time.Duration // absolute completion instant, per rate epoch
	epoch  uint64        // rate epoch finish was stamped under
	idx    int           // heap index, -1 when not in the heap
	// timed records that the task holds its own completion timer, armed at
	// finish — every occupant of an uncontended device does, so the kernel's
	// same-deadline chaining batches them and no wake traffic is needed.
	// Under contention only the front is timed; later finishers have theirs
	// armed by exit when they reach the front.
	timed bool
	sel   simtime.Selector
}

// The storage of recycled devices, process-wide: their entries, and the
// backing arrays of their free lists and heaps. Devices are built per run,
// and each grows its entries to the run's peak occupancy; a new device
// draws from here instead (see Recycle). The bounds are benchmark peaks:
// multinode8-flashcrowd returns 778 entries at seed 7 (772 at seed 1), and
// fleet-64gpu's 66 devices 132 slices.
var (
	entryStock = simtime.NewStock[*entry](800)
	sliceStock = simtime.NewStock[[]*entry](132)
)

// New returns a device with the given parallel capacity (must be positive),
// registered with rt's teardown (see Recycle).
func New(rt *simtime.Virtual, name string, capacity float64) *Device {
	if capacity <= 0 {
		panic("device: capacity must be positive")
	}
	d := &Device{
		rt: rt, name: name, cap: capacity,
		rate: 1, anchorRate: 1,
		lastT: rt.Now(), anchorPT: rt.Now(), anchorBT: rt.Now(),
	}
	d.free, _ = sliceStock.Get()
	d.entries, _ = sliceStock.Get()
	rt.Own(d)
	return d
}

// Recycle hands the device's storage to the devices built after it, in
// this run or another: its entries, with the selectors they embed, and the
// backing arrays of its free list and heap. The device's kernel calls it at
// the run's teardown (simtime.Virtual.Recycle); a device still occupied
// keeps everything. The device stays usable, growing new storage if it runs
// again.
func (d *Device) Recycle() {
	if len(d.entries) > 0 {
		return
	}
	for i, e := range d.free {
		entryStock.Put(e)
		d.free[i] = nil
	}
	for _, sl := range [2][]*entry{d.free, d.entries} {
		if cap(sl) > 0 {
			sliceStock.Put(sl[:0])
		}
	}
	d.free, d.entries = nil, nil
}

// Name returns the device's diagnostic name.
func (d *Device) Name() string { return d.name }

// TraceAs marks the device traced: on a kernel with a recorder, every
// completed Run records a StageDeviceRun span covering its occupancy
// interval, with the requested full-speed work in Detail. The identity triple
// (tenant, node, key) tells apart the devices of one kernel.
func (d *Device) TraceAs(tenant, node int32, key int64) {
	d.traced, d.trTenant, d.trNode, d.trKey = true, tenant, node, key
}

// Capacity returns the device's parallel capacity.
func (d *Device) Capacity() float64 { return d.cap }

// Run occupies the device for `work` of full-speed compute time. Under
// contention the wall (virtual) time taken is proportionally longer. It
// returns ctx.Err() if cancelled mid-run (best-effort under the virtual
// runtime; see simtime docs).
func (d *Device) Run(ctx context.Context, work time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if work <= 0 {
		return nil
	}
	t0 := d.rt.Now()
	e := d.newEntry()
	d.advance()
	e.target = d.progress + work.Seconds()
	e.epoch = invalidEpoch
	d.entries.push(e)
	// Entering wakes nobody: this task arms its own deadline below, and if
	// it slowed the device, the front's deadline moves with the rate. That
	// also undoes a transient: exit stamps the next front under the rate
	// the leaver leaves behind, and a leaver that re-enters within the
	// instant (8/64 → 8/63 → 8/64) puts rate and stamp back here. Left
	// armed, the transient deadline would fire early, find progress inside
	// the completion tolerance below, and end the run nanoseconds short.
	// Other entries still holding a timer from before contention find it
	// early, and park deadline-free when it fires.
	epoch := d.rateEpoch
	d.setRate()
	if front := d.entries[0]; d.rateEpoch != epoch && front != e && front.timed {
		d.arm(front)
	}

	for {
		if d.progress >= e.target-1e-9 {
			d.exit(e)
			if d.traced {
				d.rt.Trace().Record(trace.Span{Start: t0, End: d.rt.Now(), Stage: trace.StageDeviceRun,
					Tenant: d.trTenant, Node: d.trNode, Key: d.trKey, Detail: int64(work)})
			}
			return nil
		}
		var deadline time.Duration
		if d.rate == 1 || d.entries[0] == e {
			// Uncontended tasks and the front hold exact completion
			// timers, armed at the absolute finish instant (see stamp).
			// While the task is parked, a rate change that makes that
			// instant wrong moves the timer: see arm's callers.
			d.stamp(e)
			deadline = max(e.finish-d.lastT, time.Nanosecond)
			d.setTimed(e, true)
		} else {
			d.setTimed(e, false)
		}
		e.sel.Reset()
		_, err := e.sel.Wait(ctx, deadline)
		d.advance()
		if err != nil {
			d.exit(e)
			return err
		}
		// Completion, an armed deadline a rate drop made early, or one
		// that found this entry no longer the front: loop and re-evaluate.
	}
}

// newEntry takes an entry from the device's free list, else one a recycled
// device left, else a new one.
func (d *Device) newEntry() *entry {
	if n := len(d.free); n > 0 {
		e := d.free[n-1]
		d.free = d.free[:n-1]
		return e
	}
	e, ok := entryStock.Get()
	if !ok {
		e = new(entry)
	}
	e.sel.Bind(d.rt)
	return e
}

// stamp sets e.finish, the absolute completion instant at the current
// rate, once per rate epoch and from the epoch's anchor — so the instant
// (and its float rounding) is the same no matter when, how often or by
// whom the entry is stamped.
func (d *Device) stamp(e *entry) {
	if e.epoch == d.rateEpoch {
		return
	}
	if d.rate == d.anchorRate {
		// Settled: stamp from the anchor.
		e.finish = d.anchorPT + time.Duration((e.target-d.anchorP)/d.rate*float64(time.Second)) + time.Nanosecond
	} else {
		// A rate change at lastT awaits settlement: progress is exact as
		// of lastT and the new rate applies beyond it. Settlement moves
		// the anchor to exactly (progress, lastT), so this stamp and later
		// anchor-based ones agree bit-for-bit.
		e.finish = d.lastT + time.Duration((e.target-d.progress)/d.rate*float64(time.Second)) + time.Nanosecond
	}
	e.epoch = d.rateEpoch
}

func (d *Device) setTimed(e *entry, timed bool) {
	if e.timed != timed {
		e.timed = timed
		if timed {
			d.timed++
		} else {
			d.timed--
		}
	}
}

// arm gives the parked entry en a completion timer at the current rate, or
// moves the one it holds, without resuming it. An entry whose target is
// already reached is woken instead: it completes at this instant. A refused
// Retime needs no fallback — an entry in the heap whose task is not parked
// is in the ready queue, and re-evaluates its loop when it runs.
func (d *Device) arm(en *entry) {
	if d.progress >= en.target-1e-9 {
		en.sel.TryWake(0)
		return
	}
	d.stamp(en)
	en.sel.Retime(en.finish)
	d.setTimed(en, true)
}

// exit removes e from the heap, recycles it, and re-arms whoever's deadline
// basis changed. A rate rise makes every armed deadline too late, so the
// entries holding one are re-armed; besides the front that only happens
// while the device is draining out of contention, to entries that armed
// before it, and the count of timed entries says whether there is any to
// look for. Otherwise, the only task that can need attention is the new
// front after the old front left, and only when it parked deadline-free.
// The common uncontended exit — everyone holding an exact timer at an
// unchanged rate — disturbs nobody.
func (d *Device) exit(e *entry) {
	wasFront := len(d.entries) > 0 && d.entries[0] == e
	if e.idx >= 0 {
		d.entries.remove(e)
	}
	d.setTimed(e, false)
	d.free = append(d.free, e)
	oldRate := d.rate
	d.setRate()
	switch {
	case len(d.entries) == 0:
	case d.rate > oldRate:
		if d.timed > 0 {
			for _, en := range d.entries {
				if en.timed {
					d.arm(en)
				}
			}
		}
		if front := d.entries[0]; !front.timed {
			d.arm(front)
		}
	case wasFront:
		if front := d.entries[0]; !front.timed {
			d.arm(front)
		}
	}
}

// setRate recomputes the shared per-task rate for the current
// occupancy. It mutates only the rate (and the epoch, when the value
// moved): anchor settlement is deferred to the next advance across real
// elapsed time, so a within-instant transient cannot move the anchors —
// see the field comment. Callers must have run advance first,
// with no park in between, so progress and busy time are current.
func (d *Device) setRate() {
	r := 1.0
	if k := len(d.entries); float64(k) > d.cap {
		r = d.cap / float64(k)
	}
	if r != d.rate {
		d.rate = r
		d.rateEpoch++
	}
}

// advance brings progress and busy time up to now, analytically from
// the anchors. Rate changes made at lastT are settled first — the anchors
// move to lastT exactly when a differing rate is about to apply across
// (lastT, now], using only settled values, never transient mid-instant
// ones.
func (d *Device) advance() {
	now := d.rt.Now()
	if now <= d.lastT {
		return
	}
	if d.rate != d.anchorRate {
		// progress already equals anchorP + anchorRate·(lastT − anchorPT):
		// the previous advance computed exactly that expression.
		d.anchorP = d.progress
		d.anchorPT = d.lastT
		d.anchorRate = d.rate
	}
	k := float64(len(d.entries))
	if k > d.cap {
		k = d.cap
	}
	if k != d.anchorK {
		d.anchorB = d.busyIntegral
		d.anchorBT = d.lastT
		d.anchorK = k
	}
	d.progress = d.anchorP + d.anchorRate*(now-d.anchorPT).Seconds()
	d.busyIntegral = d.anchorB + d.anchorK*(now-d.anchorBT).Seconds()
	d.lastT = now
}

// entryHeap is a min-heap of entries by completion target. Each entry knows
// its index, so an exit removes it wherever it sits.
type entryHeap []*entry

func (h *entryHeap) push(e *entry) {
	*h = append(*h, nil)
	h.place(len(*h)-1, e)
}

func (h *entryHeap) remove(e *entry) {
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
func (h entryHeap) place(i int, e *entry) {
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

// BusySeconds returns the cumulative full-speed work performed, in
// unit-seconds. Utilization over a window is Δbusy / (capacity · Δt).
func (d *Device) BusySeconds() float64 {
	d.advance() // progress included, so the two integrals share one clock
	return d.busyIntegral
}
