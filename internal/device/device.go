// Package device models shared-capacity hardware: CPU core pools, GPU
// compute (with concurrent streams), and disk bandwidth.
//
// A Device has a capacity C of parallel units, and k concurrent tasks each
// progress at rate min(1, C/k). This one abstraction covers the substrates
// the paper's evaluation depends on:
//
//   - CPU pool: C = cores; oversubscribed preprocessing workers slow each
//     other down (what MinatoLoader's worker scheduler must avoid).
//   - GPU: C slightly above 1 models concurrent CUDA streams — DALI's
//     GPU-side preprocessing overlaps training imperfectly (§3.5).
//   - Disk: C = 1, work = bytes/bandwidth; readers share it fairly (§5.5).
//
// Progress is one processor-sharing integral per device (Share).
package device

import (
	"context"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
)

// Device is a shared-capacity resource: one Share at the per-task rate
// min(1, C/k), in full-speed seconds per second. It has no lock: it is
// task-only state (see simtime's ownership rule).
type Device struct {
	rt   *simtime.Virtual
	name string
	cap  float64
	ps   Share

	// free recycles entries (and their selectors) across Run calls; fresh
	// ones come from devices recycled before this one (see Recycle).
	free []*Entry

	// busyIntegral is ∫ min(k, cap) dt in unit-seconds as of ps.lastT, the
	// work the device has performed, anchored like progress:
	// busy(t) = anchorB + anchorK·(t−anchorBT).
	busyIntegral float64
	anchorB      float64
	anchorBT     time.Duration
	anchorK      float64 // effective occupancy min(k, cap) since anchorBT

	// traced devices record one StageDeviceRun span per completed Run into
	// the kernel's recorder, under these labels (TraceAs).
	traced   bool
	trTenant int32
	trNode   int32
	trKey    int64
}

const slack = 1e-9 // full-speed seconds within which a Run's work is done

// The entries, free lists and heaps of recycled devices, process-wide (see
// Recycle). The bounds are benchmark peaks: multinode8-flashcrowd returns
// 778 entries at seed 7 (772 at seed 1), fleet-64gpu's 66 devices 132 slices.
var (
	entryStock = simtime.NewStock[*Entry](800)
	sliceStock = simtime.NewStock[[]*Entry](132)
)

// New returns a device with the given parallel capacity (must be positive),
// registered with rt's teardown (see Recycle).
func New(rt *simtime.Virtual, name string, capacity float64) *Device {
	if capacity <= 0 {
		panic("device: capacity must be positive")
	}
	now := rt.Now()
	d := &Device{rt: rt, name: name, cap: capacity, anchorBT: now,
		ps: Share{rate: 1, anchorRate: 1, slack: slack, lastT: now, anchorPT: now}}
	d.free, _ = sliceStock.Get()
	d.ps.entries, _ = sliceStock.Get()
	rt.Own(d)
	return d
}

// Recycle hands the device's entries (with their selectors) and the backing
// arrays of its free list and heap to the devices built after it. Its kernel
// calls it at the run's teardown (simtime.Virtual.Recycle); an occupied
// device keeps everything. The device stays usable.
func (d *Device) Recycle() {
	if len(d.ps.entries) > 0 {
		return
	}
	for i, e := range d.free {
		entryStock.Put(e)
		d.free[i] = nil
	}
	for _, sl := range [2][]*Entry{d.free, d.ps.entries} {
		if cap(sl) > 0 {
			sliceStock.Put(sl[:0])
		}
	}
	d.free, d.ps.entries = nil, nil
}

// Name returns the device's diagnostic name.
func (d *Device) Name() string { return d.name }

// TraceAs marks the device traced: on a kernel with a recorder, every
// completed Run records a StageDeviceRun span over its occupancy, with the
// full-speed work in Detail, labelled (tenant, node, key).
func (d *Device) TraceAs(tenant, node int32, key int64) {
	d.traced, d.trTenant, d.trNode, d.trKey = true, tenant, node, key
}

// Capacity returns the device's parallel capacity.
func (d *Device) Capacity() float64 { return d.cap }

// Run occupies the device for `work` of full-speed compute time, longer in
// virtual time under contention. It returns ctx.Err() if cancelled mid-run.
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
	// Entering wakes nobody; a leaver that re-enters within the instant puts
	// back the rate and the front's stamp (8/64 → 8/63 → 8/64).
	d.occupy(e, work.Seconds())
	var err error
	for err == nil && !d.ps.Done(e) {
		// Uncontended tasks, and the front, hold exact completion timers.
		_, err = e.sel.Wait(ctx, d.ps.Deadline(e, d.ps.rate == 1))
		d.advance()
	}
	d.occupy(e, 0)
	if err == nil && d.traced {
		d.rt.Trace().Record(trace.Span{Start: t0, End: d.rt.Now(), Stage: trace.StageDeviceRun,
			Tenant: d.trTenant, Node: d.trNode, Key: d.trKey, Detail: int64(work)})
	}
	return err
}

// newEntry takes an entry from the device's free list, else one a recycled
// device left, else a new one.
func (d *Device) newEntry() *Entry {
	if n := len(d.free); n > 0 {
		e := d.free[n-1]
		d.free = d.free[:n-1]
		return e
	}
	e, ok := entryStock.Get()
	if !ok {
		e = new(Entry)
	}
	e.Bind(d.rt)
	return e
}

// occupy admits e with work to do, or with none takes it out and recycles
// it, then sets the share's rate for the new occupancy and re-arms whoever's
// deadline that moved. The device must be advanced to now.
func (d *Device) occupy(e *Entry, work float64) {
	d.ps.Begin()
	if work > 0 {
		d.ps.Insert(e, work)
	} else {
		d.ps.Remove(e)
		d.free = append(d.free, e)
	}
	r := 1.0
	if k := len(d.ps.entries); float64(k) > d.cap {
		r = d.cap / float64(k)
	}
	d.ps.SetRate(r, slack)
	if work == 0 || d.ps.entries[0] != e {
		d.ps.Rearm() // an entering front is this task, which arms its own timer
	}
}

// advance brings progress and busy time up to now.
func (d *Device) advance() {
	now := d.rt.Now()
	if now <= d.ps.lastT {
		return
	}
	k := float64(len(d.ps.entries))
	if k > d.cap {
		k = d.cap
	}
	if k != d.anchorK {
		d.anchorB = d.busyIntegral
		d.anchorBT = d.ps.lastT
		d.anchorK = k
	}
	d.ps.Advance(now)
	d.busyIntegral = d.anchorB + d.anchorK*(now-d.anchorBT).Seconds()
}

// BusySeconds returns the cumulative full-speed work performed, in
// unit-seconds. Utilization over a window is Δbusy / (capacity · Δt).
func (d *Device) BusySeconds() float64 {
	d.advance() // progress included, so the two integrals share one clock
	return d.busyIntegral
}
