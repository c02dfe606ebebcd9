package chaos

import (
	"context"
	"math"
	"time"

	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trace"
)

// Faults is a run's fault-window table: one FaultStat per applied event, in
// application order, and the windows still open, keyed by (kind, node). It is
// the one implementation under the single-machine driver (trainer.ChaosState)
// and the elastic multi-node one (distributed's controller), which keep only
// pausing and post-resume recovery, and membership and per-node recovery.
// Task-only, like the kernel it stamps from; Stats is for after the run.
type Faults struct {
	rt     *simtime.Virtual
	tenant int32
	// stall, when set, is the run's cumulative consumer stall; a window is
	// attributed the difference between its close and its open.
	stall func() time.Duration

	stats []FaultStat
	open  map[winKey]openWin
}

type winKey struct {
	kind Kind
	node int
}

type openWin struct {
	idx   int // index into stats
	stall time.Duration
}

// NewFaults returns an empty table stamping from rt and recording its
// StageFault / StageFaultWindow spans under tenant into rt's recorder, if it
// has one. stall may be nil: windows then carry no StallDuring.
func NewFaults(rt *simtime.Virtual, tenant int32, stall func() time.Duration) *Faults {
	return &Faults{rt: rt, tenant: tenant, stall: stall}
}

// Instant records ev applied now, with its StageFault span, and opens no
// window (Resume, NodeJoin). It returns the stat's index, for the Recovery the
// driver measures later (At).
func (f *Faults) Instant(ev Event, node int) int {
	now := f.rt.Now()
	f.stats = append(f.stats, FaultStat{Event: ev, AppliedAt: now})
	f.rt.Trace().Instant(trace.Span{Stage: trace.StageFault, Tenant: f.tenant,
		Node: int32(node), Key: int64(ev.Kind)}, now)
	return len(f.stats) - 1
}

// Open records ev taking effect now and opens its window under (ev.Kind,
// node); node also labels the spans (-1: the substrate as a whole).
func (f *Faults) Open(ev Event, node int) {
	w := openWin{idx: f.Instant(ev, node)}
	if f.stall != nil {
		w.stall = f.stall()
	}
	if f.open == nil {
		f.open = map[winKey]openWin{}
	}
	f.open[winKey{ev.Kind, node}] = w
}

// Close clears the window kind opened on node, stamping ClearedAt, the stall
// accumulated since Open and the StageFaultWindow span, and returns its stat
// (valid until the next Open or Instant); nil when no such window is open.
func (f *Faults) Close(kind Kind, node int) *FaultStat {
	w, ok := f.open[winKey{kind, node}]
	if !ok {
		return nil
	}
	delete(f.open, winKey{kind, node})
	fs := &f.stats[w.idx]
	fs.ClearedAt = f.rt.Now()
	if f.stall != nil {
		fs.StallDuring = f.stall() - w.stall
	}
	f.rt.Trace().Record(trace.Span{Start: fs.AppliedAt, End: fs.ClearedAt, Stage: trace.StageFaultWindow,
		Tenant: f.tenant, Node: int32(node), Key: int64(kind)})
	return fs
}

// At returns the i-th stat for the driver to complete; valid until the next
// Open or Instant.
func (f *Faults) At(i int) *FaultStat { return &f.stats[i] }

// Stats returns a copy of the table (nil when nothing was applied).
func (f *Faults) Stats() []FaultStat { return append([]FaultStat(nil), f.stats...) }

// StallWorkers applies a WorkerStall to cpu: the window opens now,
// ceil(Factor × capacity) hog tasks each occupy a core for ev.Duration, and a
// closer task of wg clears the window when the last hog drains. The hogs
// share one body, so a stall costs one closure however many cores it takes.
func (f *Faults) StallWorkers(wg *simtime.WaitGroup, cpu *device.Device, ev Event, node int) {
	f.Open(ev, node)
	n := max(1, int(math.Ceil(ev.Factor*cpu.Capacity())))
	hogs := simtime.NewWaitGroup(f.rt)
	hog := func() { _ = cpu.Run(context.Background(), ev.Duration) }
	for i := 0; i < n; i++ {
		hogs.Go("chaos-hog", hog)
	}
	wg.Go("chaos-hog-closer", func() {
		_ = hogs.Wait(context.Background())
		f.Close(WorkerStall, node)
	})
}

// InstallDiskTimeline writes the DiskDegrade/DiskRestore events onto the
// disks' slowdown timelines (storage.Disk.ScheduleSlowdown: the one
// disk-degradation mechanism). A timeline, not an engine task, so a script
// installed on an idle kernel — Serve's — does not drag its clock; drivers
// that keep a fault table replay the same events for the windows. Nil disks
// are skipped.
func InstallDiskTimeline(events []Event, disks ...*storage.Disk) {
	for _, d := range disks {
		if d == nil {
			continue
		}
		for _, ev := range events {
			switch ev.Kind {
			case DiskDegrade:
				d.ScheduleSlowdown(ev.At, ev.Factor)
			case DiskRestore:
				d.ScheduleSlowdown(ev.At, 1)
			}
		}
	}
}
