package chaos

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trace"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		script Script
		nodes  int
		ok     bool
	}{
		{"empty", Script{}, 0, true},
		{"crash-rejoin", CrashNode(3, 5*time.Second, 8*time.Second), 8, true},
		{"crash-forever", CrashNode(0, time.Second, 0), 4, true},
		{"crash-single-machine", CrashNode(0, time.Second, 0), 0, false},
		{"crash-out-of-range", CrashNode(8, time.Second, 0), 8, false},
		{"double-crash", Compose("", CrashNode(1, time.Second, 0), CrashNode(1, 2*time.Second, 0)), 4, false},
		{"join-without-crash", Script{Events: []Event{{At: time.Second, Kind: NodeJoin, Node: 1}}}, 4, false},
		{"join-before-crash-sorted", Script{Events: []Event{
			{At: 2 * time.Second, Kind: NodeCrash, Node: 1},
			{At: time.Second, Kind: NodeJoin, Node: 1},
		}}, 4, false},
		{"negative-time", Script{Events: []Event{{At: -time.Second, Kind: DiskDegrade, Factor: 2}}}, 0, false},
		{"link-flap", FlapLink(1, time.Second, 8, time.Second), 4, true},
		{"link-factor-below-one", Script{Events: []Event{{At: 0, Kind: LinkDegrade, Node: 0, Factor: 0.5}}}, 2, false},
		{"disk-on-single-machine", BrownoutDisk(time.Second, 8, time.Second), 0, true},
		{"stall-needs-duration", Script{Events: []Event{{Kind: WorkerStall, Factor: 2}}}, 0, false},
		{"preempt-resume", PreemptFor(time.Second, time.Second), 0, true},
		{"preempt-forever", PreemptFor(time.Second, 0), 0, true},
		{"preempt-multinode", PreemptFor(time.Second, time.Second), 4, false},
		{"double-preempt", Compose("", PreemptFor(time.Second, 0), PreemptFor(2*time.Second, 0)), 0, false},
		{"resume-alone", Script{Events: []Event{{At: time.Second, Kind: Resume}}}, 0, false},
		{"brownouts-back-to-back", Compose("", BrownoutDisk(time.Second, 8, time.Second), BrownoutDisk(2*time.Second, 4, time.Second)), 0, true},
		{"brownouts-overlapping", Compose("", BrownoutDisk(time.Second, 8, 2*time.Second), BrownoutDisk(2*time.Second, 4, 2*time.Second)), 0, false},
		{"disk-restore-alone", Script{Events: []Event{{At: time.Second, Kind: DiskRestore}}}, 4, false},
		{"flaps-on-two-links", Compose("", FlapLink(1, time.Second, 8, 2*time.Second), FlapLink(2, 2*time.Second, 4, 2*time.Second)), 4, true},
		{"flaps-overlapping", Compose("", FlapLink(1, time.Second, 8, 2*time.Second), FlapLink(1, 2*time.Second, 4, 2*time.Second)), 4, false},
		{"link-restore-alone", Script{Events: []Event{{At: time.Second, Kind: LinkRestore, Node: 1}}}, 4, false},
		{"stalls-overlapping", Compose("", StallWorkers(0, time.Second, 1, 3*time.Second), StallWorkers(0, 2*time.Second, 1, time.Second)), 0, true},
	}
	for _, tc := range cases {
		err := tc.script.Validate(tc.nodes)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestValidateServed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		script Script
		fleet  int
		ok     bool
	}{
		{"link-flap", FlapLink(1, time.Second, 8, time.Second), 2, true},
		{"link-outside-fleet", FlapLink(2, time.Second, 8, time.Second), 2, false},
		{"disk-brownout", BrownoutDisk(time.Second, 8, time.Second), 1, true},
		{"worker-stall", StallWorkers(0, time.Second, 2, time.Second), 1, false},
		{"preempt", PreemptFor(time.Second, time.Second), 1, false},
		{"crash", CrashNode(0, time.Second, 2*time.Second), 1, false},
	} {
		if err := tc.script.ValidateServed(tc.fleet); (err == nil) != tc.ok {
			t.Errorf("%s: ValidateServed(%d) = %v, want ok=%v", tc.name, tc.fleet, err, tc.ok)
		}
	}
}

func TestSortedIsStableAndNonMutating(t *testing.T) {
	s := Script{Events: []Event{
		{At: 2 * time.Second, Kind: DiskRestore},
		{At: time.Second, Kind: DiskDegrade, Factor: 2},
		{At: time.Second, Kind: LinkDegrade, Node: 1, Factor: 4},
	}}
	got := s.Sorted()
	if got[0].Kind != DiskDegrade || got[1].Kind != LinkDegrade || got[2].Kind != DiskRestore {
		t.Fatalf("sorted order wrong: %v", got)
	}
	if s.Events[0].Kind != DiskRestore {
		t.Fatal("Sorted mutated the script")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"node-crash", "link-flap", "disk-brownout", "worker-stall", "preempt-resume", "churn-storm"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("builtin scenario %q missing", name)
		}
		if s.Empty() {
			t.Fatalf("scenario %q is empty", name)
		}
		if s.Name == "" {
			t.Fatalf("scenario %q has no name", name)
		}
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Fatal("unknown scenario resolved")
	}
	// The acceptance scenario is exactly "node 3 crashes at 5s, rejoins at 8s".
	s, _ := ByName("node-crash")
	want := []Event{
		{At: 5 * time.Second, Kind: NodeCrash, Node: 3},
		{At: 8 * time.Second, Kind: NodeJoin, Node: 3},
	}
	if len(s.Events) != 2 || s.Events[0] != want[0] || s.Events[1] != want[1] {
		t.Fatalf("node-crash scenario = %v, want %v", s.Events, want)
	}
}

// TestEngineAppliesAtEventTimes: the controller's engine applies each event
// at the run's start plus its At, in order, and records it as scripted; a
// stall's window closes when its hogs drain.
func TestEngineAppliesAtEventTimes(t *testing.T) {
	k := simtime.NewVirtual()
	c := NewController(k, 0, 0, 0, 0)
	s := Compose("",
		BrownoutDisk(time.Second, 2, 2*time.Second),
		StallWorkers(0, 2*time.Second, 2, time.Second),
	)
	k.Run(func() {
		wg := simtime.NewWaitGroup(k)
		_ = k.Sleep(context.Background(), 10*time.Second)
		c.Start(k.Now(), s, Targets{WG: wg, CPUs: []*device.Device{device.New(k, "cpu", 1)}})
		_ = wg.Wait(context.Background())
	})
	got := c.Stats()
	want := []FaultStat{
		{Event: s.Events[0], AppliedAt: 11 * time.Second, ClearedAt: 13 * time.Second},
		// Two hogs share one core: each second of hog work takes two.
		{Event: s.Events[2], AppliedAt: 12 * time.Second, ClearedAt: 14 * time.Second},
	}
	got[1].ClearedAt = got[1].ClearedAt.Round(time.Millisecond)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("table:\n got %+v\nwant %+v", got, want)
	}
}

func TestEngineStopDropsPendingEvents(t *testing.T) {
	k := simtime.NewVirtual()
	c := NewController(k, 0, 0, 0, 0)
	k.Run(func() {
		wg := simtime.NewWaitGroup(k)
		c.Start(0, BrownoutDisk(time.Second, 2, time.Hour), Targets{WG: wg})
		_ = k.Sleep(context.Background(), 2*time.Second)
		c.Stop()
		_ = wg.Wait(context.Background())
	})
	if got := c.Stats(); len(got) != 1 || got[0].ClearedAt != 0 {
		t.Fatalf("table %+v, want one window, never cleared (restore dropped by Stop)", got)
	}
	var nilCtl *Controller
	nilCtl.Stop() // must not panic
}

// TestGateParksUntilResume: a consumer that reaches the gate inside a
// preemption parks until its Resume. The gate's stall reads live while the
// consumer is parked, the window closes on it, and the resume's recovery
// runs to the driver's next Progress.
func TestGateParksUntilResume(t *testing.T) {
	k := simtime.NewVirtual()
	c := NewController(k, 0, 0, 0, 1)
	k.Run(func() {
		ctx := context.Background()
		wg := simtime.NewWaitGroup(k)
		_ = k.Sleep(ctx, 5*time.Second)
		c.Start(k.Now(), PreemptFor(time.Second, 2*time.Second), Targets{WG: wg})
		wg.Go("consumer", func() {
			_ = k.Sleep(ctx, 2*time.Second)
			if err := c.Wait(ctx); err != nil {
				t.Errorf("Wait: %v", err)
			}
			if now := k.Now(); now != 8*time.Second {
				t.Errorf("the consumer left the gate at %v, want the resume at 8s", now)
			}
			_ = k.Sleep(ctx, 500*time.Millisecond)
			c.Step(0, k.Now())
		})
		_ = k.Sleep(ctx, 2500*time.Millisecond)
		if st := c.PreemptStall(); st != 500*time.Millisecond {
			t.Errorf("PreemptStall while parked = %v, want 500ms", st)
		}
		_ = wg.Wait(ctx)
		if st := c.PreemptStall(); st != time.Second {
			t.Errorf("PreemptStall = %v, want 1s", st)
		}
	})
	got := c.Stats()
	want := []FaultStat{
		{Event: Event{At: time.Second, Kind: Preempt}, AppliedAt: 6 * time.Second, ClearedAt: 8 * time.Second,
			StallDuring: time.Second},
		{Event: Event{At: 3 * time.Second, Kind: Resume}, AppliedAt: 8 * time.Second, Recovery: 500 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("table:\n got %+v\nwant %+v", got, want)
	}
}

// TestGateTerminalReturnsErrPreempted: a preemption with no resume left in
// the script fails every consumer at the gate, late arrivals included; the
// gate passes everyone before it.
func TestGateTerminalReturnsErrPreempted(t *testing.T) {
	k := simtime.NewVirtual()
	c := NewController(k, 0, 0, 0, 0)
	k.Run(func() {
		ctx := context.Background()
		wg := simtime.NewWaitGroup(k)
		c.Start(0, PreemptFor(time.Second, 0), Targets{WG: wg})
		if err := c.Wait(ctx); err != nil {
			t.Errorf("Wait before the preemption = %v", err)
		}
		_ = k.Sleep(ctx, 1500*time.Millisecond)
		if err := c.Wait(ctx); !errors.Is(err, ErrPreempted) {
			t.Errorf("Wait = %v, want ErrPreempted", err)
		}
		_ = wg.Wait(ctx)
		if err := c.Wait(ctx); !errors.Is(err, ErrPreempted) {
			t.Errorf("late Wait = %v, want ErrPreempted", err)
		}
		if st := c.PreemptStall(); st != 0 {
			t.Errorf("PreemptStall = %v, want 0: no consumer parked", st)
		}
	})
}

// TestFaultsTable drives the ledger the way its drivers do: windows keyed by
// (kind, node), the consumer waits recorded between open and close (a
// window is charged data, barrier and network waits, not downtime), an
// instant event whose recovery the next step closes, hogs that close their
// own window, each node's stall totals, and the spans each of them leaves.
func TestFaultsTable(t *testing.T) {
	k := simtime.NewVirtual()
	rec := trace.NewRecorder()
	if err := k.SetTrace(rec); err != nil {
		t.Fatal(err)
	}
	f := NewController(k, 4, 7, -1, 1)
	k.Run(func() {
		ctx := context.Background()
		wg := simtime.NewWaitGroup(k)
		f.t = Targets{WG: wg}
		cpu := device.New(k, "cpu", 2)
		_ = k.Sleep(ctx, time.Second)
		f.Open(Event{At: time.Second, Kind: LinkDegrade, Node: 1, Factor: 4}, 1)
		f.Open(Event{At: time.Second, Kind: LinkDegrade, Node: 2, Factor: 4}, 2)
		// Two shared cores, factor 1.5: three hogs of 2s each drain in 3s
		// (and the device's round-up nanosecond).
		f.stallWorkers(cpu, Event{At: time.Second, Kind: WorkerStall, Factor: 1.5, Duration: 2 * time.Second}, 0)
		_ = k.Sleep(ctx, time.Second)
		f.Stalled(1, DataStall, 0, 4, 1800*time.Millisecond, k.Now())
		f.Stalled(2, BarrierStall, 0, 4, 1900*time.Millisecond, k.Now())
		f.Stalled(3, Downtime, 0, 4, time.Second, k.Now())
		f.Close(LinkDegrade, 2)
		f.Close(LinkDegrade, 2) // closed already: no second window span
		f.Close(WorkerStall, 0) // only its hogs close a stall's window
		f.Recovering(Event{At: 2 * time.Second, Kind: NodeJoin, Node: 3}, 3)
		_ = k.Sleep(ctx, time.Minute)
		f.Step(0, k.Now())
		_ = wg.Wait(ctx)
	})
	got := f.Stats()
	got[2].ClearedAt = got[2].ClearedAt.Round(time.Millisecond)
	want := []FaultStat{
		{Event: got[0].Event, AppliedAt: time.Second}, // node 1's link: never restored
		{Event: got[1].Event, AppliedAt: time.Second, ClearedAt: 2 * time.Second, StallDuring: 300 * time.Millisecond},
		{Event: got[2].Event, AppliedAt: time.Second, ClearedAt: 4 * time.Second, StallDuring: 300 * time.Millisecond},
		{Event: got[3].Event, AppliedAt: 2 * time.Second, Recovery: time.Minute},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("table:\n got %+v\nwant %+v", got, want)
	}
	wantStalls := []Stalls{{}, {DataStall: 200 * time.Millisecond}, {BarrierStall: 100 * time.Millisecond}, {Downtime: time.Second}}
	run, nodes := f.Stalls()
	if !reflect.DeepEqual(nodes, wantStalls) || run != (Stalls{200 * time.Millisecond, 100 * time.Millisecond, 0, time.Second}) {
		t.Fatalf("stalls %+v by node %+v, want by node %+v", run, nodes, wantStalls)
	}
	if h := f.StepHist(); h.N() != 1 || h.QuantileDuration(0.5) < time.Minute {
		t.Fatalf("step histogram: %d intervals, median %v; want one of 62s", h.N(), h.QuantileDuration(0.5))
	}
	var spans []string
	for _, sp := range rec.Snapshot() {
		what := fmt.Sprintf("kind=%v", Kind(sp.Key))
		if sp.Stage != trace.StageFault && sp.Stage != trace.StageFaultWindow {
			what = fmt.Sprintf("key=%d seq=%d", sp.Key, sp.Seq)
		}
		spans = append(spans, fmt.Sprintf("%v %v-%v tenant=%d node=%d %s", sp.Stage, sp.Start,
			sp.End.Round(time.Millisecond), sp.Tenant, sp.Node, what))
	}
	wantSpans := []string{
		"fault 1s-1s tenant=7 node=0 kind=worker-stall",
		"fault 1s-1s tenant=7 node=1 kind=link-degrade",
		"fault 1s-1s tenant=7 node=2 kind=link-degrade",
		"downtime 1s-2s tenant=7 node=3 key=0 seq=4",
		"fault-window 1s-2s tenant=7 node=2 kind=link-degrade",
		"fault-window 1s-4s tenant=7 node=0 kind=worker-stall",
		"data-wait 1.8s-2s tenant=7 node=1 key=0 seq=4",
		"barrier-wait 1.9s-2s tenant=7 node=2 key=0 seq=4",
		"fault 2s-2s tenant=7 node=3 kind=node-join",
	}
	if !reflect.DeepEqual(spans, wantSpans) {
		t.Fatalf("spans:\n got %q\nwant %q", spans, wantSpans)
	}
}

// TestInstallDiskTimeline: Start writes the disk events, anchored at the
// run's start, onto every disk's slowdown timeline, skipping nil disks.
func TestInstallDiskTimeline(t *testing.T) {
	k := simtime.NewVirtual()
	disk := storage.NewDisk(k, "disk", 1e9, 1)
	k.Run(func() {
		ctx := context.Background()
		wg := simtime.NewWaitGroup(k)
		_ = k.Sleep(ctx, time.Second)
		NewController(k, 0, 0, 0, 0).Start(k.Now(), BrownoutDisk(time.Second, 4, time.Second),
			Targets{WG: wg, Disks: []*storage.Disk{nil, disk}})
		read := func() time.Duration {
			t0 := k.Now()
			_ = (&storage.Store{Disk: disk}).ReadSample(ctx, k, &data.Sample{RawBytes: 1e9})
			return (k.Now() - t0).Round(time.Millisecond)
		}
		if d := read(); d != time.Second {
			t.Errorf("read before the brownout took %v, want 1s", d)
		}
		if d := read(); d != 4*time.Second {
			t.Errorf("read inside the brownout took %v, want 4s", d)
		}
		if d := read(); d != time.Second {
			t.Errorf("read after the restore took %v, want 1s", d)
		}
		_ = wg.Wait(ctx)
	})
}
