package chaos

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/netsim"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trace"
)

// fuzzStep is the grid every fuzzed time sits on; a Stop lands half a step
// off it, so no event ties with it.
const fuzzStep = 250 * time.Millisecond

// fuzzCPUCores is each node's CPU capacity in the fuzzed runs.
const fuzzCPUCores = 2

// chaosCase is one decoded fuzz input: a run shape, the instant the
// controller starts, the instant it is stopped (-1: never) and the script.
type chaosCase struct {
	nodes       int
	start, stop time.Duration
	script      Script
}

// decodeChaosCase reads a run shape from the first three bytes (nodes 0..3,
// 0 being one machine; the start; the stop, 31 for none) and then one event
// from every four: time, kind, node, and a byte holding the factor (low two
// bits) and a stall's duration (next two). At most twelve events.
func decodeChaosCase(data []byte) (chaosCase, bool) {
	if len(data) < 3 {
		return chaosCase{}, false
	}
	c := chaosCase{
		nodes: int(data[0] % 4),
		start: time.Duration(data[1]%8) * fuzzStep,
		stop:  -1,
	}
	if s := data[2] % 32; s != 31 {
		c.stop = c.start + time.Duration(s)*fuzzStep + fuzzStep/2
	}
	for b := data[3:]; len(b) >= 4 && len(c.script.Events) < 12; b = b[4:] {
		c.script.Events = append(c.script.Events, Event{
			At:       time.Duration(b[0]%16) * fuzzStep,
			Kind:     Kind(b[1] % 9),
			Node:     int(b[2] % 4),
			Factor:   float64(1 + b[3]%4),
			Duration: time.Duration(b[3]/4%4) * fuzzStep,
		})
	}
	return c, true
}

// setBandwidth is one call a link event made.
type setBandwidth struct {
	at        time.Duration
	endpoint  int
	bandwidth float64
}

// recordingLinks forwards to the fabric and logs every call.
type recordingLinks struct {
	rt    *simtime.Virtual
	fab   *netsim.Fabric
	calls []setBandwidth
}

func (l *recordingLinks) SetBandwidth(ep int, bw float64) {
	l.calls = append(l.calls, setBandwidth{l.rt.Now(), ep, bw})
	l.fab.SetBandwidth(ep, bw)
}

// FuzzChaosScript holds a Controller to a model of the script on generated
// shapes and scripts that Validate accepts: each event is applied once, at
// start + At, in (At, script) order, recorded as scripted, and never after
// Stop; each restore clears the window its degrade opened (and a resume its
// preemption's); each stall's window ends when its own hogs drain, under
// processor sharing with whatever else stalls the same CPU; and every window
// leaves its span.
func FuzzChaosScript(f *testing.F) {
	for _, seed := range []string{
		"\x00\x00\x1f\x04\x04\x00\x02\x08\x05\x00\x00",                                 // a disk brownout on one machine
		"\x00\x00\x1f\x00\x04\x00\x00\x00\x05\x00\x00",                                 // a brownout opened and cleared at time 0
		"\x02\x00\x1f\x04\x02\x01\x03\x0c\x03\x01\x00",                                 // a link flap on node 1 of 2
		"\x00\x00\x1f\x04\x06\x00\x0d\x05\x06\x00\x04",                                 // two overlapping stalls on one CPU
		"\x03\x00\x1f\x04\x06\x00\x0c\x08\x06\x01\x04\x05\x06\x00\x04",                 // stalls on nodes 0 and 1, one overlapping
		"\x00\x00\x1f\x04\x07\x00\x00\x0c\x08\x00\x00",                                 // a preemption and its resume
		"\x00\x00\x1f\x04\x07\x00\x00",                                                 // a preemption with no resume
		"\x00\x06\x1f\x04\x04\x00\x02\x08\x05\x00\x00",                                 // a brownout on a run that starts late
		"\x00\x00\x05\x04\x04\x00\x02\x08\x05\x00\x00",                                 // stopped inside the brownout
		"\x02\x00\x1f\x02\x00\x01\x00\x04\x02\x00\x03\x06\x03\x00\x00\x08\x01\x01\x00", // a crash and join among a flap
		"\x01\x02\x03\x00\x04\x00\x01\x00\x06\x00\x06\x04\x05\x00\x00\x08\x02\x00\x03", // a late start, a stall over a brownout, a stop
		"\x02\x03\x1f\x04\x02\x01\x03\x0c\x03\x01\x00",                                 // a link flap on a late-starting run
		"\x00\x05\x1f\x04\x07\x00\x00\x0c\x08\x00\x00",                                 // a preemption and its resume on a late-starting run
		"\x00\x04\x05\x04\x06\x00\x0d\x05\x06\x00\x04",                                 // overlapping stalls on a late-starting run, stopped
		"\x02\x07\x1f\x02\x00\x01\x00\x04\x02\x00\x03\x06\x03\x00\x00\x08\x01\x01\x00", // a crash and join among a flap, started late
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeChaosCase(data)
		if !ok || c.script.Validate(c.nodes) != nil {
			return
		}
		checkController(t, c)
	})
}

func checkController(t *testing.T, c chaosCase) {
	const bandwidth = 1e9
	k := simtime.NewVirtual()
	rec := trace.NewRecorder()
	if err := k.SetTrace(rec); err != nil {
		t.Fatal(err)
	}
	ctl := NewController(k, c.nodes, 0, -1, 0)
	var links *recordingLinks
	var afterStop int
	k.Run(func() {
		ctx := context.Background()
		wg := simtime.NewWaitGroup(k)
		n := max(c.nodes, 1)
		cpus := make([]*device.Device, n)
		nics := make([]NIC, n)
		for i := range cpus {
			cpus[i] = device.New(k, "cpu", fuzzCPUCores)
			nics[i] = NIC{Endpoint: i, Bandwidth: bandwidth}
		}
		links = &recordingLinks{rt: k, fab: netsim.New(k, netsim.Config{Endpoints: n, Bandwidth: bandwidth})}
		_ = k.Sleep(ctx, c.start)
		ctl.Start(k.Now(), c.script, Targets{WG: wg, Disks: []*storage.Disk{storage.NewDisk(k, "disk", 1e9, 1)},
			CPUs: cpus, Links: links, NICs: nics})
		if c.stop >= 0 {
			_ = k.Sleep(ctx, c.stop-c.start)
			ctl.Stop()
			afterStop = len(ctl.Stats())
			// Past every scripted time: a stopped controller applies nothing.
			_ = k.Sleep(ctx, 16*fuzzStep)
			if n := len(ctl.Stats()); n != afterStop {
				t.Errorf("%d events applied after Stop", n-afterStop)
			}
		}
		_ = wg.Wait(ctx)
	})
	k.Recycle()

	// The model: which events apply and when, the table they leave, and the
	// bandwidth each link event sets.
	var want []FaultStat
	var cleared []bool // ClearedAt 0 is also "never", so the model says which cleared
	var wantLinks []setBandwidth
	var stalls []modelStall
	open := map[[2]int]int{} // Event.window → index into want
	for _, ev := range c.script.Sorted() {
		at := c.start + ev.At
		if ev.Kind.Membership() || (c.stop >= 0 && at > c.stop) {
			continue
		}
		switch ev.Kind {
		case LinkDegrade, DiskDegrade, Preempt:
			w, _, _ := ev.window()
			open[w] = len(want)
			want, cleared = append(want, FaultStat{Event: ev, AppliedAt: at}), append(cleared, false)
		case LinkRestore, DiskRestore, Resume:
			w, _, _ := ev.window()
			i, ok := open[w]
			if !ok {
				t.Fatalf("model: %v closes no window", ev)
			}
			delete(open, w)
			want[i].ClearedAt, cleared[i] = at, true
			if ev.Kind == Resume {
				// No consumer parks at the gate, so the window has no stall.
				want, cleared = append(want, FaultStat{Event: ev, AppliedAt: at}), append(cleared, false)
			}
		case WorkerStall:
			cpu := 0
			if c.nodes > 0 {
				cpu = ev.Node
			}
			stalls = append(stalls, modelStall{idx: len(want), cpu: cpu, at: at,
				hogs: max(1, int(math.Ceil(ev.Factor*fuzzCPUCores))), work: ev.Duration})
			want, cleared = append(want, FaultStat{Event: ev, AppliedAt: at}), append(cleared, true)
		}
		switch ev.Kind {
		case LinkDegrade:
			wantLinks = append(wantLinks, setBandwidth{at, ev.Node, bandwidth / ev.Factor})
		case LinkRestore:
			wantLinks = append(wantLinks, setBandwidth{at, ev.Node, bandwidth})
		}
	}
	drains := drainTimes(stalls)

	got := ctl.Stats()
	if len(got) != len(want) {
		t.Fatalf("%d faults applied, want %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
	}
	for i, s := range stalls {
		// The device rounds each completion up to a whole nanosecond.
		if d := got[s.idx].ClearedAt - drains[i]; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("stall %v: window cleared at %v, its hogs drain at %v", got[s.idx].Event, got[s.idx].ClearedAt, drains[i])
		}
		want[s.idx].ClearedAt = got[s.idx].ClearedAt
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if len(links.calls) != len(wantLinks) {
		t.Fatalf("link calls %+v, want %+v", links.calls, wantLinks)
	}
	for i := range wantLinks {
		if links.calls[i] != wantLinks[i] {
			t.Errorf("link call %d: %+v, want %+v", i, links.calls[i], wantLinks[i])
		}
	}

	// One fault span per entry, and one window span per cleared window.
	type span struct {
		stage      trace.Stage
		start, end time.Duration
		key        int64
	}
	var gotSpans, wantSpans []span
	for _, sp := range rec.Snapshot() {
		if sp.Stage == trace.StageFault || sp.Stage == trace.StageFaultWindow {
			gotSpans = append(gotSpans, span{sp.Stage, sp.Start, sp.End, sp.Key})
		}
	}
	for i, fs := range got {
		wantSpans = append(wantSpans, span{trace.StageFault, fs.AppliedAt, fs.AppliedAt, int64(fs.Event.Kind)})
		if cleared[i] {
			wantSpans = append(wantSpans, span{trace.StageFaultWindow, fs.AppliedAt, fs.ClearedAt, int64(fs.Event.Kind)})
		}
	}
	bySpan := func(s []span) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := s[i], s[j]
			if a.start != b.start {
				return a.start < b.start
			}
			if a.end != b.end {
				return a.end < b.end
			}
			if a.stage != b.stage {
				return a.stage < b.stage
			}
			return a.key < b.key
		}
	}
	sort.Slice(gotSpans, bySpan(gotSpans))
	sort.Slice(wantSpans, bySpan(wantSpans))
	if len(gotSpans) != len(wantSpans) {
		t.Fatalf("spans %+v, want %+v", gotSpans, wantSpans)
	}
	for i := range wantSpans {
		if gotSpans[i] != wantSpans[i] {
			t.Errorf("span %d: %+v, want %+v", i, gotSpans[i], wantSpans[i])
		}
	}
}

// modelStall is one worker stall in the processor-sharing model: hogs jobs
// of work each, arriving together on cpu at at.
type modelStall struct {
	idx  int // its entry in the fault table
	cpu  int
	at   time.Duration
	hogs int
	work time.Duration
}

// drainTimes returns when each stall's last hog finishes. On each CPU every
// running hog progresses at min(1, cores/k) with k hogs running, the
// device's rate rule; a stall's hogs arrive together with equal work, so
// they finish together.
func drainTimes(stalls []modelStall) []time.Duration {
	out := make([]time.Duration, len(stalls))
	cpus := map[int]bool{}
	for _, s := range stalls {
		cpus[s.cpu] = true
	}
	for cpu := range cpus {
		var idx []int // this CPU's stalls, in arrival order
		for i, s := range stalls {
			if s.cpu == cpu {
				idx = append(idx, i)
			}
		}
		left := map[int]float64{} // running stall → work left per hog, in seconds
		now := stalls[idx[0]].at.Seconds()
		next := 0
		for next < len(idx) || len(left) > 0 {
			jobs := 0
			for i := range left {
				jobs += stalls[i].hogs
			}
			rate := 1.0
			if jobs > fuzzCPUCores {
				rate = fuzzCPUCores / float64(jobs)
			}
			// The next change: an arrival, or the stall with least work
			// left draining.
			step, first := math.Inf(1), -1
			for i, w := range left {
				if d := w / rate; d < step || (d == step && i < first) {
					step, first = d, i
				}
			}
			if next < len(idx) {
				if d := stalls[idx[next]].at.Seconds() - now; d <= step {
					for i := range left {
						left[i] -= d * rate
					}
					now += d
					left[idx[next]] = stalls[idx[next]].work.Seconds()
					next++
					continue
				}
			}
			for i := range left {
				left[i] -= step * rate
			}
			now += step
			out[first] = time.Duration(math.Round(now * 1e9))
			delete(left, first)
			for i, w := range left {
				if w <= 1e-12 {
					out[i] = out[first]
					delete(left, i)
				}
			}
		}
	}
	return out
}
