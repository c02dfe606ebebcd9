package minato

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMultiNodeCrashRejoinScenario is the ISSUE's acceptance scenario at
// the public surface: an 8-node run with the registered "node-crash"
// scenario (node 3 crashes at t=5s, rejoins at t=8s) completes its full
// budget, measures a recovery time, and reproduces bit-identically.
func TestMultiNodeCrashRejoinScenario(t *testing.T) {
	run := func() *Report {
		rep, err := Train(mnWorkload(15),
			WithNodes(8), WithGPUs(1), WithChaosScenario("node-crash"))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.Steps != 15 {
		t.Fatalf("steps = %d, want the full 15-round budget", rep.Steps)
	}
	if rep.PerNode[3].Downtime == 0 {
		t.Fatal("crashed node recorded no downtime")
	}
	if len(rep.Faults) != 2 {
		t.Fatalf("faults = %+v, want crash+join", rep.Faults)
	}
	if rep.Faults[0].Event.Kind != ChaosNodeCrash || rep.Faults[1].Event.Kind != ChaosNodeJoin {
		t.Fatalf("fault kinds = %v, %v", rep.Faults[0].Event, rep.Faults[1].Event)
	}
	if rep.RecoveryTime() <= 0 {
		t.Fatalf("RecoveryTime() = %v, want > 0", rep.RecoveryTime())
	}
	if rep.StepP50 <= 0 || rep.StepP99 < rep.StepP50 {
		t.Fatalf("step quantiles p50=%v p99=%v", rep.StepP50, rep.StepP99)
	}
	if rep2 := run(); !reflect.DeepEqual(rep, rep2) {
		t.Fatalf("chaos scenario not deterministic:\n%+v\n%+v", rep, rep2)
	}
}

// A composed single-machine script (disk brownout + worker stall) is
// recorded as fault windows with exact application times, and the run
// stays bit-deterministic.
func TestTrainChaosFaultWindows(t *testing.T) {
	script := ComposeChaos("mixed",
		BrownoutDisk(5*time.Second, 8, 10*time.Second),
		StallWorkers(0, 5*time.Second, 2, 5*time.Second),
	)
	run := func() *Report {
		rep, err := Train(mnWorkload(30), WithGPUs(1), WithChaos(script))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.Batches != 30 {
		t.Fatalf("delivered %d batches under chaos, want 30", rep.Batches)
	}
	var disk, stall *FaultStat
	for i := range rep.Faults {
		switch rep.Faults[i].Event.Kind {
		case ChaosDiskDegrade:
			disk = &rep.Faults[i]
		case ChaosWorkerStall:
			stall = &rep.Faults[i]
		}
	}
	if disk == nil || stall == nil {
		t.Fatalf("faults = %+v, want disk-degrade and worker-stall windows", rep.Faults)
	}
	// Continuous events apply at exactly their scripted times.
	if disk.AppliedAt != 5*time.Second || disk.ClearedAt != 15*time.Second {
		t.Fatalf("disk window = [%v, %v], want [5s, 15s]", disk.AppliedAt, disk.ClearedAt)
	}
	if rep.StepP50 <= 0 || rep.StepP99 < rep.StepP50 {
		t.Fatalf("step quantiles p50=%v p99=%v", rep.StepP50, rep.StepP99)
	}
	if rep2 := run(); !reflect.DeepEqual(rep, rep2) {
		t.Fatal("single-machine chaos run not deterministic")
	}
	// The baseline (no chaos) is strictly faster and records no faults —
	// the injection path costs nothing when the script is empty.
	base, err := Train(mnWorkload(30), WithGPUs(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Faults) != 0 || base.PreemptStall != 0 {
		t.Fatalf("no-chaos run carries fault state: %+v", base.Faults)
	}
	if rep.TrainTime <= base.TrainTime {
		t.Fatalf("chaotic run (%v) not slower than baseline (%v)", rep.TrainTime, base.TrainTime)
	}
}

// A preempt/resume pair parks the consumers for the window, attributes the
// stall, and measures recovery (resume to the next delivered batch).
func TestTrainPreemptResume(t *testing.T) {
	base, err := Train(mnWorkload(20), WithGPUs(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Train(mnWorkload(20), WithGPUs(1),
		WithChaos(PreemptFor(5*time.Second, 4*time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != base.Batches {
		t.Fatalf("preempted run delivered %d batches, baseline %d", rep.Batches, base.Batches)
	}
	if rep.PreemptStall <= 0 {
		t.Fatal("no preemption stall attributed")
	}
	if rep.RecoveryTime() <= 0 {
		t.Fatalf("RecoveryTime() = %v, want > 0 after resume", rep.RecoveryTime())
	}
	// The 4-second pause stretches the run by at least most of its window.
	if rep.TrainTime < base.TrainTime+3*time.Second {
		t.Fatalf("preempted run (%v) not clearly slower than baseline (%v)", rep.TrainTime, base.TrainTime)
	}
}

// A terminal preemption (no resume scheduled) ends the run with
// ErrPreempted.
func TestTrainTerminalPreempt(t *testing.T) {
	_, err := Train(mnWorkload(20), WithGPUs(1),
		WithChaos(PreemptFor(5*time.Second, 0)))
	if !errors.Is(err, ErrPreempted) {
		t.Fatalf("err = %v, want ErrPreempted", err)
	}
}

// TestCheckpointResumeContinuesExactly drives the full preempt → checkpoint
// → restore cycle through the streaming API: a terminally preempted session
// ends with ErrPreempted mid-budget, its checkpoint records exact
// epoch/step progress, and the resumed session delivers precisely the
// remaining draws — the two runs' sample sequences concatenate to the
// uninterrupted run's, and the restore records a measured recovery time.
func TestCheckpointResumeContinuesExactly(t *testing.T) {
	const total, batch = 40, 8
	open := func(opts ...Option) *Session {
		t.Helper()
		all := append([]Option{
			WithPipeline(flatPipeline(2 * time.Millisecond)),
			WithBatchSize(batch),
			WithIterations(total),
			WithLoader("pytorch"), // strict delivery order: sample-exact restore
		}, opts...)
		sess, err := Open(sessionDataset{n: 256}, all...)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}

	// The uninterrupted run's sample order is the reference.
	var want []int64
	full := open()
	for b, err := range full.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Samples {
			want = append(want, s.OriginalOrder)
		}
	}
	if _, err := full.Close(); err != nil {
		t.Fatal(err)
	}

	// Preempt terminally mid-stream.
	sess := open(WithChaos(PreemptFor(40*time.Millisecond, 0)))
	var got []int64
	var streamErr error
	n1 := 0
	for b, err := range sess.Batches(context.Background()) {
		if err != nil {
			streamErr = err
			break
		}
		n1++
		for _, s := range b.Samples {
			got = append(got, s.OriginalOrder)
		}
	}
	if !errors.Is(streamErr, ErrPreempted) {
		t.Fatalf("stream error = %v, want ErrPreempted", streamErr)
	}
	if n1 == 0 || n1 >= total {
		t.Fatalf("preemption landed at batch %d of %d, want mid-stream", n1, total)
	}

	ck, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); !errors.Is(err, ErrPreempted) {
		t.Fatalf("Close error = %v, want ErrPreempted", err)
	}
	bpe := 256 / batch
	if ck.Batches() != n1 || ck.Remaining() != total-n1 {
		t.Fatalf("checkpoint progress %d/%d remaining, want %d/%d",
			ck.Batches(), ck.Remaining(), n1, total-n1)
	}
	if ck.Epoch() != n1/bpe || ck.Step() != n1%bpe {
		t.Fatalf("checkpoint at epoch %d step %d, want %d/%d",
			ck.Epoch(), ck.Step(), n1/bpe, n1%bpe)
	}

	resumed, err := Resume(ck)
	if err != nil {
		t.Fatal(err)
	}
	n2 := 0
	for b, err := range resumed.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n2++
		for _, s := range b.Samples {
			got = append(got, s.OriginalOrder)
		}
	}
	if n1+n2 != total {
		t.Fatalf("batch counts %d + %d do not sum to the original budget %d", n1, n2, total)
	}
	rep, err := resumed.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoveryTime() <= 0 {
		t.Fatalf("resumed report RecoveryTime() = %v, want > 0", rep.RecoveryTime())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored stream is not the uninterrupted stream: %d vs %d draws", len(got), len(want))
	}
	// The checkpoint is consumed.
	if _, err := Resume(ck); err == nil || !strings.Contains(err.Error(), "consumed") {
		t.Fatalf("second Resume = %v, want already-consumed error", err)
	}
}

// A checkpoint taken on a materialized-cache session restores against the
// still-warm cache: the resumed session's repeat draws hit instead of
// refilling.
func TestCheckpointKeepsCachesWarm(t *testing.T) {
	sess, err := Open(sessionDataset{n: 64},
		WithPipeline(flatPipeline(2*time.Millisecond)),
		WithBatchSize(8),
		WithEpochs(3),
		WithMaterializedCache(32<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Stream past the first epoch so every sample is materialized, then
	// break out (abandoning the rest) and checkpoint.
	n := 0
	for _, err := range sess.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 10 {
			break
		}
	}
	ck, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if ck.MatCache().Entries == 0 {
		t.Fatal("checkpoint sees no warm materialized entries")
	}
	resumed, err := Resume(ck)
	if err != nil {
		t.Fatal(err)
	}
	rep := drain(t, resumed)
	if rep.Batches != int64(ck.Remaining()) {
		t.Fatalf("resumed session delivered %d batches, want %d", rep.Batches, ck.Remaining())
	}
	// Epochs 2 and 3 of the resumed stream re-draw materialized samples.
	if rep.MatCacheStats.Hits == 0 {
		t.Fatal("resumed session never hit the warm cache")
	}
}

// Resume pins the stream identity: options that would change what is
// delivered are rejected, tenancy options are accepted.
func TestResumePinsStreamIdentity(t *testing.T) {
	mkCheckpoint := func() *Checkpoint {
		t.Helper()
		sess, err := Open(sessionDataset{n: 64},
			WithPipeline(flatPipeline(time.Millisecond)),
			WithBatchSize(8), WithIterations(16))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, err := range sess.Batches(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			if n++; n == 4 {
				break
			}
		}
		ck, err := sess.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		return ck
	}

	ck := mkCheckpoint()
	defer ck.Close()
	rejected := []struct {
		name string
		opt  Option
	}{
		{"pipeline", WithPipeline(flatPipeline(time.Millisecond))},
		{"batch size", WithBatchSize(16)},
		{"loader", WithLoader("pytorch")},
		{"iterations", WithIterations(5)},
		{"epochs", WithEpochs(2)},
		{"seed", WithSeed(2)},
	}
	for _, tc := range rejected {
		if _, err := Resume(ck, tc.opt); err == nil || !strings.Contains(err.Error(), "pinned") {
			t.Fatalf("Resume with %s = %v, want pinned-by-checkpoint error", tc.name, err)
		}
		var ce *ConfigError
		if _, err := Resume(ck, tc.opt); !errors.As(err, &ce) {
			t.Fatalf("Resume with %s is not a *ConfigError: %v", tc.name, err)
		}
	}
	if _, err := Resume(nil); err == nil || !strings.Contains(err.Error(), "nil checkpoint") {
		t.Fatalf("Resume(nil) = %v", err)
	}

	// A failed Resume does not consume the checkpoint; a successful one may
	// carry a new chaos script and priority.
	resumed, err := Resume(ck, WithPriority(2), WithChaos(BrownoutDisk(time.Millisecond, 4, time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	if rep := drain(t, resumed); rep.Batches != 12 {
		t.Fatalf("resumed %d batches, want 12", rep.Batches)
	}

	// A fully delivered session has nothing to resume.
	done, err := Open(sessionDataset{n: 64}, WithBatchSize(8), WithIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range done.Batches(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
	}
	ck2, err := done.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := done.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(ck2); err == nil || !strings.Contains(err.Error(), "no remaining budget") {
		t.Fatalf("Resume of a completed session = %v, want no-remaining-budget error", err)
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}
}

// Chaos misconfiguration is a *ConfigError at configuration time, never a
// silent no-op.
func TestChaosConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"unknown scenario", func() error {
			_, err := Train(workloadNamed("speech-3s", 1), WithIterations(5), WithChaosScenario("nope"))
			return err
		}, "unknown scenario"},
		{"script and scenario", func() error {
			_, err := Train(workloadNamed("speech-3s", 1), WithIterations(5),
				WithChaos(BrownoutDisk(time.Second, 2, time.Second)), WithChaosScenario("disk-brownout"))
			return err
		}, "mutually exclusive"},
		{"node events on a single machine", func() error {
			_, err := Train(workloadNamed("speech-3s", 1), WithIterations(5),
				WithChaos(CrashNode(0, time.Second, 2*time.Second)))
			return err
		}, "multi-node"},
		{"preempt on a multi-node job", func() error {
			_, err := Train(mnWorkload(5), WithNodes(2),
				WithChaos(PreemptFor(time.Second, time.Second)))
			return err
		}, "preemption"},
		{"node outside the cluster", func() error {
			_, err := Train(mnWorkload(5), WithNodes(2),
				WithChaos(CrashNode(7, time.Second, 2*time.Second)))
			return err
		}, "outside cluster"},
		{"stall without duration", func() error {
			_, err := Train(workloadNamed("speech-3s", 1), WithIterations(5),
				WithChaos(StallWorkers(0, time.Second, 2, 0)))
			return err
		}, "Duration"},
		{"chaos on Open", func() error {
			_, err := Open(sessionDataset{n: 64},
				WithChaos(FlapLink(0, time.Second, 2, time.Second)))
			return err
		}, "multi-node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("misconfigured chaos accepted")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *ConfigError", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// The scenario registry round-trips custom entries like the loader and
// workload registries do.
// registerBlip registers TestChaosScenarioRegistry's scenario once per
// process: the registry panics on a duplicate, and CI runs -count=5.
var registerBlip = sync.OnceFunc(func() {
	RegisterChaosScenario("test-blip", func() ChaosScript {
		return BrownoutDisk(time.Second, 2, time.Second)
	})
})

func TestChaosScenarioRegistry(t *testing.T) {
	registerBlip()
	s, ok := ChaosScenarioByName("test-blip")
	if !ok || len(s.Events) != 2 {
		t.Fatalf("registered scenario not returned: %+v ok=%v", s, ok)
	}
	found := false
	for _, n := range ChaosScenarios() {
		if n == "test-blip" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ChaosScenarios() = %v, missing test-blip", ChaosScenarios())
	}
	for _, builtin := range []string{"node-crash", "link-flap", "disk-brownout", "worker-stall", "preempt-resume", "churn-storm"} {
		if _, ok := ChaosScenarioByName(builtin); !ok {
			t.Fatalf("built-in scenario %q not registered", builtin)
		}
	}
	// Like RegisterLoader and RegisterWorkload, an empty or taken name is a
	// programming error, not a silent replacement.
	for _, name := range []string{"", "test-blip", "node-crash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterChaosScenario(%q) did not panic", name)
				}
			}()
			RegisterChaosScenario(name, func() ChaosScript { return ChaosScript{} })
		}()
	}
	if s, _ := ChaosScenarioByName("test-blip"); len(s.Events) != 2 {
		t.Errorf("a refused registration replaced test-blip: %+v", s)
	}
}

// TestClusterChaosHammer is the -race satellite: 16 tenants share one
// materialized cache while staggered chaos scripts preempt/resume their
// sessions and brown out the disk. Every tenant must still deliver its full
// budget (a stranded single-flight fill claim would park a waiter forever),
// and the cache must stay serviceable afterwards.
func TestClusterChaosHammer(t *testing.T) {
	const tenants = 16
	cl, err := NewCluster(
		WithEnv(EnvConfig{Cores: 16}),
		WithMaxSessions(tenants),
		WithMaterializedCache(32<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		script := ShiftChaos(ComposeChaos(fmt.Sprintf("churn-%d", i),
			PreemptFor(2*time.Millisecond, 2*time.Millisecond),
			BrownoutDisk(time.Millisecond, 4, 3*time.Millisecond),
		), time.Duration(i)*time.Millisecond)
		sess, err := cl.Open(namedDataset{space: "chaos-hammer", n: 64},
			WithPipeline(flatPipeline(time.Millisecond)),
			WithBatchSize(8),
			WithIterations(12),
			WithChaos(script),
		)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, sess *Session) {
			defer wg.Done()
			n := 0
			for _, err := range sess.Batches(context.Background()) {
				if err != nil {
					t.Errorf("tenant %d: %v", i, err)
					return
				}
				n++
			}
			if n != 12 {
				t.Errorf("tenant %d delivered %d batches under churn, want 12", i, n)
				return
			}
			if _, err := sess.Close(); err != nil {
				t.Errorf("tenant %d close: %v", i, err)
			}
		}(i, sess)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// No stranded fill claims: a fresh tenant over the same key space must
	// stream entirely from the warm cache without blocking on a dead
	// leader's claim.
	after := drain(t, openTenant(t, cl, "chaos-hammer", 64,
		WithBatchSize(8), WithIterations(8)))
	if after.Batches != 8 {
		t.Fatalf("post-churn tenant delivered %d batches, want 8", after.Batches)
	}
	if after.MatCacheStats.Hits == 0 {
		t.Fatal("post-churn tenant found no warm cache entries")
	}
}

// Multi-straggler and multi-degraded-link topologies (the slice form)
// validate their entries and keep the single-fault sugar working.
func TestTopologyFaultSlices(t *testing.T) {
	rep, err := Train(mnWorkload(8),
		WithTopology(Topology{
			Nodes:      4,
			Stragglers: []NodeFault{{Node: 1, Factor: 4}, {Node: 2, Factor: 2}},
			Degraded:   []NodeFault{{Node: 3, Factor: 8}},
		}),
		WithGPUs(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 4 || rep.Steps != 8 {
		t.Fatalf("report = %d nodes / %d steps, want 4/8", rep.Nodes, rep.Steps)
	}
	bad := []struct {
		name string
		topo Topology
		want string
	}{
		{"straggler factor", Topology{Nodes: 2, Stragglers: []NodeFault{{Node: 0, Factor: 0.5}}}, "must be ≥ 1"},
		{"straggler bounds", Topology{Nodes: 2, Stragglers: []NodeFault{{Node: 5, Factor: 2}}}, "outside cluster"},
		{"degraded factor", Topology{Nodes: 2, Degraded: []NodeFault{{Node: 0, Factor: -1}}}, "must be ≥ 1"},
		{"degraded bounds", Topology{Nodes: 2, Degraded: []NodeFault{{Node: -1, Factor: 2}}}, "outside cluster"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Train(mnWorkload(5), WithTopology(tc.topo))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// faultLines flattens a run's fault table and its fault spans, in order, one
// line each — every field TestFaultTablePins pins.
func faultLines(faults []FaultStat, spans []TraceSpan) []string {
	var out []string
	for _, f := range faults {
		out = append(out, fmt.Sprintf("fault %v applied=%d cleared=%d recovery=%d stall=%d",
			f.Event, f.AppliedAt, f.ClearedAt, f.Recovery, f.StallDuring))
	}
	for _, sp := range spans {
		if sp.Stage == TraceStageFault || sp.Stage == TraceStageFaultWindow {
			out = append(out, fmt.Sprintf("span %v [%d,%d] tenant=%d node=%d key=%d",
				sp.Stage, sp.Start, sp.End, sp.Tenant, sp.Node, sp.Key))
		}
	}
	return out
}

// TestFaultTablePins pins the complete fault table — event, AppliedAt,
// ClearedAt, Recovery, StallDuring, in order — and every fault span of one
// single-machine and one elastic multi-node run to the nanosecond. The values
// were recorded before the three drivers' private fault tables were folded
// into chaos.Faults, so the shared table is held to what each copy produced.
func TestFaultTablePins(t *testing.T) {
	check := func(t *testing.T, got, want []string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fault table moved:\n got:\n  %s\nwant:\n  %s",
				strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
	t.Run("single-machine", func(t *testing.T) {
		sink := NewTraceSink()
		rep, err := Train(mnWorkload(30), WithGPUs(1), WithTracing(sink),
			WithChaos(ComposeChaos("pin",
				BrownoutDisk(5*time.Second, 8, 10*time.Second),
				StallWorkers(0, 5*time.Second, 2, 5*time.Second),
				PreemptFor(12*time.Second, 4*time.Second))))
		if err != nil {
			t.Fatal(err)
		}
		if rep.TrainTime != 44800000022 || rep.Batches != 30 {
			t.Fatalf("run moved: %d ns, %d batches", rep.TrainTime, rep.Batches)
		}
		check(t, faultLines(rep.Faults, sink.Spans()), []string{
			"fault disk-degrade@5s ×8 applied=5000000000 cleared=15000000000 recovery=0 stall=0",
			"fault worker-stall@5s node=0 ×2 for=5s applied=5000000000 cleared=16254708183 recovery=0 stall=0",
			"fault preempt@12s applied=12000000000 cleared=16000000000 recovery=0 stall=4000000000",
			"fault resume@16s applied=16000000000 cleared=0 recovery=1200000001 stall=0",
			"span fault [5000000000,5000000000] tenant=1 node=0 key=4",
			"span fault [5000000000,5000000000] tenant=1 node=0 key=6",
			"span fault-window [5000000000,15000000000] tenant=1 node=0 key=4",
			"span fault-window [5000000000,16254708183] tenant=1 node=0 key=6",
			"span fault [12000000000,12000000000] tenant=1 node=0 key=7",
			"span fault-window [12000000000,16000000000] tenant=1 node=0 key=7",
			"span fault [16000000000,16000000000] tenant=1 node=0 key=8",
		})
	})
	t.Run("multi-node", func(t *testing.T) {
		sink := NewTraceSink()
		rep, err := Train(mnWorkload(15), WithNodes(4), WithGPUs(1), WithTracing(sink),
			WithChaos(ComposeChaos("pin",
				StallWorkers(1, 2*time.Second, 2, 3*time.Second),
				BrownoutDisk(3*time.Second, 8, 4*time.Second),
				FlapLink(2, 4*time.Second, 16, 3*time.Second),
				CrashNode(3, 5*time.Second, 8*time.Second))))
		if err != nil {
			t.Fatal(err)
		}
		if rep.TrainTime != 27271539427 || rep.Steps != 15 {
			t.Fatalf("run moved: %d ns, %d steps", rep.TrainTime, rep.Steps)
		}
		check(t, faultLines(rep.Faults, sink.Spans()), []string{
			"fault worker-stall@2s node=1 ×2 for=3s applied=2000000000 cleared=8386636780 recovery=0 stall=11177481416",
			"fault disk-degrade@3s ×8 applied=3000000000 cleared=7000000000 recovery=0 stall=5588930309",
			"fault link-degrade@4s node=2 ×16 applied=4000000000 cleared=7000000000 recovery=0 stall=2447163368",
			"fault node-crash@5s node=3 applied=5574253378 cleared=9796967973 recovery=0 stall=10424327160",
			"fault node-join@8s node=3 applied=9796967973 cleared=0 recovery=5559352615 stall=0",
			"span fault [2000000000,2000000000] tenant=0 node=1 key=6",
			"span fault-window [2000000000,8386636780] tenant=0 node=1 key=6",
			"span fault [3000000000,3000000000] tenant=0 node=-1 key=4",
			"span fault-window [3000000000,7000000000] tenant=0 node=-1 key=4",
			"span fault [4000000000,4000000000] tenant=0 node=2 key=2",
			"span fault-window [4000000000,7000000000] tenant=0 node=2 key=2",
			"span fault [5574253378,5574253378] tenant=0 node=3 key=0",
			"span fault-window [5574253378,9796967973] tenant=0 node=3 key=0",
			"span fault [9796967973,9796967973] tenant=0 node=3 key=1",
		})
	})
}
