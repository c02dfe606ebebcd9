package distributed

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/loaders"
)

// The acceptance scenario: node 3 of 8 crashes at t=5s and rejoins at
// t=8s. The run must complete its full round budget, attribute the dead
// node's idle rounds to Downtime, measure a recovery time, and reproduce
// bit-identically.
func TestCrashRejoinElastic(t *testing.T) {
	f, _ := loaders.ByName("minato")
	script := chaos.CrashNode(3, 5*time.Second, 8*time.Second)
	run := func() *Report {
		rep, err := Run(smallCluster(8), distWorkload(15), f, script, nil)
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
	for i, n := range rep.PerNode {
		if i != 3 && n.Downtime != 0 {
			t.Fatalf("node %d (never crashed) has downtime %v", i, n.Downtime)
		}
	}
	if len(rep.Faults) != 2 {
		t.Fatalf("faults = %+v, want crash+join", rep.Faults)
	}
	crash, join := rep.Faults[0], rep.Faults[1]
	if crash.Event.Kind != chaos.NodeCrash || join.Event.Kind != chaos.NodeJoin {
		t.Fatalf("fault order = %v, %v", crash.Event, join.Event)
	}
	// Membership changes land at the first step boundary at or after the
	// scripted time, never before it.
	if crash.AppliedAt < 5*time.Second || join.AppliedAt < 8*time.Second {
		t.Fatalf("applied early: crash %v, join %v", crash.AppliedAt, join.AppliedAt)
	}
	if crash.ClearedAt != join.AppliedAt {
		t.Fatalf("crash cleared at %v, join applied at %v", crash.ClearedAt, join.AppliedAt)
	}
	// Recovery: rejoin event to the node's first completed synchronized
	// step. It spans at least the join's boundary-alignment delay.
	if join.Recovery <= 0 {
		t.Fatalf("join recovery = %v, want > 0", join.Recovery)
	}
	if rep.RecoveryTime() != join.Recovery {
		t.Fatalf("RecoveryTime() = %v, want %v", rep.RecoveryTime(), join.Recovery)
	}
	if rep.StepP50 <= 0 || rep.StepP99 < rep.StepP50 {
		t.Fatalf("step quantiles p50=%v p99=%v", rep.StepP50, rep.StepP99)
	}
	// Identical script, identical run: bit-identical report.
	if rep2 := run(); !reflect.DeepEqual(rep, rep2) {
		t.Fatalf("chaos run not deterministic:\n%+v\n%+v", rep, rep2)
	}
}

func TestAllNodesLostReturnsErrNodeLost(t *testing.T) {
	f, _ := loaders.ByName("minato")
	script := chaos.Compose("wipeout",
		chaos.CrashNode(0, time.Second, 0),
		chaos.CrashNode(1, 2*time.Second, 0),
	)
	_, err := Run(smallCluster(2), distWorkload(15), f, script, nil)
	if !errors.Is(err, chaos.ErrNodeLost) {
		t.Fatalf("err = %v, want ErrNodeLost", err)
	}
}

func TestLinkFlapAppliesAtExactTimesAndIsDeterministic(t *testing.T) {
	f, _ := loaders.ByName("minato")
	script := chaos.FlapLink(1, 2*time.Second, 50, 2*time.Second)
	rep, err := Run(smallCluster(2), distWorkload(10), f, script, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Faults) != 1 {
		t.Fatalf("faults = %+v, want one link-degrade window", rep.Faults)
	}
	fs := rep.Faults[0]
	// Continuous events fire at exactly their scripted times.
	if fs.Event.Kind != chaos.LinkDegrade || fs.AppliedAt != 2*time.Second || fs.ClearedAt != 4*time.Second {
		t.Fatalf("window = %+v, want link-degrade [2s, 4s]", fs)
	}
	if fs.StallDuring <= 0 {
		t.Fatalf("50× NIC degradation attributed no stall (%v)", fs.StallDuring)
	}
	rep2, err := Run(smallCluster(2), distWorkload(10), f, script, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("link-flap run not deterministic")
	}
}

func TestDiskBrownoutAndWorkerStallRecorded(t *testing.T) {
	f, _ := loaders.ByName("minato")
	script := chaos.Compose("mixed",
		chaos.BrownoutDisk(time.Second, 8, 2*time.Second),
		chaos.StallWorkers(0, time.Second, 2, time.Second),
	)
	rep, err := Run(smallCluster(1), distWorkload(10), f, script, nil)
	if err != nil {
		t.Fatal(err)
	}
	var disk, stall *chaos.FaultStat
	for i := range rep.Faults {
		switch rep.Faults[i].Event.Kind {
		case chaos.DiskDegrade:
			disk = &rep.Faults[i]
		case chaos.WorkerStall:
			stall = &rep.Faults[i]
		}
	}
	if disk == nil || stall == nil {
		t.Fatalf("faults = %+v, want disk-degrade and worker-stall", rep.Faults)
	}
	if disk.AppliedAt != time.Second || disk.ClearedAt != 3*time.Second {
		t.Fatalf("disk window = [%v, %v], want [1s, 3s]", disk.AppliedAt, disk.ClearedAt)
	}
	// Hog work completes under processor sharing, so the stall clears at
	// or after its nominal end.
	if stall.ClearedAt < 2*time.Second {
		t.Fatalf("worker stall cleared at %v, before its duration elapsed", stall.ClearedAt)
	}
}

// Multi-straggler and multi-degraded-link configs apply per entry.
func TestStragglerAndDegradedSlices(t *testing.T) {
	cfg := straggling(straggling(smallCluster(4), 1, 4), 2, 2)
	cfgs := cfg.nodeConfigs()
	base := smallCluster(4).Node.Cores
	if cfgs[1].Cores != base/4 || cfgs[2].Cores != base/2 {
		t.Fatalf("straggler cores = %d, %d, want %d, %d", cfgs[1].Cores, cfgs[2].Cores, base/4, base/2)
	}
	if cfgs[0].Cores != base || cfgs[3].Cores != base {
		t.Fatal("non-straggler nodes were modified")
	}
	deg := smallCluster(4)
	deg.Degraded = []NodeFault{{Node: 0, Factor: 2}, {Node: 2, Factor: 4}}
	if _, err := Resolve(deg); err != nil || len(deg.Degraded) != 2 {
		t.Fatalf("degraded faults = %+v: %v", deg.Degraded, err)
	}
}
