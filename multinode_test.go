package minato

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/workload"
)

// mnWorkload is a shortened speech workload for multi-node API tests.
func mnWorkload(iters int) Workload {
	w := workload.Speech(1, 3*time.Second)
	w.Dataset = SubsetDataset(w.Dataset, 4000)
	return w.WithIterations(iters)
}

func TestTrainMultiNodeDefaults(t *testing.T) {
	rep, err := Train(mnWorkload(12), WithTopology(Topology{}), WithGPUs(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 2 {
		t.Fatalf("default node count = %d, want 2", rep.Nodes)
	}
	if len(rep.PerNode) != 2 {
		t.Fatalf("PerNode = %d entries, want 2", len(rep.PerNode))
	}
	if rep.Steps == 0 || rep.StepTime() == 0 {
		t.Fatalf("no synchronized steps recorded: %+v", rep)
	}
	if rep.NetworkBytes == 0 {
		t.Fatal("default remote-store cluster moved no fabric bytes")
	}
}

func TestTrainMultiNodeByWorkloadName(t *testing.T) {
	rep, err := Train(workloadNamed("speech-3s", 1),
		WithNodes(2), WithGPUs(1), WithIterations(10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "speech-3s" || rep.Nodes != 2 {
		t.Fatalf("unexpected report identity: %+v", rep)
	}
}

func TestTrainMultiNodeDeterministic(t *testing.T) {
	run := func() *Report {
		rep, err := Train(mnWorkload(10),
			WithTopology(Topology{Nodes: 2, Stragglers: []NodeFault{{Node: 1, Factor: 4}}}),
			WithGPUs(1))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("nondeterministic multi-node Train:\n run1: %+v\n run2: %+v", r1, r2)
	}
}

func TestTrainMultiNodeStragglerScenario(t *testing.T) {
	// The README scenario: a core-starved node drags the synchronous
	// cluster, and MinatoLoader's preprocessing overlap wins on
	// whole-cluster step time.
	topo := Topology{Nodes: 2, Stragglers: []NodeFault{{Node: 1, Factor: 8}}}
	pt, err := Train(mnWorkload(12),
		WithTopology(topo), WithGPUs(1), WithLoader("pytorch"))
	if err != nil {
		t.Fatal(err)
	}
	mn, err := Train(mnWorkload(12),
		WithTopology(topo), WithGPUs(1), WithLoader("minato"))
	if err != nil {
		t.Fatal(err)
	}
	if mn.StepTime() >= pt.StepTime() {
		t.Fatalf("minato cluster step %v not faster than pytorch %v under straggler",
			mn.StepTime(), pt.StepTime())
	}
}

func TestTopologyOptionsRejectedElsewhere(t *testing.T) {
	var ce *ConfigError

	if _, err := Open(sessionDataset{n: 64}, WithNodes(2)); !errors.As(err, &ce) {
		t.Fatalf("Open with WithNodes: %v, want *ConfigError", err)
	}
	cl, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Open(sessionDataset{n: 64}, WithTopology(Topology{Nodes: 2})); !errors.As(err, &ce) {
		t.Fatalf("Cluster.Open with WithTopology: %v, want *ConfigError", err)
	}
	if _, err := cl.Train(mnWorkload(4), WithNodes(2)); !errors.As(err, &ce) {
		t.Fatalf("Cluster.Train with WithNodes: %v, want *ConfigError", err)
	}
}

func TestTrainMultiNodeRejectsInvalidTopology(t *testing.T) {
	var ce *ConfigError
	cases := []Topology{
		{Nodes: -1},
		{Nodes: 2, Stragglers: []NodeFault{{Node: 5, Factor: 4}}},
		{Nodes: 2, Degraded: []NodeFault{{Node: -1, Factor: 2}}},
		{Nodes: 2, Stragglers: []NodeFault{{Node: 0, Factor: 0.5}}},
	}
	for i, topo := range cases {
		if _, err := Train(workloadNamed("speech-3s", 1), WithTopology(topo)); !errors.As(err, &ce) {
			t.Errorf("case %d: %v, want *ConfigError", i, err)
		}
	}
	// Single-machine-only options are refused too.
	if _, err := Train(workloadNamed("speech-3s", 1), WithNodes(2), WithPriority(2)); !errors.As(err, &ce) {
		t.Errorf("WithPriority on a multi-node Train: want *ConfigError")
	}
	if _, err := Train(workloadNamed("speech-3s", 1), WithNodes(2), WithRuntime(NewServiceNet(nil, ServiceNetConfig{}).Runtime())); !errors.As(err, &ce) {
		t.Errorf("WithRuntime on a multi-node Train: want *ConfigError")
	}
}

func TestTrainMultiNodeHeterogeneousMix(t *testing.T) {
	rep, err := Train(mnWorkload(8),
		WithTopology(Topology{Mix: []HardwareConfig{ConfigA(), ConfigB()}}),
		WithGPUs(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 2 {
		t.Fatalf("mix run nodes = %d, want 2", rep.Nodes)
	}
	if rep.PerNode[0].Hardware == rep.PerNode[1].Hardware {
		t.Fatalf("mix nodes identical hardware: %q", rep.PerNode[0].Hardware)
	}
}

func TestWithGPUsDoesNotMutateCallerMix(t *testing.T) {
	mix := []HardwareConfig{ConfigA(), ConfigB()}
	topo := Topology{Mix: mix}
	if _, err := Train(mnWorkload(6), WithTopology(topo), WithGPUs(1)); err != nil {
		t.Fatal(err)
	}
	if mix[0].GPUCount != ConfigA().GPUCount || mix[1].GPUCount != ConfigB().GPUCount {
		t.Fatalf("caller's Mix mutated: %d/%d GPUs", mix[0].GPUCount, mix[1].GPUCount)
	}
}

// TestTopologyShapesPinned pins five cluster shapes — the default remote
// store, LocalStore, two stragglers, two degraded links and an A+B mix — to
// the nanosecond: train time, steps, fabric bytes and each node's data stall.
// The values were recorded while the facade still copied Topology field by
// field into a separate internal config, so resolving it in one place is
// held to what the copy produced.
func TestTopologyShapesPinned(t *testing.T) {
	cases := []struct {
		name  string
		topo  Topology
		train time.Duration
		steps int64
		bytes int64
		stall []time.Duration
	}{
		{"default", Topology{},
			14749658529, 10, 7440708892, []time.Duration{2598857862, 1519883687}},
		{"local-store", Topology{LocalStore: true},
			14748606629, 10, 7340032000, []time.Duration{2597805962, 1519044816}},
		{"stragglers", Topology{Nodes: 3, Stragglers: []NodeFault{{Node: 1, Factor: 8}, {Node: 2, Factor: 2}}},
			17843074520, 10, 14829884449, []time.Duration{2287351463, 4564463486, 2594347497}},
		{"degraded", Topology{Nodes: 3, Degraded: []NodeFault{{Node: 0, Factor: 4}, {Node: 2, Factor: 16}}},
			17154998315, 10, 14829884449, []time.Duration{1991910069, 1519973653, 2008066307}},
		{"mix", Topology{Mix: []HardwareConfig{ConfigA(), ConfigB()}},
			25670684355, 10, 7440708892, []time.Duration{2014834118, 1519883687}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Train(mnWorkload(10), WithTopology(tc.topo), WithGPUs(1))
			if err != nil {
				t.Fatal(err)
			}
			var stall []time.Duration
			for _, n := range rep.PerNode {
				stall = append(stall, n.DataStall)
			}
			if rep.TrainTime != tc.train || rep.Steps != tc.steps || rep.NetworkBytes != tc.bytes ||
				!reflect.DeepEqual(stall, tc.stall) {
				t.Fatalf("shape moved: train=%d steps=%d bytes=%d stall=%v",
					rep.TrainTime, rep.Steps, rep.NetworkBytes, stall)
			}
		})
	}
}
