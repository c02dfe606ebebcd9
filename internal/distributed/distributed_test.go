package distributed

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

func distWorkload(iters int) workload.Workload {
	w := workload.Speech(1, 3*time.Second)
	w.Dataset = dataset.Subset(w.Dataset, 4000)
	return w.WithIterations(iters)
}

func smallCluster(nodes int) Topology {
	return Topology{Nodes: nodes, Node: hardware.ConfigA().WithGPUs(1)}
}

// straggling returns t with node's cores divided by factor.
func straggling(t Topology, node int, factor float64) Topology {
	t.Stragglers = append(append([]NodeFault(nil), t.Stragglers...), NodeFault{node, factor})
	return t
}

// runPlain runs t with no fault script, untraced.
func runPlain(t Topology, w workload.Workload, f trainer.Factory) (*Report, error) {
	return Run(t, w, f, chaos.Script{}, nil)
}

func TestSingleNodeRuns(t *testing.T) {
	f, _ := loaders.ByName("minato")
	rep, err := runPlain(smallCluster(1), distWorkload(15), f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 15 {
		t.Fatalf("steps = %d, want 15", rep.Steps)
	}
	if len(rep.PerNode) != 1 {
		t.Fatalf("PerNode entries = %d, want 1", len(rep.PerNode))
	}
	// A single node runs no ring collective; with a remote store its only
	// fabric traffic is dataset fetches.
	if got := rep.PerNode[0].NetworkStall; got != 0 {
		t.Fatalf("single node paid %v network (all-reduce) stall", got)
	}
	if rep.NetworkBytes == 0 {
		t.Fatal("remote store moved no bytes over the fabric")
	}
}

func TestLocalStoreKeepsFabricQuietOnOneNode(t *testing.T) {
	f, _ := loaders.ByName("minato")
	cfg := smallCluster(1)
	cfg.LocalStore = true
	rep, err := runPlain(cfg, distWorkload(10), f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NetworkBytes != 0 {
		t.Fatalf("local-store single node moved %d fabric bytes, want 0", rep.NetworkBytes)
	}
}

func TestTwoNodesSynchronize(t *testing.T) {
	f, _ := loaders.ByName("minato")
	rep, err := runPlain(smallCluster(2), distWorkload(15), f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 2 {
		t.Fatal("node count")
	}
	// Synchronized cluster steps: ≈15 rounds before the first EOF breaks
	// the barrier.
	if rep.Steps < 10 {
		t.Fatalf("steps = %d, want ≈15 synchronized steps", rep.Steps)
	}
	// Gradient traffic must be real fabric bytes: ≥ steps × ring volume
	// (2·(n−1)/n of the gradient per node per step).
	gradPerStep := 2 * rep.Nodes * int(float64(350<<20)/float64(rep.Nodes)) // 2·(n−1) chunks × n nodes, n=2
	if rep.NetworkBytes < int64(rep.Steps)*int64(gradPerStep)/2 {
		t.Fatalf("NetworkBytes = %d, too low for %d steps of ring traffic", rep.NetworkBytes, rep.Steps)
	}
	for _, ns := range rep.PerNode {
		if ns.NetworkStall <= 0 {
			t.Fatalf("node %d reports no network stall across %d synchronized steps", ns.Node, rep.Steps)
		}
	}
	if rep.NetworkStallShare() <= 0 || rep.NetworkStallShare() >= 1 {
		t.Fatalf("NetworkStallShare = %v, want in (0,1)", rep.NetworkStallShare())
	}
}

func TestRunIsDeterministic(t *testing.T) {
	// Bit-identical multi-node runs: every field of the report — timings,
	// per-node stall attribution, fabric byte counts — must match across
	// two identical-seed runs.
	f, _ := loaders.ByName("minato")
	cfg := straggling(smallCluster(2), 1, 4)
	r1, err := runPlain(cfg, distWorkload(12), f)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runPlain(cfg, distWorkload(12), f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("nondeterministic multi-node run:\n run1: %+v\n run2: %+v", r1, r2)
	}
}

func TestStragglerStallsTheCluster(t *testing.T) {
	// One core-starved node drags every rank through the barrier: healthy
	// nodes see their stall move into BarrierStall, and cluster step time
	// grows versus the balanced cluster.
	f, _ := loaders.ByName("pytorch")
	w := distWorkload(15)
	base, err := runPlain(smallCluster(2), w, f)
	if err != nil {
		t.Fatal(err)
	}
	strag, err := runPlain(straggling(smallCluster(2), 1, 16), w, f)
	if err != nil {
		t.Fatal(err)
	}
	if strag.StepTime() <= base.StepTime() {
		t.Fatalf("straggler cluster step %v not slower than balanced %v",
			strag.StepTime(), base.StepTime())
	}
	healthy := strag.PerNode[0]
	if healthy.BarrierStall <= base.PerNode[0].BarrierStall {
		t.Fatalf("healthy node's barrier stall did not grow: %v vs %v",
			healthy.BarrierStall, base.PerNode[0].BarrierStall)
	}
}

func TestMinatoBeatsPyTorchUnderStraggler(t *testing.T) {
	// The acceptance scenario: with one input-stalled node, the per-step
	// barrier makes the whole cluster pay that node's preprocessing — so
	// the loader that hides preprocessing wins on whole-cluster step time.
	w := distWorkload(15)
	cfg := straggling(smallCluster(2), 1, 8)
	pt, _ := loaders.ByName("pytorch")
	mn, _ := loaders.ByName("minato")
	ptRep, err := runPlain(cfg, w, pt)
	if err != nil {
		t.Fatal(err)
	}
	mnRep, err := runPlain(cfg, w, mn)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(ptRep.StepTime()) / float64(mnRep.StepTime())
	t.Logf("straggler cluster: pytorch %v/step, minato %v/step, speedup %.2fx",
		ptRep.StepTime(), mnRep.StepTime(), speedup)
	if speedup < 1.5 {
		t.Fatalf("straggler step-time speedup = %.2fx, want >1.5x", speedup)
	}
}

func TestMinatoRetainsAdvantageAcrossNodes(t *testing.T) {
	// §6: MinatoLoader's benefits persist under data parallelism; with a
	// per-step barrier an input-stalled rank stalls the cluster, so the
	// gap versus PyTorch should not shrink with more nodes.
	w := distWorkload(20)
	pt, _ := loaders.ByName("pytorch")
	mn, _ := loaders.ByName("minato")

	ptRep, err := runPlain(smallCluster(2), w, pt)
	if err != nil {
		t.Fatal(err)
	}
	mnRep, err := runPlain(smallCluster(2), w, mn)
	if err != nil {
		t.Fatal(err)
	}
	speedup := ptRep.TrainTime.Seconds() / mnRep.TrainTime.Seconds()
	t.Logf("2 nodes: pytorch=%.1fs minato=%.1fs speedup=%.2fx",
		ptRep.TrainTime.Seconds(), mnRep.TrainTime.Seconds(), speedup)
	if speedup < 1.5 {
		t.Fatalf("distributed speedup = %.2fx, want >1.5x", speedup)
	}
}

func TestDegradedLinkShowsUpAsNetworkStall(t *testing.T) {
	f, _ := loaders.ByName("minato")
	w := distWorkload(12)
	base, err := runPlain(smallCluster(2), w, f)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := runPlain(Topology{Nodes: 2, Node: hardware.ConfigA().WithGPUs(1),
		Degraded: []NodeFault{{Node: 1, Factor: 8}}}, w, f)
	if err != nil {
		t.Fatal(err)
	}
	if deg.NetworkStallShare() <= base.NetworkStallShare() {
		t.Fatalf("degraded link did not raise network stall share: %.4f vs %.4f",
			deg.NetworkStallShare(), base.NetworkStallShare())
	}
	if deg.StepTime() <= base.StepTime() {
		t.Fatalf("degraded link did not slow the cluster step: %v vs %v",
			deg.StepTime(), base.StepTime())
	}
}

func TestHeterogeneousMix(t *testing.T) {
	f, _ := loaders.ByName("minato")
	cfg := Topology{Mix: []hardware.Config{
		hardware.ConfigA().WithGPUs(1),
		hardware.ConfigB().WithGPUs(1),
	}}
	rep, err := runPlain(cfg, distWorkload(10), f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 2 || len(rep.PerNode) != 2 {
		t.Fatalf("mix run has %d nodes / %d stats, want 2/2", rep.Nodes, len(rep.PerNode))
	}
	if rep.PerNode[0].Hardware == rep.PerNode[1].Hardware {
		t.Fatalf("mix nodes report identical hardware %q", rep.PerNode[0].Hardware)
	}
}

func TestZeroNodesRejected(t *testing.T) {
	f, _ := loaders.ByName("minato")
	if _, err := runPlain(Topology{Nodes: -1}, distWorkload(5), f); err == nil {
		t.Fatal("no error for a negative node count")
	}
}

// Run refuses the fault entries the facade refuses, with the same words,
// instead of running them as if they were absent.
func TestRunRejectsInvalidFaultEntries(t *testing.T) {
	f, _ := loaders.ByName("minato")
	for _, tc := range []struct {
		topo Topology
		want string
	}{
		{Topology{Nodes: 2, Stragglers: []NodeFault{{Node: 2, Factor: 4}}}, "straggler node 2 outside cluster of 2"},
		{Topology{Nodes: 2, Degraded: []NodeFault{{Node: 1, Factor: 0.5}}}, "degraded factor 0.5 must be ≥ 1"},
	} {
		if _, err := runPlain(tc.topo, distWorkload(5), f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want %q", tc.topo, err, tc.want)
		}
	}
}
