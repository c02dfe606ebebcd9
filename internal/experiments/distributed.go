package experiments

import (
	"fmt"
	"time"

	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/distributed"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

func init() {
	register("dist", "Distributed data-parallel training across nodes (§6 extension)", runDist)
	register("multinode", "Multi-node failure scenarios: straggler, degraded link, heterogeneous mix", runMultiNode)
}

// distLoaders is the comparison pair every multi-node table runs.
var distLoaders = []string{"pytorch", "minato"}

func distWorkloadFor(o Options, iters int) workload.Workload {
	w := workload.Speech(o.seed(), 3*time.Second)
	w.Dataset = dataset.Subset(w.Dataset, 20000)
	return w.WithIterations(iters)
}

// distRow is one run as a table row: cluster step time plus the per-cause
// stall attribution the netsim fabric makes measurable.
func distRow(label string, rep *trainer.Report) []Cell {
	return []Cell{text(label), text(rep.Loader), secs(rep.TrainTime), count(rep.Steps),
		num(rep.StepTime().Seconds()*1000, 1), pct(rep.AvgGPUUtil), pct(100 * rep.DataStallShare()),
		pct(100 * rep.BarrierStallShare()), pct(100 * rep.NetworkStallShare())}
}

var distHeader = []string{"cluster", "loader", "train_s", "steps", "step_ms",
	"gpu_util", "data_stall", "barrier_stall", "net_stall"}

func runDist(o Options) (*Result, error) {
	iters := 300
	nodeCounts := []int{1, 2, 4}
	if o.Quick {
		iters = 80
		nodeCounts = []int{1, 2}
	}
	w := distWorkloadFor(o, iters)

	t := Table{
		Title: fmt.Sprintf("Distributed Speech-3s, %d iterations per rank (Config A nodes, 200 Gb/s fabric, remote store)",
			iters),
		File:   "dist",
		Header: distHeader,
	}
	for _, n := range nodeCounts {
		for _, name := range distLoaders {
			f, _ := loaders.ByName(name)
			rep, err := distributed.Run(distributed.Topology{Nodes: n}, w, f, chaos.Script{}, nil)
			if err != nil {
				return nil, fmt.Errorf("dist %d/%s: %w", n, name, err)
			}
			t.Rows = append(t.Rows, distRow(fmt.Sprintf("%d nodes", n), rep))
		}
	}
	return &Result{ID: "dist", Title: "Distributed training (§6)", Tables: []Table{t},
		Notes: []string{
			"each node is a full testbed running its own loader over a deterministic dataset shard",
			"gradient all-reduce is ring-reduce flows on the simulated fabric; cold shard reads fetch from a shared store over the same NICs",
			"net_stall is measured time in the collective, not an analytic constant; one input-stalled rank stalls every rank",
		}}, nil
}

// runMultiNode exercises the failure and heterogeneity scenarios the
// fabric enables: a core-starved straggler node, a degraded NIC, and a
// mixed Config A + Config B cluster.
func runMultiNode(o Options) (*Result, error) {
	iters := 200
	nodes := 4
	if o.Quick {
		iters = 60
		nodes = 2
	}
	w := distWorkloadFor(o, iters)

	scenarios := []struct {
		label string
		topo  distributed.Topology
	}{
		{"balanced", distributed.Topology{Nodes: nodes}},
		{"straggler(n1÷8 cores)", distributed.Topology{Nodes: nodes, Stragglers: []distributed.NodeFault{{Node: 1, Factor: 8}}}},
		{"degraded(n1÷8 link)", distributed.Topology{Nodes: nodes, Degraded: []distributed.NodeFault{{Node: 1, Factor: 8}}}},
		{"hetero(A+B mix)", distributed.Topology{Mix: mixNodes(nodes)}},
	}

	t := Table{
		Title:  fmt.Sprintf("Multi-node scenarios, %d nodes, %d iterations per rank", nodes, iters),
		File:   "multinode",
		Header: distHeader,
	}
	for _, sc := range scenarios {
		for _, name := range distLoaders {
			f, _ := loaders.ByName(name)
			rep, err := distributed.Run(sc.topo, w, f, chaos.Script{}, nil)
			if err != nil {
				return nil, fmt.Errorf("multinode %s/%s: %w", sc.label, name, err)
			}
			t.Rows = append(t.Rows, distRow(sc.label, rep))
		}
	}
	return &Result{ID: "multinode", Title: "Multi-node scenarios", Tables: []Table{t},
		Notes: []string{
			"straggler: one node's preprocessing cores divided — the whole-cluster step pays its input stall through the barrier",
			"degraded: one node's NIC bandwidth divided — gradient flows through it slow every ring phase",
			"hetero: alternating Config A / Config B nodes share one synchronous step",
		}}, nil
}

// mixNodes alternates Config A and Config B single-GPU-count-preserving
// nodes for the heterogeneous scenario.
func mixNodes(n int) []hardware.Config {
	cfgs := make([]hardware.Config, n)
	for i := range cfgs {
		if i%2 == 0 {
			cfgs[i] = hardware.ConfigA()
		} else {
			cfgs[i] = hardware.ConfigB().WithGPUs(hardware.ConfigA().GPUCount)
		}
	}
	return cfgs
}
