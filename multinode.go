package minato

import (
	"fmt"
	"strings"

	"github.com/minatoloader/minato/internal/distributed"
	"github.com/minatoloader/minato/internal/workload"
)

// Topology describes a multi-node training cluster: how many nodes, what
// hardware each runs, and the interconnect they share. The zero value of
// every field takes the paper-cluster default documented on the field (see
// internal/distributed), so the common case is just WithNodes(n). A topology
// the cluster cannot run — a node count below 1, a straggler or degraded
// entry with a factor below 1 or a node outside the cluster — is refused
// with a *ConfigError.
//
//	rep, err := minato.TrainMultiNode("speech-3s",
//	    minato.WithTopology(minato.Topology{
//	        Nodes:         4,
//	        LinkBandwidth: 25e9, // 200 Gb/s
//	        // node 1 runs on 1/8th of its cores
//	        Stragglers: []minato.NodeFault{{Node: 1, Factor: 8}},
//	    }),
//	)
type Topology = distributed.Topology

// NodeFault names one node and its degradation factor — the element of
// Topology.Stragglers and Topology.Degraded. A factor of 8 leaves the node
// an eighth of the resource.
type NodeFault = distributed.NodeFault

// MultiNodeReport is the outcome of a TrainMultiNode run: whole-cluster
// timings plus per-node stall attribution (own input, the barrier, the
// network). See NodeStats.
type MultiNodeReport = distributed.Report

// NodeStats attributes one node's time inside a MultiNodeReport.
type NodeStats = distributed.NodeStats

// WithNodes runs a training session across n data-parallel nodes on the
// default topology (ConfigA nodes, 200 Gb/s fabric, shared remote store).
// TrainMultiNode only.
func WithNodes(n int) Option {
	return Option{"WithNodes", atMultiNode, func(o *options) { o.topo = &Topology{Nodes: n} }}
}

// WithTopology runs a training session across the described multi-node
// cluster. TrainMultiNode only; it subsumes WithNodes.
func WithTopology(t Topology) Option {
	return Option{"WithTopology", atMultiNode, func(o *options) { o.topo = &t }}
}

// topology resolves the run's cluster: WithHardware sizes each node when
// the topology leaves Node unset, WithGPUs rewrites every node's GPU count,
// and distributed.Resolve fills the rest and refuses what a run would.
func (o *options) topology() (Topology, error) {
	var t Topology
	if o.topo != nil {
		t = *o.topo
	}
	if t.Node.Cores <= 0 && o.hw != nil {
		t.Node = *o.hw
	}
	t, err := distributed.Resolve(t)
	if err != nil {
		return t, configErr("WithTopology", err.Error())
	}
	if o.gpus > 0 {
		t.Node = t.Node.WithGPUs(o.gpus)
		if len(t.Mix) > 0 {
			// Copy before rewriting: t.Mix shares its backing array with
			// the caller's Topology.Mix.
			mix := make([]HardwareConfig, len(t.Mix))
			for i, m := range t.Mix {
				mix[i] = m.WithGPUs(o.gpus)
			}
			t.Mix = mix
		}
	}
	return t, nil
}

// TrainMultiNode runs a data-parallel training session across a simulated
// multi-node cluster: every node is a full testbed running its own loader
// instance over a deterministic shard of the workload's dataset, gradient
// all-reduce runs as ring-reduce flows over a simulated interconnect, and
// (by default) cold shard reads are fetched from a shared storage server
// over the same NICs — so data traffic and gradient traffic contend the
// way they do on a real cluster.
//
//	rep, err := minato.TrainMultiNode("speech-3s",
//	    minato.WithNodes(4),
//	    minato.WithLoader("pytorch"),
//	    minato.WithIterations(200),
//	)
//	// rep.StepTime(), rep.NetworkStallShare(), rep.PerNode[i].DataStall, ...
//
// WithNodes/WithTopology give the cluster shape, WithHardware sizes each
// node, WithGPUs sets the per-node GPU count, and WithChaos/WithChaosScenario
// script node crashes, link flaps, disk brownouts and worker stalls (see
// ChaosScript); README.md's option table has the full list. The run is
// deterministic: identical options — including the chaos script — reproduce
// the report bit-for-bit.
func TrainMultiNode(workloadName string, opts ...Option) (*MultiNodeReport, error) {
	o, err := build(atMultiNode, opts)
	if err != nil {
		return nil, err
	}
	w, ok := workload.ByName(workloadName, o.seed)
	if !ok {
		return nil, configErr("TrainMultiNode", fmt.Sprintf("unknown workload %q (registered: %s)",
			workloadName, strings.Join(workload.Names(), ", ")))
	}
	return trainMultiNode(w, o)
}

// TrainMultiNodeWorkload is TrainMultiNode for a workload value built
// directly.
func TrainMultiNodeWorkload(w Workload, opts ...Option) (*MultiNodeReport, error) {
	o, err := build(atMultiNode, opts)
	if err != nil {
		return nil, err
	}
	return trainMultiNode(w, o)
}

func trainMultiNode(w Workload, o *options) (*MultiNodeReport, error) {
	topo, err := o.topology()
	if err != nil {
		return nil, err
	}
	f, err := o.resolveFactory()
	if err != nil {
		return nil, err
	}
	if w, err = o.shaped(w); err != nil {
		return nil, err
	}
	script, err := o.resolveChaos(func(s ChaosScript) error { return s.Validate(topo.Nodes) })
	if err != nil {
		return nil, err
	}
	return distributed.Run(topo, w, f, script, o.trace)
}
