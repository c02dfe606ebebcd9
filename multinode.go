package minato

import (
	"github.com/minatoloader/minato/internal/distributed"
	"github.com/minatoloader/minato/internal/trainer"
)

// Topology describes a multi-node training cluster: how many nodes, what
// hardware each runs, and the interconnect they share. The zero value of
// every field takes the paper-cluster default documented on the field (see
// internal/distributed), so the common case is just WithNodes(n). A topology
// the cluster cannot run — a node count below 1, a straggler or degraded
// entry with a factor below 1 or a node outside the cluster — is refused
// with a *ConfigError.
//
//	rep, err := minato.Train(w,
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

// NodeStats attributes one node's time in a multi-node Report (PerNode):
// its own input stall, the barrier, the network, downtime.
type NodeStats = trainer.NodeStats

// MultiNodeReport is Report.
//
// Deprecated: use Report, which a multi-node Train fills. MultiNodeReport
// goes once the benchmark's call sites move to Report.
type MultiNodeReport = Report

// WithNodes makes Train a data-parallel run across n simulated nodes on the
// default topology (ConfigA nodes, 200 Gb/s fabric, shared remote store):
// every node is a full testbed running its own loader over a deterministic
// shard of the workload's dataset, gradient all-reduce runs as ring-reduce
// flows over a simulated interconnect, and cold shard reads are fetched
// from a shared storage server over the same NICs — so data traffic and
// gradient traffic contend the way they do on a real cluster.
//
//	rep, err := minato.Train(w,
//	    minato.WithNodes(4),
//	    minato.WithLoader("pytorch"),
//	    minato.WithIterations(200),
//	)
//	// rep.StepTime(), rep.NetworkStallShare(), rep.PerNode[i].DataStall, ...
//
// Such a run owns its runtime and takes the options of README's
// "Train (multi-node)" column: WithHardware sizes each node, WithGPUs sets
// the per-node GPU count, and WithChaos/WithChaosScenario script node
// crashes, link flaps, disk brownouts and worker stalls (see ChaosScript).
// Identical options — including the chaos script — reproduce the report
// bit-for-bit. Train only; on Cluster.Train it is a *ConfigError.
func WithNodes(n int) Option {
	return Option{"WithNodes", atMultiNode, func(o *options) { o.topo = &Topology{Nodes: n} }}
}

// WithTopology makes Train a data-parallel run across the described
// multi-node cluster; it subsumes WithNodes and is scoped like it.
func WithTopology(t Topology) Option {
	return Option{"WithTopology", atMultiNode, func(o *options) { o.topo = &t }}
}

// trainEntry resolves the entry point a Train call runs as: the multi-node
// one when an option only a multi-node run accepts (WithNodes, WithTopology)
// is among opts, the single-machine one otherwise. Scopes are checked
// against the resolved entry, so Train refuses what neither run takes.
func trainEntry(opts []Option) entry {
	for _, opt := range opts {
		if opt.scope == atMultiNode {
			return atMultiNode
		}
	}
	return atTrain
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

// TrainMultiNodeWorkload is Train across nodes: on the default 2-node
// topology unless opts give WithNodes or WithTopology.
//
// Deprecated: call Train with WithNodes or WithTopology.
// TrainMultiNodeWorkload goes once the benchmark's call sites move to Train.
func TrainMultiNodeWorkload(w Workload, opts ...Option) (*Report, error) {
	return Train(w, append([]Option{WithTopology(Topology{})}, opts...)...)
}

// trainMultiNode runs a built multi-node Train on distributed.Run.
func trainMultiNode(w Workload, o *options) (*Report, error) {
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
