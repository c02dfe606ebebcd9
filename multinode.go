package minato

import (
	"fmt"
	"strings"
	"time"

	"github.com/minatoloader/minato/internal/distributed"
	"github.com/minatoloader/minato/internal/workload"
)

// Topology describes a multi-node training cluster: how many nodes, what
// hardware each runs, and the interconnect they share. The zero value of
// every field takes a documented default, so the common case is just
// WithNodes(n).
//
//	rep, err := minato.TrainMultiNode("speech-3s",
//	    minato.WithTopology(minato.Topology{
//	        Nodes:         4,
//	        LinkBandwidth: 25e9, // 200 Gb/s
//	        // node 1 runs on 1/8th of its cores
//	        Stragglers: []minato.NodeFault{{Node: 1, Factor: 8}},
//	    }),
//	)
type Topology struct {
	// Nodes is the number of servers (default 2); ignored when Mix is set.
	Nodes int
	// Node is the per-node hardware (default ConfigA).
	Node HardwareConfig
	// Mix gives each node its own hardware — the heterogeneous-cluster
	// scenario. When non-empty it defines the node count.
	Mix []HardwareConfig

	// GradientBytes is the model gradient each node exchanges per step
	// (default 350 MiB, ResNet50-scale).
	GradientBytes int64
	// LinkBandwidth is each node's NIC bandwidth in bytes/s per direction
	// (default 25e9 ≈ 200 Gb/s).
	LinkBandwidth float64
	// LinkLatency is the per-transfer propagation delay (default 200µs).
	LinkLatency time.Duration
	// LocalStore gives every node private storage instead of the default
	// shared remote store reached over the fabric.
	LocalStore bool

	// Stragglers divides each listed node's CPU cores by its factor — the
	// input-stalled-node scenario, one entry per afflicted node.
	Stragglers []NodeFault
	// Degraded divides each listed node's NIC bandwidth by its factor —
	// the flaky-link scenario, one entry per afflicted node.
	Degraded []NodeFault
}

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

// config resolves the topology's defaults into the internal cluster
// config.
func (t Topology) config(hw *HardwareConfig) (distributed.Config, error) {
	// Start from the internal defaults so future DefaultConfig fields flow
	// through, then lay the topology's explicit choices over them.
	cfg := distributed.DefaultConfig(t.Nodes)
	cfg.RemoteStore = !t.LocalStore
	cfg.Stragglers = append([]NodeFault(nil), t.Stragglers...)
	cfg.Degraded = append([]NodeFault(nil), t.Degraded...)
	if cfg.Nodes == 0 && len(t.Mix) == 0 {
		cfg.Nodes = 2
	}
	if t.Node.Cores > 0 {
		cfg.Node = t.Node
	} else if hw != nil {
		// WithHardware composes with WithNodes: it sizes each node.
		cfg.Node = *hw
	}
	if len(t.Mix) > 0 {
		cfg.Mix = t.Mix
		cfg.Nodes = len(t.Mix)
	}
	if t.GradientBytes > 0 {
		cfg.GradientBytes = t.GradientBytes
	}
	if t.LinkBandwidth > 0 {
		cfg.LinkBandwidth = t.LinkBandwidth
	}
	if t.LinkLatency > 0 {
		cfg.LinkLatency = t.LinkLatency
	}
	if cfg.Nodes < 1 {
		return cfg, configErr("WithTopology", fmt.Sprintf("node count %d < 1", cfg.Nodes))
	}
	for _, f := range t.Stragglers {
		switch {
		case f.Factor < 1:
			return cfg, configErr("WithTopology", fmt.Sprintf("straggler factor %g must be ≥ 1", f.Factor))
		case f.Node < 0 || f.Node >= cfg.Nodes:
			return cfg, configErr("WithTopology", fmt.Sprintf("straggler node %d outside cluster of %d", f.Node, cfg.Nodes))
		}
	}
	for _, f := range t.Degraded {
		switch {
		case f.Factor < 1:
			return cfg, configErr("WithTopology", fmt.Sprintf("degraded factor %g must be ≥ 1", f.Factor))
		case f.Node < 0 || f.Node >= cfg.Nodes:
			return cfg, configErr("WithTopology", fmt.Sprintf("degraded node %d outside cluster of %d", f.Node, cfg.Nodes))
		}
	}
	return cfg, nil
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
	topo := o.topo
	if topo == nil {
		topo = &Topology{}
	}
	cfg, err := topo.config(o.hw)
	if err != nil {
		return nil, err
	}
	if o.gpus > 0 {
		cfg.Node = cfg.Node.WithGPUs(o.gpus)
		if len(cfg.Mix) > 0 {
			// Copy before rewriting: cfg.Mix shares its backing array with
			// the caller's Topology.Mix.
			mix := make([]HardwareConfig, len(cfg.Mix))
			for i, m := range cfg.Mix {
				mix[i] = m.WithGPUs(o.gpus)
			}
			cfg.Mix = mix
		}
	}
	f, err := o.resolveFactory()
	if err != nil {
		return nil, err
	}
	if w, err = o.shaped(w); err != nil {
		return nil, err
	}
	cfg.Script, err = o.resolveChaos(func(s ChaosScript) error { return s.Validate(cfg.Nodes) })
	if err != nil {
		return nil, err
	}
	cfg.Trace = o.trace
	return distributed.Run(cfg, w, f)
}
