package minato

import (
	"fmt"
	"strings"
	"time"

	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trace"
)

// Option configures an entry point of the package: Open, Train (on one
// machine, or across nodes given WithNodes or WithTopology), Cluster.Open,
// Cluster.Train, NewCluster, Serve, Dial or Resume. Every With* constructor
// (and Publish) returns one; each declares, where it is defined, the entry
// points that accept it, and an entry point handed an option outside its
// scope returns a *ConfigError naming the constructor — never a silent
// no-op. README.md has the option × entry-point table. The zero Option is
// rejected everywhere.
type Option struct {
	name  string
	scope entry
	apply func(*options)
}

// entry is a set of entry points: the scope an Option declares, or the one
// entry point a builder runs for. A Train call resolves to atTrain or
// atMultiNode (trainEntry) before its options are checked.
type entry uint16

const (
	atOpen entry = 1 << iota
	atTrain
	atClusterOpen
	atClusterTrain
	atMultiNode
	atNewCluster
	atServe
	atDial
	atResume

	// The groups the constructors spell their scopes with.
	loads    = atOpen | atClusterOpen         // loading sessions: Batches is the consumer
	trains   = atTrain | atClusterTrain       // single-machine training runs
	runs     = loads | trains | atMultiNode   // everything that builds a loader
	implicit = atOpen | atTrain | atMultiNode // entry points that build their own substrate
)

// entryPoint is one row of the scope table's header: an entry point's name,
// as the README table spells it, and the sentence a *ConfigError gives for an
// option that does not belong there.
type entryPoint struct {
	at         entry
	name, rule string
}

var entryPoints = [...]entryPoint{
	{atOpen, "Open", "Open starts one loading session on its own single machine"},
	{atTrain, "Train", "Train runs a workload, with the workload's pipeline and seed, on its own testbed and runtime"},
	{atClusterOpen, "Cluster.Open", "cluster-owned: a session of an explicit Cluster runs on the substrate NewCluster sized"},
	{atClusterTrain, "Cluster.Train", "cluster-owned: a training run on an explicit Cluster uses the substrate NewCluster sized and the workload's pipeline and seed"},
	{atMultiNode, "Train (multi-node)", "a multi-node Train (WithNodes, WithTopology) sizes its nodes with WithHardware or Topology.Node, owns its runtime and batches, and has no co-tenants"},
	{atNewCluster, "NewCluster", "NewCluster sizes the shared substrate and its admission; what a session streams is set where it opens"},
	{atServe, "Serve", "Serve configures the server's front end; its cluster is configured by NewCluster and each stream by the client's Dial"},
	{atDial, "Dial", "Dial shapes one remote stream; pipeline, loader and substrate are the server's"},
	{atResume, "Resume", "pinned by the checkpoint: Resume changes tenancy, batch retention and chaos only"},
}

// rule returns the sentence of the one entry point e.
func (e entry) rule() string {
	for _, ep := range entryPoints {
		if ep.at == e {
			return ep.rule
		}
	}
	return ""
}

// names lists the entry points in e, in table order.
func (e entry) names() string {
	var out []string
	for _, ep := range entryPoints {
		if e&ep.at != 0 {
			out = append(out, ep.name)
		}
	}
	return strings.Join(out, ", ")
}

// options is what every Option writes into: the one accumulator behind all
// nine entry points. Fields left at their zero value take the documented
// defaults.
type options struct {
	// What is streamed.
	pipeline   *Pipeline
	batchSize  int
	iterations int
	epochs     int
	seed       uint64
	retain     bool
	// skip fast-forwards a session past its first batches — set only by
	// Resume, never by a public option.
	skip int

	// Which loader builds it.
	loaderName string
	factory    *Factory
	loaderCfg  *Config

	// The substrate it runs on.
	hw       *HardwareConfig
	env      *EnvConfig
	gpus     int
	rt       *Runtime
	matBytes int64
	trace    *trace.Recorder
	topo     *Topology

	// Tenancy.
	weight      float64
	prioritySet bool
	maxSessions int
	admission   AdmissionPolicy

	// What a run records and what is injected into it.
	params    Params
	chaos     *ChaosScript
	chaosName string

	// A server's front end.
	net        *ServiceNet
	tokens     map[string]TokenQuota
	sendWindow int
	maxStreams int
	published  map[string]published

	// A client's side of one remote stream.
	stream     string
	token      string
	prefetch   int
	hedge      *ServerAddr
	hedgeDelay time.Duration
	retries    int
	backoff    time.Duration
}

// build applies opts for the entry point at — refusing any outside its scope
// — and checks the values. Every failure is a *ConfigError so callers can
// errors.As on misuse.
func build(at entry, opts []Option) (*options, error) {
	o := &options{seed: 1, weight: 1, prefetch: 4}
	for _, opt := range opts {
		if opt.apply == nil {
			return nil, configErr("Option", "the zero Option; build options with the With* constructors")
		}
		if opt.scope&at == 0 {
			return nil, configErr(opt.name, fmt.Sprintf("%s; %s applies to %s", at.rule(), opt.name, opt.scope.names()))
		}
		opt.apply(o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// validate checks option values and conflicts. A field no in-scope option
// could have set is at its default and passes.
func (o *options) validate() error {
	switch {
	case o.batchSize < 0:
		return configErr("WithBatchSize", fmt.Sprintf("batch size %d < 0", o.batchSize))
	case o.iterations < 0:
		return configErr("WithIterations", fmt.Sprintf("iteration budget %d < 0", o.iterations))
	case o.epochs < 0:
		return configErr("WithEpochs", fmt.Sprintf("epoch budget %d < 0", o.epochs))
	case o.gpus < 0:
		return configErr("WithGPUs", fmt.Sprintf("GPU count %d < 0", o.gpus))
	case o.prioritySet && o.weight <= 0:
		return configErr("WithPriority", fmt.Sprintf("weight %g must be positive", o.weight))
	case o.matBytes < 0:
		return configErr("WithMaterializedCache", fmt.Sprintf("capacity %d < 0", o.matBytes))
	case o.maxSessions < 0:
		return configErr("WithMaxSessions", fmt.Sprintf("session cap %d < 0", o.maxSessions))
	case o.rt != nil && o.rt.k == nil:
		return configErr("WithRuntime", "the zero Runtime runs nothing; take one from Cluster.Runtime, Session.Runtime or ServiceNet.Runtime")
	case o.hw != nil && o.env != nil:
		return configErr("WithHardware/WithEnv", "mutually exclusive")
	case o.factory != nil && o.loaderName != "":
		return configErr("WithLoader/WithLoaderFactory", "mutually exclusive")
	case o.loaderCfg != nil && o.loaderName != "" && o.loaderName != "minato":
		return configErr("WithLoaderConfig",
			fmt.Sprintf("WithLoaderConfig configures the minato loader, but %q is selected", o.loaderName))
	case o.loaderCfg != nil && o.factory != nil:
		return configErr("WithLoaderConfig/WithLoaderFactory", "mutually exclusive")
	case o.chaos != nil && o.chaosName != "":
		return configErr("WithChaos/WithChaosScenario", "mutually exclusive")
	case o.sendWindow < 0:
		return configErr("WithSendWindow", fmt.Sprintf("window %d < 0", o.sendWindow))
	case o.maxStreams < 0:
		return configErr("WithServerMaxStreams", fmt.Sprintf("cap %d < 0", o.maxStreams))
	case o.prefetch <= 0:
		return configErr("WithPrefetch", fmt.Sprintf("depth %d must be positive", o.prefetch))
	case o.retries < 0:
		return configErr("WithDialRetry", fmt.Sprintf("attempts %d < 0", o.retries))
	}
	return nil
}

// resolveFactory picks the loader factory: an explicit factory first, then
// a custom-configured MinatoLoader, then the registry by name, defaulting
// to "minato".
func (o *options) resolveFactory() (Factory, error) {
	if o.factory != nil {
		return *o.factory, nil
	}
	name := o.loaderName
	if name == "" {
		name = "minato"
	}
	if o.loaderCfg != nil {
		return loaders.Minato(*o.loaderCfg), nil
	}
	f, ok := loaders.ByName(name)
	if !ok {
		return Factory{}, configErr("WithLoader", fmt.Sprintf("unknown loader %q (registered: %s)",
			name, strings.Join(loaders.Names(), ", ")))
	}
	return f, nil
}

// resolveChaos resolves WithChaos / WithChaosScenario into a script and holds
// it to the run's shape: fits is Script.Validate for a session or multi-node
// job, Serve's own rule for a server. What fits refuses comes back as a
// *ConfigError under the option the script came from. The zero script passes
// through unchecked.
func (o *options) resolveChaos(fits func(chaos.Script) error) (chaos.Script, error) {
	var s chaos.Script
	opt := "WithChaos"
	switch {
	case o.chaos != nil:
		s = *o.chaos
	case o.chaosName != "":
		opt = "WithChaosScenario"
		var ok bool
		s, ok = chaos.ByName(o.chaosName)
		if !ok {
			return chaos.Script{}, configErr(opt, fmt.Sprintf("unknown scenario %q (registered: %s)",
				o.chaosName, strings.Join(chaos.Names(), ", ")))
		}
	default:
		return chaos.Script{}, nil
	}
	if err := fits(s); err != nil {
		return chaos.Script{}, configErr(opt, err.Error())
	}
	return s, nil
}
