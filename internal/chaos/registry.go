package chaos

import (
	"time"

	"github.com/minatoloader/minato/internal/registry"
)

// The scenario registry is the loader and workload registries' kind: named
// Script builders, so an experiment or CLI flag selects a failure scenario
// by one string and compositions stay one-liners.
var reg = registry.New[func() Script]("chaos scenario")

// Register adds a named scenario builder. It panics on an empty or
// duplicate name.
func Register(name string, build func() Script) { reg.Register(name, build) }

// ByName builds a registered scenario.
func ByName(name string) (Script, bool) {
	build, ok := reg.Lookup(name)
	if !ok {
		return Script{}, false
	}
	s := build()
	if s.Name == "" {
		s.Name = name
	}
	return s, true
}

// Names lists the registered scenarios, sorted.
func Names() []string { return reg.Names() }

// Built-in scenarios. Multi-node ones target low ranks so they fit any
// cluster of ≥ 4 nodes; times suit runs of tens of seconds of virtual
// time (a few hundred iterations).
func init() {
	// The acceptance scenario: node 3 crashes at t=5s and rejoins at t=8s.
	Register("node-crash", func() Script {
		return CrashNode(3, 5*time.Second, 8*time.Second)
	})
	Register("link-flap", func() Script {
		return FlapLink(1, 2*time.Second, 8, 2*time.Second)
	})
	Register("disk-brownout", func() Script {
		return BrownoutDisk(2*time.Second, 8, 3*time.Second)
	})
	Register("worker-stall", func() Script {
		return StallWorkers(0, 2*time.Second, 2, 2*time.Second)
	})
	Register("preempt-resume", func() Script {
		return PreemptFor(2*time.Second, 2*time.Second)
	})
	// Everything at once: the "8-node hetero mix + straggler + link flap
	// at t=2s + node 3 crash at t=5s" churn storm (pair it with a
	// Topology carrying the hetero mix and stragglers).
	Register("churn-storm", func() Script {
		return Compose("churn-storm",
			FlapLink(1, 2*time.Second, 8, 2*time.Second),
			CrashNode(3, 5*time.Second, 8*time.Second),
			BrownoutDisk(6*time.Second, 4, 2*time.Second),
		)
	})
}
