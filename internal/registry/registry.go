// Package registry provides the generic named-plugin registry behind the
// public API's loader, workload and chaos-scenario registration, and the
// experiment index: a concurrency-safe map
// from name to implementation that remembers registration order, so
// enumeration can present entries the way the paper lists them while
// lookup stays by name.
//
// Each pluggable vocabulary (data loaders, workloads, chaos scenarios,
// experiments) owns one Registry
// instance next to its types; the registry itself is dependency-free so it
// cannot create import cycles between the packages that populate it.
package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Registry is a named collection of T. The zero value is not usable; use
// New.
type Registry[T any] struct {
	kind string

	mu     sync.RWMutex
	byName map[string]T
	order  []string
}

// New returns an empty registry. kind names the entry type in panic
// messages ("loader", "workload").
func New[T any](kind string) *Registry[T] {
	return &Registry[T]{kind: kind, byName: make(map[string]T)}
}

// Register adds v under name. It panics on an empty name or a duplicate:
// registration happens at init time (or in deliberate test setup), where a
// collision is a programming error that must not be silently resolved by
// load order.
func (r *Registry[T]) Register(name string, v T) {
	if name == "" {
		panic(fmt.Sprintf("registry: empty %s name", r.kind))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("registry: duplicate %s %q", r.kind, name))
	}
	r.byName[name] = v
	r.order = append(r.order, name)
}

// Lookup returns the entry registered under name.
func (r *Registry[T]) Lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byName[name]
	return v, ok
}

// Names returns every registered name, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	sort.Strings(names)
	return names
}

// Ordered returns every registered name in registration order — the order
// built-ins present themselves (e.g. the paper's comparison order).
func (r *Registry[T]) Ordered() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	return names
}

// Len returns the number of registered entries.
func (r *Registry[T]) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}
