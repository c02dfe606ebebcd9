// Package loaders provides trainer factories for every data loader in the
// repository, backed by a name-keyed registry so experiments sweep loaders
// uniformly and new backends plug in without editing this package.
//
// The paper's four systems self-register at init time under their report
// names ("pytorch", "pecan", "dali", "minato"), in the paper's comparison
// order. Downstream backends call Register from their own init functions
// and become resolvable by every -loader flag and by the public
// minato.RegisterLoader / minato.Loaders surface.
package loaders

import (
	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/loader/dali"
	"github.com/minatoloader/minato/internal/loader/pecan"
	"github.com/minatoloader/minato/internal/loader/pytorch"
	"github.com/minatoloader/minato/internal/registry"
	"github.com/minatoloader/minato/internal/trainer"
)

var reg = registry.New[trainer.Factory]("loader")

func init() {
	// The paper's four systems with their §5.1 configurations, registered
	// in the paper's comparison order.
	Register(PyTorch(pytorch.DefaultConfig()))
	Register(Pecan())
	Register(DALI(dali.DefaultConfig()))
	Register(Minato(core.DefaultConfig()))
}

// Register adds a loader factory under f.Name. It panics on an empty or
// duplicate name.
func Register(f trainer.Factory) {
	reg.Register(f.Name, f)
}

// ByName returns the registered factory for a loader name.
func ByName(name string) (trainer.Factory, bool) {
	return reg.Lookup(name)
}

// Names returns every registered loader name, sorted.
func Names() []string { return reg.Names() }

// Ordered returns every registered loader name in registration order: the
// paper's comparison order first, then downstream registrations.
func Ordered() []string { return reg.Ordered() }

// PyTorch returns a factory for the PyTorch DataLoader baseline.
func PyTorch(cfg pytorch.Config) trainer.Factory {
	return trainer.Factory{Name: "pytorch", New: func(env *loader.Env, spec loader.Spec) loader.Loader {
		return pytorch.New(env, spec, cfg)
	}}
}

// DALI returns a factory for the DALI baseline.
func DALI(cfg dali.Config) trainer.Factory {
	return trainer.Factory{Name: "dali", New: func(env *loader.Env, spec loader.Spec) loader.Loader {
		return dali.New(env, spec, cfg)
	}}
}

// Pecan returns a factory for the Pecan (AutoOrder) baseline.
func Pecan() trainer.Factory {
	return trainer.Factory{Name: "pecan", New: func(env *loader.Env, spec loader.Spec) loader.Loader {
		return pecan.New(env, spec)
	}}
}

// Minato returns a factory for MinatoLoader.
func Minato(cfg core.Config) trainer.Factory {
	return trainer.Factory{Name: "minato", New: func(env *loader.Env, spec loader.Spec) loader.Loader {
		return core.New(env, spec, cfg)
	}}
}

// Defaults returns the paper's four systems with their §5.1 configurations,
// in the paper's comparison order.
func Defaults() []trainer.Factory {
	out := make([]trainer.Factory, 0, 4)
	for _, name := range []string{"pytorch", "pecan", "dali", "minato"} {
		f, _ := reg.Lookup(name)
		out = append(out, f)
	}
	return out
}
