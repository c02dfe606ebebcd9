// Package transform implements the preprocessing pipelines of the paper's
// Table 1 as cost-model transforms, and the Pipeline execution engine with
// the budget/resume semantics of Algorithm 1.
//
// A Transform declares, for a sample in its current state, how much
// full-speed compute it needs (Cost) and how it changes the sample's size
// (SizeFactor). Executing a transform occupies a device (a CPU pool or a
// GPU) for the cost duration under that device's contention model. The
// pipeline can run with a budget: if a transform would exceed the remaining
// budget, the worker consumes exactly the remaining budget (the partially
// applied transform of Algorithm 1) and returns with the sample's
// NextTransform pointing at the interrupted transform, which a background
// worker later re-executes in full.
package transform

import (
	"errors"
	"time"

	"github.com/minatoloader/minato/internal/data"
)

// Transform is one preprocessing step.
type Transform interface {
	// Name identifies the transform (Table 1 names).
	Name() string
	// Cost returns the full-speed compute this transform needs for s in its
	// current state. It must be deterministic in s.
	Cost(s *data.Sample) time.Duration
	// SizeFactor returns the multiplicative effect on s.Bytes.
	SizeFactor(s *data.Sample) float64
	// Barrier reports whether reordering may cross this transform
	// (Pecan §2.1: sections are delimited by barrier transforms).
	Barrier() bool
}

// ErrInterrupted is returned by Plan when the budget expired
// mid-transform; the sample's NextTransform records the resume point.
var ErrInterrupted = errors.New("transform: interrupted by budget")

// Validator is an optional Transform extension for rejecting samples before
// compute is spent on them — the cost-model analogue of a decode or schema
// failure on a corrupt sample. When a transform implements it, Validate runs
// before the transform executes; a non-nil error aborts the sample's
// preprocessing with that error (no panic). Loaders treat such failures as
// per-sample faults: the sample is abandoned and counted, the worker keeps
// serving.
type Validator interface {
	Validate(s *data.Sample) error
}

// Pipeline is an ordered list of transforms.
type Pipeline struct {
	name string
	ts   []Transform
	sig  uint64
	// vals[i] is ts[i]'s Validator, nil when not implemented — resolved at
	// construction to keep the execution loop free of type assertions.
	vals []Validator
}

// NewPipeline returns a pipeline with the given transforms.
func NewPipeline(name string, ts ...Transform) *Pipeline {
	vals := make([]Validator, len(ts))
	for i, t := range ts {
		if v, ok := t.(Validator); ok {
			vals[i] = v
		}
	}
	return &Pipeline{name: name, ts: ts, sig: signature(ts), vals: vals}
}

// Name returns the pipeline name.
func (p *Pipeline) Name() string { return p.name }

// Signature returns a stable hash identifying what the pipeline computes,
// for keying caches of preprocessed outputs across sessions and tenants.
//
// Two pipelines share a signature exactly when they apply the same multiset
// of transforms (identified by Name) within each barrier-delimited section,
// with sections and barriers in the same order. Reorderings that the Pecan
// policies may legally produce — permutations within a section — therefore
// preserve the signature (Reordered and AutoOrder outputs hash equal to
// their source pipeline), while adding, removing, or substituting a
// transform, or moving one across a barrier, changes it. The pipeline name
// is deliberately excluded: it labels, it does not compute.
//
// The hash is pure FNV-1a over transform names, commutatively summed within
// a section and chained across sections, so it is stable across processes
// and runs. Custom transforms must give semantically different steps
// different names for signatures to distinguish them.
func (p *Pipeline) Signature() uint64 { return p.sig }

// signature implements the hash documented on Signature: per-section
// commutative sums of each transform's FNV-1a name hash, mixed in section
// order, with barrier transforms chained as section delimiters.
func signature(ts []Transform) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	nameHash := func(s string) uint64 {
		h := uint64(offset64)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
		return h
	}
	h := uint64(offset64)
	mix := func(v uint64) {
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ (v >> shift & 0xff)) * prime64
		}
	}
	var section uint64
	open := false
	for _, t := range ts {
		if t.Barrier() {
			if open {
				mix(section)
				section, open = 0, false
			}
			mix(nameHash(t.Name()) ^ 1) // tagged so a barrier never hashes like a 1-transform section
			continue
		}
		section += nameHash(t.Name())
		open = true
	}
	if open {
		mix(section)
	}
	return h
}

// Transforms returns the transform list (not a copy; do not mutate).
func (p *Pipeline) Transforms() []Transform { return p.ts }

// Len returns the number of transforms.
func (p *Pipeline) Len() int { return len(p.ts) }

// TotalCost returns the full pipeline compute cost for a fresh sample,
// simulating the size changes along the way, without executing anything.
// Used by profilers and tests.
func (p *Pipeline) TotalCost(s *data.Sample) time.Duration {
	c := s.Clone()
	var total time.Duration
	for _, t := range p.ts {
		total += t.Cost(c)
		c.Bytes = int64(float64(c.Bytes) * t.SizeFactor(c))
	}
	return total
}

// Plan walks the remaining transforms of s, accounting each step on the
// sample, and returns the compute they need and what ended the walk: nil, a
// Validator's rejection (the work is the steps before it), or ErrInterrupted
// when a transform would exceed budget (≥ 0; the work is then the budget,
// Algorithm 1's partial application, and s.NextTransform the transform to
// re-execute in full, lines 11 & 16-17). Costs and size effects are pure
// functions of the sample, so the caller occupies its device once for the
// whole walk — one occupancy per walk instead of one per transform, with
// identical virtual-time occupancy (the per-step executions it replaces were
// back-to-back on the same device at the same per-task rate). The walk runs
// the transforms' Validate, Cost and SizeFactor: user code, which may panic.
func (p *Pipeline) Plan(s *data.Sample, budget time.Duration) (time.Duration, error) {
	var spent time.Duration
	for i := s.NextTransform; i < len(p.ts); i++ {
		t := p.ts[i]
		if v := p.vals[i]; v != nil {
			if err := v.Validate(s); err != nil {
				return spent, err
			}
		}
		c := t.Cost(s)
		if budget >= 0 && spent+c > budget {
			s.PreprocCost += budget - spent
			s.NextTransform = i
			return budget, ErrInterrupted
		}
		spent += c
		s.PreprocCost += c
		s.Bytes = int64(float64(s.Bytes) * t.SizeFactor(s))
		s.NextTransform = i + 1
	}
	return spent, nil
}

// Reordered returns a new pipeline with the given transform order. The
// transforms must be a permutation of the pipeline's own.
func (p *Pipeline) Reordered(ts []Transform) *Pipeline {
	return NewPipeline(p.name+"+reordered", ts...)
}

// Classification of a transform's effect on data volume (Pecan §2.1).
type Classification int

const (
	// Deflationary transforms reduce data volume (sampling, cropping).
	Deflationary Classification = iota
	// Neutral transforms keep the volume unchanged.
	Neutral
	// Inflationary transforms increase data volume (padding, one-hot).
	Inflationary
)

// Classify categorizes a transform for a sample in a given state.
func Classify(t Transform, s *data.Sample) Classification {
	f := t.SizeFactor(s)
	switch {
	case f < 0.999:
		return Deflationary
	case f > 1.001:
		return Inflationary
	default:
		return Neutral
	}
}

// AutoOrder implements Pecan's AutoOrder policy: within each section
// delimited by barrier transforms, deflationary transforms move earlier and
// inflationary transforms move later, preserving relative order within each
// class. Classification is per-sample, using the sample's raw state (the
// paper classifies Resize dynamically by whether it inflates the input).
func AutoOrder(ts []Transform, s *data.Sample) []Transform {
	out := make([]Transform, 0, len(ts))
	section := make([]Transform, 0, len(ts))
	flush := func() {
		var defl, neut, infl []Transform
		for _, t := range section {
			switch Classify(t, s) {
			case Deflationary:
				defl = append(defl, t)
			case Inflationary:
				infl = append(infl, t)
			default:
				neut = append(neut, t)
			}
		}
		out = append(out, defl...)
		out = append(out, neut...)
		out = append(out, infl...)
		section = section[:0]
	}
	for _, t := range ts {
		if t.Barrier() {
			flush()
			out = append(out, t)
			continue
		}
		section = append(section, t)
	}
	flush()
	return out
}
