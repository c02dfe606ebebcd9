package transform

import "github.com/minatoloader/minato/internal/data"

// OrderCache memoizes per-sample pipeline reorderings. Reorder policies in
// the Pecan family are pure functions of each transform's volume
// classification for the sample (Classify), so two samples with the same
// classification signature get byte-identical orders — there is no reason
// to re-run the policy and rebuild a Pipeline per sample, which is exactly
// what the uncached path did (§2.1 runs AutoOrder on every sample).
//
// The contract for cached policies: the returned order must depend on the
// sample only through Classify(t, s) of each transform. Pipelines with more
// than 32 transforms (or policies that need richer sample state) bypass the
// cache by signature overflow.
//
// The zero value is ready to use. Task-only, like the loader that owns it.
type OrderCache struct {
	m map[uint64]*Pipeline
}

// Reordered returns p rearranged by policy for s, memoized by s's
// classification signature.
func (c *OrderCache) Reordered(p *Pipeline, s *data.Sample, policy func([]Transform, *data.Sample) []Transform) *Pipeline {
	ts := p.Transforms()
	sig, ok := classSignature(ts, s)
	if !ok {
		return p.Reordered(policy(ts, s))
	}
	if rp := c.m[sig]; rp != nil {
		return rp
	}
	if c.m == nil {
		c.m = make(map[uint64]*Pipeline)
	}
	rp := p.Reordered(policy(ts, s))
	c.m[sig] = rp
	return rp
}

// classSignature packs each transform's classification for s into two bits.
// ok is false when the pipeline is too long to sign.
func classSignature(ts []Transform, s *data.Sample) (uint64, bool) {
	if len(ts) > 32 {
		return 0, false
	}
	var sig uint64
	for i, t := range ts {
		sig |= uint64(Classify(t, s)+1) << (2 * i)
	}
	return sig, true
}
