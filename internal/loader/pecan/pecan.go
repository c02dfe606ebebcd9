// Package pecan implements the Pecan baseline (§2.1, §5.1): the PyTorch
// DataLoader extended with Pecan's AutoOrder policy, which reorders each
// sample's transformation pipeline so deflationary transforms run earlier
// and inflationary ones later, within barrier-delimited sections.
//
// The paper reimplemented AutoOrder in PyTorch for a fair comparison and
// did not use AutoPlacement (it targets disaggregated clusters, not the
// single-server setting evaluated here); this package mirrors that choice.
package pecan

import (
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/loader/pytorch"
	"github.com/minatoloader/minato/internal/transform"
)

// New returns a Pecan loader: PyTorch dispatch/delivery with per-sample
// AutoOrder pipeline rearrangement, on the paper's setup (§5.1): 12 workers,
// prefetch factor 2.
func New(env *loader.Env, spec loader.Spec) *pytorch.Loader {
	return pytorch.New(env, spec, pytorch.Config{
		Workers:        12,
		PrefetchFactor: 2,
		ReorderPolicy:  transform.AutoOrder,
	})
}
