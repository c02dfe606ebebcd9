package netsim

import (
	"context"

	"github.com/minatoloader/minato/internal/simtime"
)

// Ring performs bandwidth-faithful ring all-reduce over a fabric: the
// gradient is split into one chunk per member, and in each of the
// 2·(n−1) phases every member sends its current chunk to its ring
// successor — the reduce-scatter + all-gather schedule of NCCL-style
// collectives. Per member this moves 2·bytes·(n−1)/n over its NIC, the
// same volume the closed-form ring model charges, but as real flows:
// transfers contend with whatever else crosses the NICs (remote dataset
// fetches, a degraded link), and a slow phase anywhere delays every
// member, because phases are data-dependent.
//
// One Ring is shared by all members and reused across steps. Members must
// enter AllReduce together (the caller synchronizes steps with its own
// barrier); a member that fails mid-collective breaks the phase barrier so
// the others unwind instead of waiting forever.
type Ring struct {
	f       *Fabric
	members []int
	phase   *simtime.Barrier
}

// NewRing returns a ring over the given fabric endpoints. Rings of one
// member are legal and reduce to a no-op.
func NewRing(rt *simtime.Virtual, f *Fabric, members []int) *Ring {
	r := &Ring{f: f, members: members}
	if len(members) > 1 {
		r.phase = simtime.NewBarrier(rt, len(members))
	}
	return r
}

// AllReduce runs one collective for the member at the given rank, moving a
// gradient of the given byte size. Every member must call it once per
// step. The error is ctx.Err() on cancellation, or ErrBarrierBroken when
// another member failed mid-collective.
func (r *Ring) AllReduce(ctx context.Context, rank int, bytes int64) error {
	n := len(r.members)
	if n <= 1 || bytes <= 0 {
		return nil
	}
	chunk := bytes / int64(n)
	if chunk <= 0 {
		chunk = 1
	}
	src := r.members[rank]
	dst := r.members[(rank+1)%n]
	for phase := 0; phase < 2*(n-1); phase++ {
		if err := r.f.Transfer(ctx, src, dst, chunk); err != nil {
			r.phase.Break()
			return err
		}
		if _, err := r.phase.Wait(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Break releases members parked in the collective; used when a rank exits
// early (end of its shard) while siblings are mid-phase.
func (r *Ring) Break() {
	if r.phase != nil {
		r.phase.Break()
	}
}
