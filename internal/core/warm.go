// Warm path: MinatoLoader in front of a materialized preprocessed-sample
// cache (internal/matcache). Epoch 1 runs the normal Algorithm 1 path and
// materializes every finished sample; epoch 2+ — and co-tenant sessions
// sharing the cluster's cache — hit the cache and skip both the raw storage
// read and the whole transform pipeline, paying only a memory-bandwidth
// restore. Fills are single-flighted: of all workers (across all tenants)
// racing an uncached key, exactly one preprocesses it.
package core

import (
	"context"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/matcache"
	"github.com/minatoloader/minato/internal/trace"
)

// claim looks s's key up in the materialized cache: a hit returns its
// entry; a miss elects this worker leader and returns none, after parking
// behind the current leader's fill as often as it takes.
func (l *Loader) claim(ctx context.Context, s *data.Sample, mk matcache.Key) (matcache.Entry, bool, error) {
	for {
		t0 := l.env.RT.Now()
		e, hit, w := l.mat.GetOrBegin(l.matTenant, mk, l.env.RT)
		if hit {
			l.traceSample(trace.StageMatHit, t0, t0, s)
			return e, true, nil
		}
		if w == nil {
			return e, false, nil
		}
		if err := w.Wait(ctx); err != nil {
			return e, false, err
		}
		l.traceSample(trace.StageMatWait, t0, l.env.RT.Now(), s)
	}
}

// restoreHit delivers a cache hit: the sample skips the raw read and the
// pipeline, paying only the restore of the materialized tensor. Hits bypass
// the profiler — restore times are not preprocessing times and would drag
// the classification timeout toward zero.
func (l *Loader) restoreHit(ctx context.Context, s *data.Sample, e matcache.Entry) error {
	now := l.env.RT.Now()
	s.LoadedAt = now
	s.PreprocStart = now
	if restore := matcache.RestoreCost(e.Bytes); restore > 0 {
		if err := l.env.CPU.Run(ctx, restore); err != nil {
			l.env.Pool.Put(s)
			return err
		}
		s.PreprocCost = restore
	}
	s.Bytes = e.Bytes
	s.NextTransform = l.spec.Pipeline.Len()
	s.PreprocEnd = l.env.RT.Now()
	return l.putFast(ctx, s)
}

// matEntry captures the materialized record of a finished sample: its
// post-pipeline size and the preprocessing compute a future hit saves (the
// sample's measured cost, including any budget-interrupt re-execution).
// Only values are copied — the cache never retains the pooled sample.
func matEntry(s *data.Sample) matcache.Entry {
	return matcache.Entry{Bytes: s.Bytes, Cost: s.PreprocCost}
}
