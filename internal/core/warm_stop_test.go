package core

import (
	"context"
	"testing"

	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/matcache"
)

// Stopping a warm loader with slow samples still parked in the temp queue
// must abort their matcache leader claims. leadFill parks such samples with
// the claim deliberately unsettled (finishSlow settles it), so an early
// Stop — an iteration budget ending mid-epoch — would otherwise strand the
// keys inflight in the cluster-shared cache, and every co-tenant or later
// session missing on the same (key, signature) would park forever on a fill
// that will never complete.
func TestStopAbortsParkedWarmClaims(t *testing.T) {
	h := newHarness(8, 1)
	h.env.Mat = matcache.New(64 << 30)
	h.k.Run(func() {
		l := New(h.env, bimodalSpec(6, 2), DefaultConfig())
		ctx := context.Background()

		// Reproduce leadFill's slow park by hand: claim leadership for two
		// keys and park their samples, settlement deferred to a finishSlow
		// that will never run because the loader stops first.
		var keys []matcache.Key
		for i := 0; i < 2; i++ {
			s := loader.FillSample(h.env, l.spec, loader.IndexItem{Index: i, Seq: int64(i)})
			s.MarkedSlow = true
			mk := matcache.Key{Obj: s.Key, Sig: l.matSig}
			if _, hit := l.mat.GetOrBegin(l.matTenant, mk, h.env.RT); hit {
				t.Fatalf("key %v: expected leadership", mk.Obj)
			}
			if err := l.tempQ.Put(ctx, s); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, mk)
		}

		l.Stop()

		// Every parked claim must be settled: a fresh miss elects a new
		// leader instead of parking behind the dead fill. The look's context
		// is done, so a park there returns at once, with its error.
		done, cancel := context.WithCancel(ctx)
		cancel()
		for _, mk := range keys {
			_, hit, err := l.mat.GetOrWait(done, l.matTenant, mk, h.env.RT, nil)
			if err != nil {
				t.Fatalf("key %v still has an orphaned inflight claim after Stop", mk.Obj)
			}
			if hit {
				t.Fatalf("key %v: aborted fill was published as a hit", mk.Obj)
			}
			l.mat.Abort(mk) // settle the probe's own leadership
		}
	})
}
