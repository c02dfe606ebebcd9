package minato

import (
	"fmt"
	"time"
)

// Checkpoint is a restartable snapshot of a session's progress: how many
// batches it has delivered (and therefore the exact epoch, step, and shuffle
// position), plus everything needed to rebuild the stream — dataset,
// pipeline, loader, budget, seed. The snapshot pins the cluster it was taken
// on, so the page cache and the materialized preprocessed-sample cache stay
// warm across the restore; a resumed session picks up against caches its
// predecessor already filled.
//
//	sess, _ := minato.Open(ds, minato.WithChaos(minato.PreemptFor(2*time.Second, 0)))
//	for b, err := range sess.Batches(ctx) {
//	    if errors.Is(err, minato.ErrPreempted) { break }
//	    ...
//	}
//	ck, _ := sess.Checkpoint()
//	sess.Close()
//	resumed, _ := minato.Resume(ck)       // continues at the exact next batch
//	for b, err := range resumed.Batches(ctx) { ... }
//	rep, _ := resumed.Close()             // rep.RecoveryTime() > 0
//
// A checkpoint is single-use: Resume consumes it, and Close discards an
// unconsumed one (releasing the cluster if the checkpoint owns it). Because
// the index stream is a pure function of (seed, epoch), the restore is
// exact — the resumed session delivers precisely the draws the original
// never did, in the original shuffle order, and the two sessions' batch
// counts always sum to the original budget.
type Checkpoint struct {
	// consumed: Resume or Close has taken the checkpoint; the kernel's,
	// like the cluster's tenancy.
	consumed bool

	cl   *Cluster
	owns bool

	dataset Dataset
	factory Factory
	// spec is the original session spec with Skip advanced to the absolute
	// number of batches delivered so far — the whole restore state.
	spec    Spec
	retain  bool
	weight  float64
	gpus    int
	takenAt time.Duration
}

// Checkpoint snapshots the session's restartable progress. Take it after the
// Batches stream has ended — a terminal preemption (ErrPreempted), a break,
// or natural completion — and before Close. Taking a checkpoint transfers
// ownership of an implicit (standalone-Open) cluster from the session to the
// checkpoint, so Close tears down the session's tenancy but leaves the warm
// caches alive for Resume.
func (s *Session) Checkpoint() (ck *Checkpoint, err error) {
	s.rt.k.Do(func() {
		if s.cl.closed {
			err = ErrClusterClosed
			return
		}
		ck = &Checkpoint{
			cl:      s.cl,
			owns:    s.ownsCluster,
			dataset: s.spec.Dataset,
			factory: s.factory,
			spec:    s.spec,
			retain:  s.retain,
			weight:  s.stats.Priority,
			gpus:    len(s.gpuIdxs),
			takenAt: s.rt.Now(),
		}
		ck.spec.Skip = s.spec.Skip + int(s.batches)
		// The checkpoint now keeps the substrate alive, not the session.
		s.ownsCluster = false
	})
	return ck, err
}

// TakenAt returns the virtual time the checkpoint was taken.
func (ck *Checkpoint) TakenAt() time.Duration { return ck.takenAt }

// Batches returns the absolute number of batches delivered up to the
// checkpoint, counted from the very first session (resumes compound).
func (ck *Checkpoint) Batches() int { return ck.spec.Skip }

// Epoch returns the epoch the next delivered batch belongs to.
func (ck *Checkpoint) Epoch() int { return ck.spec.Skip / ck.spec.BatchesPerEpoch() }

// Step returns the next batch's step index within its epoch.
func (ck *Checkpoint) Step() int { return ck.spec.Skip % ck.spec.BatchesPerEpoch() }

// Remaining returns how many batches of the original budget are still
// undelivered — what a resumed session will stream.
func (ck *Checkpoint) Remaining() int { return ck.spec.TotalBatches() }

// Cache snapshots the pinned cluster's page cache — the warm state a
// resumed session inherits.
func (ck *Checkpoint) Cache() (st CacheStats) {
	ck.cl.rt.k.Do(func() { st = ck.cl.tb.Cache.Stats() })
	return st
}

// MatCache snapshots the pinned cluster's materialized preprocessed-sample
// cache (zero when WithMaterializedCache is not enabled).
func (ck *Checkpoint) MatCache() (st CacheStats) {
	ck.cl.rt.k.Do(func() { st = ck.cl.mat.Stats() })
	return st
}

// Close discards an unconsumed checkpoint, closing the cluster it owns (the
// implicit cluster of a standalone Open). Idempotent; a no-op after Resume,
// which takes the ownership over.
func (ck *Checkpoint) Close() error {
	ck.cl.do(func() {
		if !ck.consumed && ck.owns {
			ck.cl.close()
		}
		ck.consumed = true
	})
	return nil
}

// Resume restores a checkpointed session on the checkpoint's still-warm
// cluster: the new session fast-forwards the index stream to the exact next
// batch — same epoch numbering, same shuffle order — and delivers the
// remaining budget. Its Report records the restore as a resume fault whose
// recovery runs to the first delivered batch, so RecoveryTime() measures
// checkpoint recovery the same way it measures in-run fault recovery.
//
// The stream identity and the cluster are pinned by the checkpoint: options
// that would change what is delivered, by which loader or on what substrate
// are *ConfigError here. Tenancy, batch retention and chaos (WithPriority,
// WithGPUs, WithRetainBatches, WithChaos, WithChaosScenario) may differ from
// the original session. Resume consumes the checkpoint; a second Resume is a
// *ConfigError.
func Resume(ck *Checkpoint, opts ...Option) (*Session, error) {
	if ck == nil {
		return nil, configErr("Resume", "nil checkpoint")
	}
	o, err := build(atResume, opts)
	if err != nil {
		return nil, err
	}
	if ck.spec.TotalBatches() <= 0 {
		return nil, configErr("Resume",
			fmt.Sprintf("checkpoint has no remaining budget (all %d batches delivered)", ck.spec.Skip))
	}

	// Overlay the snapshot: the resumed stream is the original stream minus
	// its delivered prefix.
	o.skip = ck.spec.Skip
	o.pipeline = ck.spec.Pipeline
	o.batchSize = ck.spec.BatchSize
	o.epochs = ck.spec.Epochs
	o.iterations = ck.spec.Iterations
	o.seed = ck.spec.Seed
	fac := ck.factory
	o.factory = &fac
	o.retain = ck.retain || o.retain
	if !o.prioritySet {
		o.weight = ck.weight
	}
	if o.gpus == 0 {
		o.gpus = ck.gpus
	}

	// The checkpoint is taken in the same kernel entry that opens the
	// resumed session.
	var sess *Session
	queued(func() (wait chan struct{}) {
		ck.cl.do(func() {
			if ck.consumed {
				err = configErr("Resume", "checkpoint already consumed")
			} else if sess, wait, err = ck.cl.open(ck.dataset, o, ck.owns, false); sess != nil {
				sess.ledger.Restored()
				ck.consumed = true
			}
		})
		return wait
	})
	return sess, err
}
