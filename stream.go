package minato

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

const (
	sessionNew int32 = iota
	sessionConsumed
	sessionClosed
)

// source is where a stream's batches come from: a Session's loader on the
// local substrate, or a RemoteSession's client over the service fabric.
// ready runs before the stream's single use is taken, from any goroutine;
// the rest run on a task of the stream's kernel.
type source interface {
	// ready refuses a stream whose far side is already gone.
	ready() error
	// start begins delivery; once it has succeeded, stop is owed.
	start(ctx context.Context) error
	// next returns the next batch, or io.EOF when the budget is delivered.
	next(ctx context.Context) (*Batch, error)
	// stop tears delivery down, releasing what was produced and not taken.
	stop()
}

// stream is what a Session and a RemoteSession are underneath: the single-use
// state, the first error, the delivery stamps and counters, and the one batch
// pump over a source. A server's streams drive the same core batch by batch
// (claim, begin, pull, end) where Batches drives it as a loop.
type stream struct {
	rt     Runtime
	src    source
	retain bool

	// inline makes Batches run its loop on the caller's already-tracked
	// task instead of wrapping a v.Run — set by StreamAll.
	inline atomic.Bool

	state   atomic.Int32
	begun   bool // the kernel's: src.start succeeded and src.stop is owed
	err     error
	startAt atomic.Int64 // time.Duration
	endAt   atomic.Int64 // time.Duration
	batches atomic.Int64
	samples atomic.Int64
	bytes   atomic.Int64
}

// claim takes the stream's single use.
func (s *stream) claim() error {
	if s.state.Load() == sessionClosed {
		return ErrSessionClosed
	}
	if err := s.src.ready(); err != nil {
		return err
	}
	if !s.state.CompareAndSwap(sessionNew, sessionConsumed) {
		return ErrSessionConsumed
	}
	return nil
}

// begin stamps the stream's start and starts its source.
func (s *stream) begin(ctx context.Context) error {
	now := int64(s.rt.Now())
	s.startAt.Store(now)
	s.endAt.Store(now)
	if err := s.src.start(ctx); err != nil {
		s.err = err
		return err
	}
	s.begun = true
	return nil
}

// pull takes and counts the next batch; io.EOF is the end of the budget, any
// other error the stream's.
func (s *stream) pull(ctx context.Context) (*Batch, error) {
	b, err := s.src.next(ctx)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			s.err = err
		}
		return nil, err
	}
	s.batches.Add(1)
	s.samples.Add(int64(b.Size()))
	s.bytes.Add(b.Bytes())
	s.endAt.Store(int64(s.rt.Now()))
	return b, nil
}

// end stops a begun source, once.
func (s *stream) end() {
	if s.begun {
		s.begun = false
		s.src.stop()
	}
}

// pump is Batches for both session types.
func (s *stream) pump(ctx context.Context) iter.Seq2[*Batch, error] {
	return func(yield func(*Batch, error) bool) {
		if err := s.claim(); err != nil {
			yield(nil, err)
			return
		}
		runOnKernel(s, func() {
			if err := ctx.Err(); err != nil {
				s.err = err
				yield(nil, err)
				return
			}
			if err := s.begin(ctx); err != nil {
				yield(nil, err)
				return
			}
			defer s.end()
			var prev *Batch
			var prevGen uint32
			for {
				b, err := s.pull(ctx)
				if err != nil {
					if !errors.Is(err, io.EOF) {
						yield(nil, err)
					}
					return
				}
				// The previously yielded batch is out of its validity window
				// once the loop asks for the next one: recycle it — unless
				// the loop body already released it itself (the generation
				// guard leaves a batch we no longer own alone).
				if prev != nil && !s.retain {
					prev.ReleaseIfOwned(prevGen)
				}
				prev, prevGen = b, b.Generation()
				if !yield(b, nil) {
					return
				}
			}
		})
	}
}

// report assembles what both session types report from the stream's own
// stamps and counters.
func (s *stream) report(workload, loader string, gpus int) *Report {
	return &Report{
		Workload:     workload,
		Loader:       loader,
		GPUs:         gpus,
		TrainTime:    time.Duration(s.endAt.Load() - s.startAt.Load()),
		Batches:      s.batches.Load(),
		Samples:      s.samples.Load(),
		TrainedBytes: s.bytes.Load(),
	}
}

func (s *stream) kernel() (Runtime, *atomic.Bool) { return s.rt, &s.inline }

// streamer is a session type StreamAll can drive: its runtime, and the flag
// that makes its Batches loop run on the calling task.
type streamer interface {
	kernel() (Runtime, *atomic.Bool)
}

// runOnKernel executes fn as a tracked task of the session's kernel
// (simtime.Virtual.Run) — the only place code that parks may run — and blocks
// until it returns, or is a plain call when StreamAll already put the caller
// on a task. Code that touches kernel-owned state (caches, disk, fabric,
// loaders) without parking uses Runtime.Do instead; neither is for callers
// that are themselves tasks.
func runOnKernel(s streamer, fn func()) {
	rt, inline := s.kernel()
	if inline.Load() {
		fn()
		return
	}
	rt.Run(fn)
}

// StreamAll consumes many sessions of one runtime — the Sessions of a
// Cluster, or RemoteSessions dialed over one fabric — concurrently on one
// kernel: each fn(i, session) runs as its own tracked task, all entered at
// the same virtual instant in slice order, so virtual time advances with
// every consumer's traffic interleaved and the run is deterministic (N
// goroutines each ranging over their own Batches enter the kernel in
// whatever order the OS starts them). fn bodies share the kernel's single
// thread of control: one must not block on a Go primitive waiting for
// another.
func StreamAll[S streamer](ctx context.Context, sessions []S, fn func(i int, s S)) {
	if len(sessions) == 0 {
		return
	}
	rt, _ := sessions[0].kernel()
	rt.Run(func() {
		wg := simtime.NewWaitGroup(rt)
		for i, s := range sessions {
			_, inline := s.kernel()
			inline.Store(true)
			wg.Go(fmt.Sprintf("svc-stream-%d", i), func() { fn(i, s) })
		}
		_ = wg.Wait(ctx)
	})
	for _, s := range sessions {
		_, inline := s.kernel()
		inline.Store(false)
	}
}
