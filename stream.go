package minato

import (
	"context"
	"errors"
	"io"
	"iter"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

const (
	sessionNew int32 = iota
	sessionConsumed
	sessionClosed
)

// source is where a stream's batches come from: a Session's loader on the
// local substrate, or a RemoteSession's client over the service fabric. Its
// methods run on the stream's kernel.
type source interface {
	// ready refuses a stream whose far side is already gone.
	ready() error
	// start begins delivery; once it has succeeded, stop is owed.
	start(ctx context.Context) error
	// next returns the next batch, or io.EOF when the budget is delivered.
	next(ctx context.Context) (*Batch, error)
	// stop tears delivery down, releasing what was produced and not taken.
	stop()
	// publish runs after the stream's state or counters changed.
	publish()
}

// stream is what a Session and a RemoteSession are underneath: the single-use
// state, the first error, the delivery stamps and counters, and the one batch
// pump over a source. A server's streams drive the same core batch by batch
// (claim, begin, pull, end) where Batches drives it as a loop.
type stream struct {
	rt     *Runtime
	src    source
	retain bool

	// inline makes Batches run its loop on the caller's task instead of
	// entering the kernel with a v.Run: StreamAll sets it, on the kernel,
	// for as long as its bodies run.
	inline bool

	// The rest is the kernel's.
	state   int32
	begun   bool // src.start succeeded and src.stop is owed
	err     error
	startAt time.Duration
	endAt   time.Duration
	batches int64
	samples int64
	bytes   int64
}

// claim takes the stream's single use.
func (s *stream) claim() error {
	if s.state == sessionClosed {
		return ErrSessionClosed
	}
	if err := s.src.ready(); err != nil {
		return err
	}
	if s.state != sessionNew {
		return ErrSessionConsumed
	}
	s.state = sessionConsumed
	s.src.publish()
	return nil
}

// begin stamps the stream's start and starts its source.
func (s *stream) begin(ctx context.Context) error {
	s.startAt = s.rt.Now()
	s.endAt = s.startAt
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
	s.batches++
	s.samples += int64(b.Size())
	s.bytes += b.Bytes()
	s.endAt = s.rt.Now()
	s.src.publish()
	return b, nil
}

// end stops a begun source, once.
func (s *stream) end() {
	if s.begun {
		s.begun = false
		s.src.stop()
	}
}

// pump is Batches for both session types. Under StreamAll the loop runs on
// the caller's task with no closure around it; otherwise it enters the
// kernel as one.
func (s *stream) pump(ctx context.Context) iter.Seq2[*Batch, error] {
	return func(yield func(*Batch, error) bool) {
		if s.inline {
			s.drive(ctx, yield)
			return
		}
		s.rt.k.Run(func() { s.drive(ctx, yield) })
	}
}

// drive is the Batches loop, on a task of the stream's kernel.
func (s *stream) drive(ctx context.Context, yield func(*Batch, error) bool) {
	if err := s.claim(); err != nil {
		yield(nil, err)
		return
	}
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
}

// report assembles what both session types report from the stream's own
// stamps and counters; on the kernel.
func (s *stream) report(workload, loader string, gpus int) Report {
	return Report{
		Workload:     workload,
		Loader:       loader,
		GPUs:         gpus,
		TrainTime:    s.endAt - s.startAt,
		Batches:      s.batches,
		Samples:      s.samples,
		TrainedBytes: s.bytes,
	}
}

func (s *stream) core() *stream { return s }

// streamer is a session type StreamAll can drive: its stream core.
type streamer interface {
	core() *stream
}

// runOnKernel executes call(arg) as a tracked task of the stream's kernel
// (simtime.Virtual.RunWith) — the only place code that parks may run — and
// blocks until it returns, or is a plain call when StreamAll already put the
// caller on a task. call is a top-level function, so entering allocates no
// closure. Code that touches kernel-owned state (caches, disk, fabric,
// loaders) without parking uses simtime.Virtual.Do instead; neither is for
// callers that are themselves tasks.
func (s *stream) runOnKernel(call func(any), arg any) {
	if s.inline {
		call(arg)
		return
	}
	s.rt.k.RunWith(call, arg)
}

// streamTaskName names every StreamAll body's task: a deadlock report tells
// them apart by the park site it prints for each.
const streamTaskName = "svc-stream"

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
	k := sessions[0].core().rt.k
	k.Run(func() {
		wg := simtime.NewWaitGroup(k)
		for i, s := range sessions {
			s.core().inline = true
			wg.Go(streamTaskName, func() { fn(i, s) })
		}
		_ = wg.Wait(ctx)
		for _, s := range sessions {
			s.core().inline = false
		}
	})
}
