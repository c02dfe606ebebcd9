package minato

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"testing"
	"time"
)

// batchStream is what a Session and a RemoteSession have in common: the
// lifecycle below is written once against it.
type batchStream interface {
	Batches(ctx context.Context) iter.Seq2[*Batch, error]
	Close() (*Report, error)
}

// lifecycleTransport opens a stream of the given budget of 8-sample batches
// and returns it with two probes: pool, the sample pool behind it (read once
// the stream is closed), and quiet, which fails the test if anything of the
// stream is still alive after Close.
type lifecycleTransport func(t *testing.T, iterations int) (s batchStream, pool func() PoolStats, quiet func())

// openedTransport opens local sessions of the named loader.
func openedTransport(loader string) lifecycleTransport {
	return func(t *testing.T, iterations int) (batchStream, func() PoolStats, func()) {
		sess, err := Open(sessionDataset{n: 256},
			WithLoader(loader),
			WithPipeline(flatPipeline(2*time.Millisecond)),
			WithBatchSize(8),
			WithIterations(iterations),
		)
		if err != nil {
			t.Fatal(err)
		}
		// Close drains the session-owned kernel: it only returns once every
		// loader task has fully exited, so a leak would hang the test.
		return sess, sess.cl.pool.Stats, func() {
			if left := sess.rt.k.Tasks(); left != 0 {
				t.Fatalf("%d loader tasks still alive after Close", left)
			}
		}
	}
}

func dialedTransport(t *testing.T, iterations int) (batchStream, func() PoolStats, func()) {
	sn := NewServiceNet(nil, ServiceNetConfig{})
	cl := serveCluster(t, sn)
	t.Cleanup(func() { _ = cl.Close() })
	addr, err := Serve(cl, WithServiceNet(sn),
		Publish("train", namedDataset{space: "serve-life", n: 256}, flatPipeline(2*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = addr.Close() })
	rs, err := Dial(addr, WithIterations(iterations), WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	pool := func() PoolStats {
		_ = addr.Close()
		return cl.pool.Stats()
	}
	return rs, pool, func() {
		// Ending the stream early cancels it; the server session closes.
		if got := addr.Stats().StreamsActive; got != 0 {
			t.Fatalf("%d streams still active after Close", got)
		}
		_ = fmt.Sprintf("%v", rs.Stats())
	}
}

// seen is what a consuming loop observed, to hold the Report against.
type seen struct {
	batches, samples, bytes int64
	last                    *Batch
}

func (c *seen) note(b *Batch) {
	c.batches++
	c.samples += int64(b.Size())
	c.bytes += b.Bytes()
	c.last = b
}

// settle releases the batch the loop ended on (never auto-recycled) and
// checks the report and the pool against what the loop saw.
func (c *seen) settle(t *testing.T, rep *Report, pool func() PoolStats) {
	t.Helper()
	if rep.Batches != c.batches || rep.Samples != c.samples || rep.TrainedBytes != c.bytes {
		t.Fatalf("report counts %d batches / %d samples / %d bytes, the loop saw %d / %d / %d",
			rep.Batches, rep.Samples, rep.TrainedBytes, c.batches, c.samples, c.bytes)
	}
	if c.last != nil {
		c.last.Release()
	}
	if ps := pool(); ps.Gets == 0 || ps.Gets != ps.Puts {
		t.Fatalf("pool leak: %+v", ps)
	}
}

// lifecycle is the one lifecycle every batch stream follows, whichever
// transport is under it.
var lifecycle = []struct {
	name string
	run  func(t *testing.T, open lifecycleTransport)
}{
	// A stream delivers its budget exactly once: a second range yields
	// ErrSessionConsumed, a range after Close ErrSessionClosed.
	{"single use", func(t *testing.T, open lifecycleTransport) {
		s, pool, quiet := open(t, 3)
		var c seen
		for b, err := range s.Batches(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			c.note(b)
		}
		if c.batches != 3 {
			t.Fatalf("delivered %d batches, want 3", c.batches)
		}
		for _, err := range s.Batches(context.Background()) {
			if !errors.Is(err, ErrSessionConsumed) {
				t.Fatalf("second consumption yielded %v, want ErrSessionConsumed", err)
			}
		}
		rep, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range s.Batches(context.Background()) {
			if !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("post-Close consumption yielded %v, want ErrSessionClosed", err)
			}
		}
		quiet()
		c.settle(t, rep, pool)
	}},
	// Breaking out of the loop stops the stream: teardown completes inside
	// the loop statement and the report reflects only the consumed prefix.
	{"early break", func(t *testing.T, open lifecycleTransport) {
		s, pool, quiet := open(t, 100)
		var c seen
		for b, err := range s.Batches(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			c.note(b)
			if c.batches == 5 {
				break
			}
		}
		rep, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Batches != 5 {
			t.Fatalf("report counts %d batches, want 5", rep.Batches)
		}
		quiet()
		c.settle(t, rep, pool)
	}},
	// A cancelled context is yielded once, as the final element, and is the
	// error Close returns.
	{"context cancel", func(t *testing.T, open lifecycleTransport) {
		s, pool, quiet := open(t, 100)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var c seen
		var sawErr error
		for b, err := range s.Batches(ctx) {
			if err != nil {
				sawErr = err
				continue // the error must be the final yield
			}
			c.note(b)
			if c.batches == 3 {
				cancel()
			}
		}
		if sawErr == nil {
			t.Fatal("cancelled iteration ended without an error")
		}
		if !errors.Is(sawErr, context.Canceled) {
			t.Fatalf("yielded %v, want context.Canceled", sawErr)
		}
		rep, err := s.Close()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Close error = %v, want context.Canceled", err)
		}
		quiet()
		c.settle(t, rep, pool)
	}},
}

func lifecycleRow(t *testing.T, name string, open lifecycleTransport) {
	for _, row := range lifecycle {
		if row.name == name {
			row.run(t, open)
			return
		}
	}
	t.Fatalf("no lifecycle row %q", name)
}

// The opened transport runs the table one named test a row for
// MinatoLoader and every row under TestBaselineLifecycle for the baselines;
// the dialed one runs every row under TestRemoteSessionLifecycle.

func TestBatchesSingleUse(t *testing.T)  { lifecycleRow(t, "single use", openedTransport("minato")) }
func TestBatchesEarlyBreak(t *testing.T) { lifecycleRow(t, "early break", openedTransport("minato")) }
func TestBatchesContextCancel(t *testing.T) {
	lifecycleRow(t, "context cancel", openedTransport("minato"))
}

// TestBaselineLifecycle runs the lifecycle over the baselines, whose tasks
// park in wake steps: an early break or a cancel ends each step cleanly, so
// no loader task is left after Close and every pooled sample came back.
func TestBaselineLifecycle(t *testing.T) {
	for _, loader := range []string{"pytorch", "dali"} {
		for _, row := range lifecycle {
			t.Run(loader+"/"+row.name, func(t *testing.T) { row.run(t, openedTransport(loader)) })
		}
	}
}

// TestRemoteSessionLifecycle pins the Session-compatible lifecycle rules.
func TestRemoteSessionLifecycle(t *testing.T) {
	for _, row := range lifecycle {
		t.Run(row.name, func(t *testing.T) { row.run(t, dialedTransport) })
	}
}
