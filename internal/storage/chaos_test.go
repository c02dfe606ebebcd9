package storage

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

func TestSlowdownStretchesReads(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		d := NewDisk(k, "nvme", 1e9, 1)
		start := k.Now()
		d.ScheduleSlowdown(start+100*time.Millisecond, 4)
		d.ScheduleSlowdown(start+500*time.Millisecond, 1)
		_ = read(d, 100e6) // 0.1s
		_ = read(d, 100e6) // 0.4s: starts on the first point
		_ = read(d, 100e6) // 0.1s: starts on the second
		elapsed := (k.Now() - start).Seconds()
		if math.Abs(elapsed-0.6) > 0.02 {
			t.Fatalf("elapsed = %.3fs, want 0.6s", elapsed)
		}
		// Byte accounting counts payload, not degraded time.
		if br := d.BytesRead(); br != 300e6 {
			t.Fatalf("BytesRead = %d, want 300e6", br)
		}
	})
}

func TestSlowdownBelowOneClamped(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		d := NewDisk(k, "nvme", 1e9, 1)
		start := k.Now()
		d.ScheduleSlowdown(start, 0.1) // cannot speed the disk up
		_ = read(d, 1e9)
		if got := (k.Now() - start).Seconds(); got < 0.99 {
			t.Fatalf("read completed in %.3fs despite clamp", got)
		}
	})
}

func TestDegradationMidStreamDoesNotLoseReads(t *testing.T) {
	// Failure injection: the disk degrades while many readers are in
	// flight; all reads must still complete.
	k := simtime.NewVirtual()
	const readers = 20
	k.Run(func() {
		d := NewDisk(k, "nvme", 10e9, 2)
		d.ScheduleSlowdown(k.Now()+500*time.Millisecond, 8)
		d.ScheduleSlowdown(k.Now()+2500*time.Millisecond, 1)
		wg := simtime.NewWaitGroup(k)
		for i := 0; i < readers; i++ {
			wg.Go("reader", func() {
				for j := 0; j < 5; j++ {
					if err := read(d, 200e6); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
			})
		}
		_ = wg.Wait(context.Background())
		if br := d.BytesRead(); br != readers*5*200e6 {
			t.Fatalf("BytesRead = %d, want %d", br, int64(readers*5*200e6))
		}
	})
}
