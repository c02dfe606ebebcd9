package device

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/simtime"
)

func TestUncontendedRunsAtFullSpeed(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		d := New(k, "cpu", 4)
		start := k.Now()
		if err := d.Run(context.Background(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		elapsed := k.Now() - start
		if elapsed < 10*time.Second || elapsed > 10*time.Second+time.Millisecond {
			t.Fatalf("elapsed = %v, want ≈10s", elapsed)
		}
	})
}

func TestParallelWithinCapacity(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		d := New(k, "cpu", 4)
		wg := simtime.NewWaitGroup(k)
		start := k.Now()
		for i := 0; i < 4; i++ {
			wg.Go("task", func() {
				_ = d.Run(context.Background(), 10*time.Second)
			})
		}
		_ = wg.Wait(context.Background())
		elapsed := (k.Now() - start).Seconds()
		if elapsed < 10 || elapsed > 10.01 {
			t.Fatalf("4 tasks on 4 cores took %.3fs, want ≈10s", elapsed)
		}
	})
}

func TestOversubscriptionSharesFairly(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		d := New(k, "cpu", 2)
		wg := simtime.NewWaitGroup(k)
		start := k.Now()
		// 4 tasks of 10s work on 2 cores: total work 40 core-seconds,
		// aggregate throughput 2/s, all finish together at t=20s.
		for i := 0; i < 4; i++ {
			wg.Go("task", func() {
				_ = d.Run(context.Background(), 10*time.Second)
			})
		}
		_ = wg.Wait(context.Background())
		elapsed := (k.Now() - start).Seconds()
		if math.Abs(elapsed-20) > 0.1 {
			t.Fatalf("elapsed = %.3fs, want ≈20s", elapsed)
		}
	})
}

func TestLateArrivalSlowsInFlightTask(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		d := New(k, "disk", 1)
		wg := simtime.NewWaitGroup(k)
		var firstDone, secondDone atomic.Int64
		wg.Go("first", func() {
			_ = d.Run(context.Background(), 10*time.Second)
			firstDone.Store(int64(k.Now()))
		})
		wg.Go("second", func() {
			_ = k.Sleep(context.Background(), 5*time.Second)
			_ = d.Run(context.Background(), 10*time.Second)
			secondDone.Store(int64(k.Now()))
		})
		_ = wg.Wait(context.Background())
		// First: 5s alone (5s work done) + shares until its remaining 5s
		// work completes at rate 1/2 → finishes at t = 5 + 10 = 15s.
		// Second: arrives t=5, shares 10s at rate 1/2 → 5s work done at
		// t=15, then alone for remaining 5s → finishes t=20s.
		f := time.Duration(firstDone.Load()).Seconds()
		s := time.Duration(secondDone.Load()).Seconds()
		if math.Abs(f-15) > 0.1 {
			t.Errorf("first finished at %.2fs, want ≈15s", f)
		}
		if math.Abs(s-20) > 0.1 {
			t.Errorf("second finished at %.2fs, want ≈20s", s)
		}
	})
}

func TestFractionalCapacityStreams(t *testing.T) {
	// GPU with capacity 1.3: two concurrent streams each run at 0.65.
	k := simtime.NewVirtual()
	k.Run(func() {
		d := New(k, "gpu", 1.3)
		wg := simtime.NewWaitGroup(k)
		start := k.Now()
		for i := 0; i < 2; i++ {
			wg.Go("stream", func() {
				_ = d.Run(context.Background(), 13*time.Second)
			})
		}
		_ = wg.Wait(context.Background())
		elapsed := (k.Now() - start).Seconds()
		if math.Abs(elapsed-20) > 0.1 {
			t.Fatalf("elapsed = %.3fs, want ≈20s (13/0.65)", elapsed)
		}
	})
}

func TestBusyAccountingAndUtilization(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		d := New(k, "cpu", 2)
		// Utilization is busy unit-seconds over capacity, read through the
		// shared rate gauge as the trainer does.
		gauge := metrics.CounterRateGauge(k, d.Capacity(), d.BusySeconds)
		// One task of 10s on a 2-core device, then 10s idle.
		_ = d.Run(context.Background(), 10*time.Second)
		u1 := gauge()
		if math.Abs(u1-0.5) > 0.01 {
			t.Errorf("utilization during single-task phase = %.3f, want ≈0.5", u1)
		}
		_ = k.Sleep(context.Background(), 10*time.Second)
		u2 := gauge()
		if u2 > 0.01 {
			t.Errorf("utilization while idle = %.3f, want ≈0", u2)
		}
		if busy := d.BusySeconds(); math.Abs(busy-10) > 0.01 {
			t.Errorf("BusySeconds = %.3f, want ≈10", busy)
		}
	})
}

func TestZeroWorkReturnsImmediately(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		d := New(k, "cpu", 1)
		start := k.Now()
		if err := d.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if k.Now() != start {
			t.Fatal("zero work advanced time")
		}
	})
}

func TestManyTasksTotalWorkConserved(t *testing.T) {
	k := simtime.NewVirtual()
	const n = 30
	k.Run(func() {
		d := New(k, "cpu", 3)
		wg := simtime.NewWaitGroup(k)
		for i := 0; i < n; i++ {
			i := i
			wg.Go("task", func() {
				_ = k.Sleep(context.Background(), time.Duration(i)*250*time.Millisecond)
				_ = d.Run(context.Background(), time.Duration(1+i%5)*time.Second)
			})
		}
		_ = wg.Wait(context.Background())
		// Total work: sum over i of (1 + i%5) seconds.
		want := 0.0
		for i := 0; i < n; i++ {
			want += float64(1 + i%5)
		}
		if busy := d.BusySeconds(); math.Abs(busy-want) > 0.05*want {
			t.Fatalf("BusySeconds = %.2f, want ≈%.2f", busy, want)
		}
	})
}
