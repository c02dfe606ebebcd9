package netsim

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/dist"
	"github.com/minatoloader/minato/internal/simtime"
)

// testFabric returns a fabric of n endpoints at 1 GB/s per NIC direction
// with no latency, so transfer times read directly in seconds per GB.
func testFabric(k *simtime.Virtual, n int) *Fabric {
	return New(k, Config{Endpoints: n, Bandwidth: 1e9})
}

func TestSingleFlowRunsAtLineRate(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		f := testFabric(k, 2)
		start := k.Now()
		if err := f.Transfer(context.Background(), 0, 1, 2e9); err != nil {
			t.Fatal(err)
		}
		elapsed := (k.Now() - start).Seconds()
		if math.Abs(elapsed-2) > 0.01 {
			t.Fatalf("2 GB at 1 GB/s took %.3fs, want ≈2s", elapsed)
		}
		if got := f.BytesMoved(); math.Abs(float64(got)-2e9) > 1e6 {
			t.Fatalf("BytesMoved = %d, want ≈2e9", got)
		}
	})
}

func TestLatencyAppliesPerTransfer(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		f := New(k, Config{Endpoints: 2, Bandwidth: 1e9, Latency: 250 * time.Millisecond})
		start := k.Now()
		if err := f.Transfer(context.Background(), 0, 1, 1e9); err != nil {
			t.Fatal(err)
		}
		elapsed := (k.Now() - start).Seconds()
		if math.Abs(elapsed-1.25) > 0.01 {
			t.Fatalf("elapsed = %.3fs, want ≈1.25s (0.25 latency + 1 transfer)", elapsed)
		}
		// Loopback pays latency only: node-local traffic never crosses the NIC.
		start = k.Now()
		if err := f.Transfer(context.Background(), 1, 1, 8e9); err != nil {
			t.Fatal(err)
		}
		if elapsed := (k.Now() - start).Seconds(); math.Abs(elapsed-0.25) > 0.01 {
			t.Fatalf("loopback took %.3fs, want ≈0.25s", elapsed)
		}
	})
}

func TestSharedEgressFairShares(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		f := testFabric(k, 3)
		wg := simtime.NewWaitGroup(k)
		start := k.Now()
		// Two 1 GB flows out of endpoint 0 to distinct destinations: the
		// shared egress halves each rate; both finish at t=2s.
		for dst := 1; dst <= 2; dst++ {
			dst := dst
			wg.Go("flow", func() {
				_ = f.Transfer(context.Background(), 0, dst, 1e9)
			})
		}
		_ = wg.Wait(context.Background())
		elapsed := (k.Now() - start).Seconds()
		if math.Abs(elapsed-2) > 0.01 {
			t.Fatalf("two flows on one egress took %.3fs, want ≈2s", elapsed)
		}
	})
}

func TestLateFlowSlowsInFlightTransfer(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		f := testFabric(k, 3)
		wg := simtime.NewWaitGroup(k)
		var first, second atomic.Int64
		wg.Go("first", func() {
			_ = f.Transfer(context.Background(), 0, 1, 2e9)
			first.Store(int64(k.Now()))
		})
		wg.Go("second", func() {
			_ = k.Sleep(context.Background(), time.Second)
			_ = f.Transfer(context.Background(), 0, 2, 2e9)
			second.Store(int64(k.Now()))
		})
		_ = wg.Wait(context.Background())
		// First: 1s alone (1 GB done) + remaining 1 GB at 0.5 GB/s → t=3s.
		// Second: 2 GB from t=1, 1 GB by t=3 shared, then alone → t=4s.
		if got := time.Duration(first.Load()).Seconds(); math.Abs(got-3) > 0.02 {
			t.Errorf("first finished at %.3fs, want ≈3s", got)
		}
		if got := time.Duration(second.Load()).Seconds(); math.Abs(got-4) > 0.02 {
			t.Errorf("second finished at %.3fs, want ≈4s", got)
		}
	})
}

func TestMaxMinWaterFilling(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		// Degrade endpoint 2's NIC to 0.5 GB/s. Flows: A 0→1, B 0→2, C 3→2.
		// B and C share the degraded ingress (0.25 GB/s each); A then gets
		// the residual 0.75 GB/s of egress 0 — strictly more than the naive
		// equal split, which is the max-min property under test.
		f := testFabric(k, 4)
		f.SetBandwidth(2, 0.5e9)
		wg := simtime.NewWaitGroup(k)
		var aDone atomic.Int64
		wg.Go("A", func() {
			_ = f.Transfer(context.Background(), 0, 1, 1.5e9)
			aDone.Store(int64(k.Now()))
		})
		wg.Go("B", func() { _ = f.Transfer(context.Background(), 0, 2, 1e9) })
		wg.Go("C", func() { _ = f.Transfer(context.Background(), 3, 2, 1e9) })
		_ = wg.Wait(context.Background())
		// A: 1.5 GB at 0.75 GB/s → 2s (B and C are still mid-flight then).
		if got := time.Duration(aDone.Load()).Seconds(); math.Abs(got-2) > 0.02 {
			t.Fatalf("A finished at %.3fs, want ≈2s (0.75 GB/s residual share)", got)
		}
	})
}

func TestSetBandwidthMidFlight(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		f := testFabric(k, 2)
		wg := simtime.NewWaitGroup(k)
		var done atomic.Int64
		wg.Go("flow", func() {
			_ = f.Transfer(context.Background(), 0, 1, 2e9)
			done.Store(int64(k.Now()))
		})
		wg.Go("degrade", func() {
			_ = k.Sleep(context.Background(), time.Second)
			f.SetBandwidth(1, 0.25e9) // degraded link: 4× slower ingress
		})
		_ = wg.Wait(context.Background())
		// 1 GB moved in the first second, the remaining 1 GB at 0.25 GB/s:
		// finish at t = 1 + 4 = 5s.
		if got := time.Duration(done.Load()).Seconds(); math.Abs(got-5) > 0.02 {
			t.Fatalf("flow finished at %.3fs, want ≈5s after mid-flight degradation", got)
		}
	})
}

func TestSetBandwidthClampsToFloor(t *testing.T) {
	// A scripted full link failure passes bw=0 (and a buggy script might
	// pass negative or NaN): instead of dividing the water-filling rates
	// by zero, the NIC clamps to MinBandwidth. In-flight traffic crawls at
	// the floor and completes normally once the link is restored.
	k := simtime.NewVirtual()
	k.Run(func() {
		f := testFabric(k, 2)
		wg := simtime.NewWaitGroup(k)
		var done atomic.Int64
		wg.Go("flow", func() {
			_ = f.Transfer(context.Background(), 0, 1, 2e9)
			done.Store(int64(k.Now()))
		})
		wg.Go("outage", func() {
			_ = k.Sleep(context.Background(), time.Second)
			for _, bw := range []float64{0, -5, math.NaN()} {
				f.SetBandwidth(1, bw) // must not panic or wedge the rates
			}
			_ = k.Sleep(context.Background(), 2*time.Second)
			f.SetBandwidth(1, 1e9)
		})
		_ = wg.Wait(context.Background())
		// 1 GB moved before the outage; ~2s dead (a few bytes at 1 B/s);
		// the remaining ~1 GB at 1 GB/s after restore: finish ≈ t=4s.
		if got := time.Duration(done.Load()).Seconds(); math.Abs(got-4) > 0.02 {
			t.Fatalf("flow finished at %.3fs, want ≈4s around a full outage", got)
		}
	})
}

func TestRingAllReduceVolumeAndTiming(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		const n = 4
		f := testFabric(k, n)
		ring := NewRing(k, f, []int{0, 1, 2, 3})
		wg := simtime.NewWaitGroup(k)
		start := k.Now()
		for rank := 0; rank < n; rank++ {
			rank := rank
			wg.Go("rank", func() {
				if err := ring.AllReduce(context.Background(), rank, 1e9); err != nil {
					t.Error(err)
				}
			})
		}
		_ = wg.Wait(context.Background())
		// Each phase moves one 0.25 GB chunk per NIC pair with no
		// contention (each egress and ingress carries exactly one flow):
		// 2·(n−1) = 6 phases × 0.25s = 1.5s — the analytic ring time
		// 2·bytes·(n−1)/n / bw, now produced by actual flows.
		elapsed := (k.Now() - start).Seconds()
		if math.Abs(elapsed-1.5) > 0.02 {
			t.Fatalf("4-node ring all-reduce of 1 GB took %.3fs, want ≈1.5s", elapsed)
		}
		moved := float64(f.BytesMoved())
		if math.Abs(moved-6e9) > 0.05e9 { // 4 ranks × 6 chunks × 0.25 GB
			t.Fatalf("BytesMoved = %.0f, want ≈6e9", moved)
		}
	})
}

func TestRingSingleMemberIsNoOp(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		f := testFabric(k, 1)
		ring := NewRing(k, f, []int{0})
		if err := ring.AllReduce(context.Background(), 0, 1e9); err != nil {
			t.Fatal(err)
		}
		if k.Now() != 0 {
			t.Fatal("single-member all-reduce advanced time")
		}
	})
}

func TestTransferCancellation(t *testing.T) {
	// Pre-cancelled context: refused before any occupancy.
	k := simtime.NewVirtual()
	k.Run(func() {
		f := testFabric(k, 2)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := f.Transfer(ctx, 0, 1, 1e9); err != context.Canceled {
			t.Fatalf("pre-cancelled transfer returned %v, want context.Canceled", err)
		}
	})

	// Mid-flight: a kernel-visible cancel ends the transfer at its instant
	// and leaves the fabric clean for subsequent traffic.
	k = simtime.NewVirtual()
	k.Run(func() {
		f := New(k, Config{Endpoints: 2, Bandwidth: 1e9})
		var scope simtime.CancelScope
		ctx, cancel := scope.Begin(k, context.Background()), scope.Cancel
		k.Go("canceller", func() {
			_ = k.Sleep(context.Background(), 20*time.Millisecond)
			cancel()
		})
		if err := f.Transfer(ctx, 0, 1, 1e12); err != context.Canceled {
			t.Fatalf("cancelled transfer returned %v, want context.Canceled", err)
		}
		if now := k.Now(); now != 20*time.Millisecond {
			t.Fatalf("cancelled transfer returned at %v, want 20ms", now)
		}
		if err := f.Transfer(context.Background(), 0, 1, 1e6); err != nil {
			t.Fatal(err)
		}
		if n := f.FlowsCompleted(); n != 2 {
			t.Fatalf("FlowsCompleted = %d, want 2 (cancelled flows still exit)", n)
		}
	})
}

func TestFabricDeterminism(t *testing.T) {
	// Two identical-seed runs of a contended transfer storm must finish at
	// the same virtual instant with identical byte accounting.
	run := func() (time.Duration, int64, float64) {
		k := simtime.NewVirtual()
		var end time.Duration
		var moved int64
		var busy float64
		k.Run(func() {
			f := New(k, Config{Endpoints: 5, Bandwidth: 1e9, Latency: time.Millisecond})
			wg := simtime.NewWaitGroup(k)
			for i := 0; i < 40; i++ {
				i := i
				wg.Go("flow", func() {
					src := int(dist.Uniform(7, 1, uint64(i)) * 5)
					dst := int(dist.Uniform(7, 2, uint64(i)) * 5)
					bytes := int64(dist.Uniform(7, 3, uint64(i)) * 5e8)
					delay := time.Duration(dist.Uniform(7, 4, uint64(i)) * float64(time.Second))
					_ = k.Sleep(context.Background(), delay)
					_ = f.Transfer(context.Background(), src, dst, bytes)
				})
			}
			_ = wg.Wait(context.Background())
			end = k.Now()
			moved = f.BytesMoved()
			busy = f.LinkBusySeconds(0, 0)
		})
		return end, moved, busy
	}
	e1, m1, b1 := run()
	e2, m2, b2 := run()
	if e1 != e2 || m1 != m2 || b1 != b2 {
		t.Fatalf("nondeterministic fabric: run1=(%v,%d,%v) run2=(%v,%d,%v)", e1, m1, b1, e2, m2, b2)
	}
}

func TestConservationUnderContention(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		f := testFabric(k, 3)
		wg := simtime.NewWaitGroup(k)
		const flows = 24
		var want int64
		var mu sync.Mutex
		for i := 0; i < flows; i++ {
			i := i
			bytes := int64(1e8 * float64(1+i%5))
			mu.Lock()
			want += bytes
			mu.Unlock()
			wg.Go("flow", func() {
				_ = k.Sleep(context.Background(), time.Duration(i)*100*time.Millisecond)
				_ = f.Transfer(context.Background(), i%3, (i+1)%3, bytes)
			})
		}
		_ = wg.Wait(context.Background())
		if got := f.BytesMoved(); math.Abs(float64(got-want)) > 1e-3*float64(want) {
			t.Fatalf("BytesMoved = %d, want ≈%d", got, want)
		}
		if got := f.FlowsCompleted(); got != flows {
			t.Fatalf("FlowsCompleted = %d, want %d", got, flows)
		}
	})
}

// TestRaceHammer exercises what reaches a Fabric from outside its kernel —
// sixteen untracked goroutines entering it through Run, bandwidth churn
// posted through the door and a foreign cancellation — against flows in
// flight; run with -race.
func TestRaceHammer(t *testing.T) {
	k := simtime.NewVirtual()
	f := New(k, Config{Endpoints: 4, Bandwidth: 1e9, Latency: time.Microsecond})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.Run(func() {
				for i := 0; i < 200; i++ {
					_ = f.Transfer(ctx, (g+i)%4, (g+i+1+i%3)%4, int64(1e6*(1+i%7)))
				}
			})
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			k.Post(func() { f.SetBandwidth(i%4, 1e9/float64(1+i%3)) })
			runtime.Gosched()
		}
		cancel()
	}()
	wg.Wait()
	k.Run(func() { _ = f.BytesMoved() })
}

func TestLinkBusySecondsSurvivesBandwidthChange(t *testing.T) {
	// Busy time is converted at the bandwidth in force when the traffic
	// moved: degrading a saturated link afterwards must not inflate its
	// recorded history past wall time.
	k := simtime.NewVirtual()
	k.Run(func() {
		f := testFabric(k, 2)
		if err := f.Transfer(context.Background(), 0, 1, 2e9); err != nil {
			t.Fatal(err)
		}
		f.SetBandwidth(1, 0.25e9)
		busy := f.LinkBusySeconds(1, 1)
		if math.Abs(busy-2) > 0.01 {
			t.Fatalf("ingress busy = %.3fs after degradation, want ≈2s (1 GB/s era traffic)", busy)
		}
	})
}
