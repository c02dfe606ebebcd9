package metrics

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

func TestCollectorSamplesAtInterval(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		c := NewCollector(k, time.Second)
		n := 0.0
		c.Register("counter", func() float64 { n++; return n })
		wg := simtime.NewWaitGroup(k)
		c.Start(wg)
		_ = k.Sleep(context.Background(), 10500*time.Millisecond)
		c.Stop()
		_ = wg.Wait(context.Background())
		ts := c.Series()[0]
		if len(ts.Points) < 9 || len(ts.Points) > 11 {
			t.Fatalf("points = %d, want ≈10", len(ts.Points))
		}
		// Samples are 1s apart in virtual time.
		for i := 1; i < len(ts.Points); i++ {
			if d := ts.Points[i].T - ts.Points[i-1].T; d != time.Second {
				t.Fatalf("gap = %v, want 1s", d)
			}
		}
	})
}

func TestCollectorStopEndsTask(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		c := NewCollector(k, time.Second)
		c.Register("g", func() float64 { return 1 })
		wg := simtime.NewWaitGroup(k)
		c.Start(wg)
		c.Stop()
		if err := wg.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCounterRateGauge drives the windowed-rate gauge over a plain counter;
// the device, gpu and storage tests drive it over their own counters.
func TestCounterRateGauge(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		total := 0.0
		g := CounterRateGauge(k, 1, func() float64 { return total })
		total = 100
		_ = k.Sleep(context.Background(), 10*time.Second)
		if r := g(); math.Abs(r-10) > 0.1 {
			t.Fatalf("rate = %.2f, want 10/s", r)
		}
		_ = k.Sleep(context.Background(), 5*time.Second)
		if r := g(); r != 0 {
			t.Fatalf("idle rate = %.2f, want 0", r)
		}
	})
}

func TestRegisterAfterStopErrors(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		c := NewCollector(k, time.Second)
		if err := c.Register("ok", func() float64 { return 1 }); err != nil {
			t.Fatalf("live Register: %v", err)
		}
		wg := simtime.NewWaitGroup(k)
		c.Start(wg)
		c.Stop()
		_ = wg.Wait(context.Background())
		if err := c.Register("late", func() float64 { return 2 }); err == nil {
			t.Fatal("Register after Stop succeeded; the gauge would never be sampled")
		}
		for _, ts := range c.Series() {
			if ts.Name == "late" {
				t.Fatal("rejected gauge still registered")
			}
		}
	})
}

// TestSnapshotConsistentCut checks that the recorded series form one cut:
// every gauge is sampled at the same tick.
func TestSnapshotConsistentCut(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		c := NewCollector(k, time.Second)
		n := 0.0
		// Both gauges report the same monotonic counter, sampled at one
		// tick: every series has the same number of points.
		c.Register("a", func() float64 { n++; return n })
		c.Register("b", func() float64 { return n })
		wg := simtime.NewWaitGroup(k)
		c.Start(wg)
		_ = k.Sleep(context.Background(), 5500*time.Millisecond)
		c.Stop()
		_ = wg.Wait(context.Background())
		s := c.Series()
		if len(s) != 2 {
			t.Fatalf("series shape: %+v", s)
		}
		if len(s[0].Points) != 5 || len(s[1].Points) != 5 {
			t.Fatalf("torn cut: %d and %d points, want 5 each", len(s[0].Points), len(s[1].Points))
		}
		for i, p := range s[1].Points {
			if p != s[0].Points[i] {
				t.Fatalf("point %d: %v then %v, want one tick", i, s[0].Points[i], p)
			}
		}
	})
}

// TestNamesAndUnknownSeries checks that the recorded series are exactly the
// registered gauges, in registration order.
func TestNamesAndUnknownSeries(t *testing.T) {
	k := simtime.NewVirtual()
	c := NewCollector(k, time.Second)
	c.Register("b", func() float64 { return 0 })
	c.Register("a", func() float64 { return 0 })
	s := c.Series()
	if len(s) != 2 || s[0].Name != "b" || s[1].Name != "a" {
		t.Fatalf("series = %+v, want b then a", s)
	}
	for _, ts := range s {
		if ts.Name == "zzz" {
			t.Fatal("unregistered series recorded")
		}
	}
}
