package simtime

import (
	"context"
	"testing"
	"time"
)

func BenchmarkVirtualSleep(b *testing.B) {
	k := NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		for i := 0; i < b.N; i++ {
			_ = k.Sleep(context.Background(), time.Second)
		}
	})
}

func BenchmarkVirtualParallelSleepers(b *testing.B) {
	k := NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		wg := NewWaitGroup(k)
		per := b.N/32 + 1
		for w := 0; w < 32; w++ {
			wg.Go("sleeper", func() {
				for i := 0; i < per; i++ {
					_ = k.Sleep(context.Background(), time.Millisecond)
				}
			})
		}
		_ = wg.Wait(context.Background())
	})
}

// BenchmarkSelectorWakeWait measures one full selector cycle: reset, claim,
// wait — the hot path of event-driven queue waits and device parks.
func BenchmarkSelectorWakeWait(b *testing.B) {
	k := NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		sel := NewSelector(k)
		for i := 0; i < b.N; i++ {
			sel.Reset()
			sel.TryWake(0)
			_, _ = sel.Wait(context.Background(), 0)
		}
	})
}

// BenchmarkVirtualSameDeadlineSleepers exercises the same-deadline chain:
// many tasks sleeping to one deadline fire with a single heap pop.
func BenchmarkVirtualSameDeadlineSleepers(b *testing.B) {
	k := NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		wg := NewWaitGroup(k)
		per := b.N/32 + 1
		for w := 0; w < 32; w++ {
			wg.Go("sleeper", func() {
				for i := 0; i < per; i++ {
					_ = k.Sleep(context.Background(), time.Second)
				}
			})
		}
		_ = wg.Wait(context.Background())
	})
}
