package queue

import (
	"context"
	"testing"

	"github.com/minatoloader/minato/internal/simtime"
)

func BenchmarkUncontendedPutGet(b *testing.B) {
	rt := simtime.NewVirtual()
	q := New[int](rt, "bench", 1024)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Put(ctx, i); err != nil {
			b.Fatal(err)
		}
		if _, err := q.Get(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTryPutTryGet(b *testing.B) {
	rt := simtime.NewVirtual()
	q := New[int](rt, "bench", 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := q.TryPut(i); !ok {
			b.Fatal("full")
		}
		if _, ok, _ := q.TryGet(); !ok {
			b.Fatal("empty")
		}
	}
}

func BenchmarkProducerConsumerVirtual(b *testing.B) {
	// Measures the virtual-kernel handoff cost: one producer, one
	// consumer, b.N items through a small queue.
	k := simtime.NewVirtual()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(func() {
		q := New[int](k, "bench", 8)
		wg := simtime.NewWaitGroup(k)
		wg.Go("producer", func() {
			for i := 0; i < b.N; i++ {
				if err := q.Put(context.Background(), i); err != nil {
					return
				}
			}
			q.Close()
		})
		for {
			if _, err := q.Get(context.Background()); err != nil {
				break
			}
		}
		_ = wg.Wait(context.Background())
	})
}
