package data

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkPoolSharedContention measures the sample pool under the
// multi-tenant cluster's access pattern: many sessions concurrently
// drawing, filling, and releasing samples through one shared Pool. The
// pool's free list sits under one lock, so the interesting number is how
// get/put throughput holds up as tenant goroutines are added.
func BenchmarkPoolSharedContention(b *testing.B) {
	for _, tenants := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			p := NewPool()
			b.ReportAllocs()
			var wg sync.WaitGroup
			per := b.N / tenants
			b.ResetTimer()
			for t := 0; t < tenants; t++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						s := p.Get()
						s.RawBytes, s.Bytes = 1<<16, 1<<16
						p.Put(s)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkPoolBatchLifecycle measures the batch path of the same shared
// lifecycle: assemble a pooled batch of pooled samples, then release it,
// concurrently across tenant goroutines.
func BenchmarkPoolBatchLifecycle(b *testing.B) {
	const batchSize = 32
	p := NewPool()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			batch := p.GetBatch(batchSize)
			for i := 0; i < batchSize; i++ {
				batch.Samples = append(batch.Samples, p.Get())
			}
			batch.Release()
		}
	})
}
