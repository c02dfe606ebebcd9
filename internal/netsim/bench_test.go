package netsim

import (
	"context"
	"testing"

	"github.com/minatoloader/minato/internal/simtime"
)

// BenchmarkServedStar is the served shape: 256 clients, each pulling
// frames of about 1 MiB from endpoint 0 and returning 64 bytes, so every
// frame shares the server's egress with the others in flight. One op is one
// frame and its reply.
func BenchmarkServedStar(b *testing.B) {
	const clients = 256
	ctx := context.Background()
	k := simtime.NewVirtual()
	b.ReportAllocs()
	k.Run(func() {
		f := New(k, Config{Endpoints: clients + 1, Bandwidth: PaperBandwidth, Latency: PaperLatency})
		wg := simtime.NewWaitGroup(k)
		per := b.N/clients + 1
		b.ResetTimer()
		for c := 1; c <= clients; c++ {
			wg.Go("client", func() {
				for j := range per {
					_ = f.Transfer(ctx, 0, c, int64(1<<20+c<<6+j))
					_ = f.Transfer(ctx, c, 0, 64)
				}
			})
		}
		_ = wg.Wait(ctx)
	})
}
