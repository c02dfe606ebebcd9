package trainer_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/minatoloader/minato/internal/core"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loaders"
	"github.com/minatoloader/minato/internal/trainer"
	"github.com/minatoloader/minato/internal/workload"
)

// TestCollectedSeriesPinned holds every sampled value of the headline
// minato session (Speech-3s, ConfigA, 200 iterations, seed 1) to the float
// bit: each series' length and an FNV-64a hash over the bits of its points,
// plus a hash of the Prometheus snapshot. A gauge rewritten with different
// arithmetic, or a sampler that ticks at another instant, fails here.
func TestCollectedSeriesPinned(t *testing.T) {
	type pin struct {
		n    int
		hash uint64
	}
	want := map[string]pin{
		"cpu":               {64, 0xb34aa581a559d07c},
		"disk":              {64, 0xe36469202c610cc6},
		"gpu":               {64, 0x24cdfa92f57f8103},
		"minato_batchq":     {64, 0x43322c9adbf18b99},
		"minato_fastq":      {64, 0x9cdc85258ec9e9f7},
		"minato_slowq":      {64, 0x9cdc85258ec9e9f7},
		"minato_tempq":      {64, 0x9cdc85258ec9e9f7},
		"minato_timeout_ms": {64, 0x367fcb7dbd25b3f1},
		"minato_workers":    {64, 0xb66fd45b755308c3},
		"throughput":        {64, 0x7d6675abe24944},
	}
	const wantProm = uint64(0xaea28b89ee103802)

	w := workload.Speech(1, 3*time.Second).WithIterations(200)
	rep, err := trainer.Simulate(hardware.ConfigA(), w, loaders.Minato(core.DefaultConfig()), trainer.Params{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(rep.Series))
	for name := range rep.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != len(want) {
		t.Errorf("series %v, pinned %d", names, len(want))
	}
	for _, name := range names {
		ts := rep.Series[name]
		h := fnv.New64a()
		var b []byte
		for _, p := range ts.Points {
			b = binary.LittleEndian.AppendUint64(b[:0], uint64(p.T))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.V))
			h.Write(b)
		}
		got := pin{len(ts.Points), h.Sum64()}
		if got != want[name] {
			t.Errorf("series %q: %d points hash %#x, pinned %d points hash %#x", name, got.n, got.hash, want[name].n, want[name].hash)
		}
	}
	var buf bytes.Buffer
	if err := rep.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got := h.Sum64(); got != wantProm {
		t.Errorf("Prometheus snapshot hash %#x, pinned %#x", got, wantProm)
	}
}
