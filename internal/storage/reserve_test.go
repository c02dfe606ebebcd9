package storage

import (
	"testing"

	"github.com/minatoloader/minato/internal/data"
)

// ReserveCapacity carves a second cache layer's budget out of the page
// cache so the two layers never double-count the same simulated memory.
func TestReserveCapacity(t *testing.T) {
	c := NewPageCache(100)
	if got := c.ReserveCapacity(30); got != 30 {
		t.Fatalf("granted %d, want 30", got)
	}
	if got := c.Stats().Capacity; got != 70 {
		t.Fatalf("capacity after reserve = %d, want 70", got)
	}
	// Contents are evicted from the LRU tail until they fit the reduced pool.
	c.Put(data.KeyOf("k", 1), 30)
	c.Put(data.KeyOf("k", 2), 30)
	if got := c.ReserveCapacity(30); got != 30 {
		t.Fatalf("granted %d, want 30", got)
	}
	if get(c, data.KeyOf("k", 1)) {
		t.Fatal("LRU entry survived a reservation that shrank below contents")
	}
	if !get(c, data.KeyOf("k", 2)) {
		t.Fatal("MRU entry should have survived")
	}
	s := c.Stats()
	if s.Capacity != 40 || s.Used != 30 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReserveCapacityClampsToPool(t *testing.T) {
	c := NewPageCache(100)
	if got := c.ReserveCapacity(250); got != 100 {
		t.Fatalf("granted %d, want the whole pool (100)", got)
	}
	if got := c.Stats().Capacity; got != 0 {
		t.Fatalf("capacity = %d, want 0", got)
	}
	if got := c.ReserveCapacity(10); got != 0 {
		t.Fatalf("reservation from an empty pool granted %d", got)
	}
}

func TestReserveCapacityIgnoresNonPositive(t *testing.T) {
	c := NewPageCache(100)
	if got := c.ReserveCapacity(0); got != 0 {
		t.Fatalf("granted %d for n=0", got)
	}
	if got := c.ReserveCapacity(-5); got != 0 {
		t.Fatalf("granted %d for n<0", got)
	}
	if got := c.Stats().Capacity; got != 100 {
		t.Fatalf("capacity = %d, want untouched 100", got)
	}
}

// Capacity exposes the current (post-carve) capacity so callers can
// validate a reservation before committing to the evicting shrink.
func TestCapacityAccessor(t *testing.T) {
	c := NewPageCache(100)
	if got := c.Capacity(); got != 100 {
		t.Fatalf("capacity = %d, want 100", got)
	}
	c.ReserveCapacity(30)
	if got := c.Capacity(); got != 70 {
		t.Fatalf("capacity after reserve = %d, want 70", got)
	}
}
