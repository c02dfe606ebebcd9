package service

import "testing"

// TestSeqRing checks the window ring against a map over a key pattern that
// fits its window, one that spreads wider (and so collides and grows), and
// negative sequences from a misbehaving peer.
func TestSeqRing(t *testing.T) {
	var r seqRing[int]
	r.init(3) // rounds up to 4 slots
	if len(r.slots) != 4 {
		t.Fatalf("init(3): %d slots, want 4", len(r.slots))
	}
	want := map[int]int{}
	check := func(step string) {
		t.Helper()
		if r.n != len(want) {
			t.Fatalf("%s: %d live, want %d", step, r.n, len(want))
		}
		for seq, v := range want {
			if p := r.find(seq); p == nil || *p != v {
				t.Fatalf("%s: seq %d lost (got %v, want %d)", step, seq, p, v)
			}
		}
	}
	// A sliding window of three in flight: never grows.
	for seq := 0; seq < 20; seq++ {
		*r.add(seq) = seq * 10
		want[seq] = seq * 10
		if seq >= 2 {
			r.drop(seq - 2)
			delete(want, seq-2)
		}
		check("slide")
	}
	if len(r.slots) != 4 {
		t.Fatalf("a window-wide slide grew the ring to %d", len(r.slots))
	}
	// A lagging sequence a long way behind the head: collides, grows, keeps
	// every live value.
	for _, seq := range []int{100, 104, 132, -3, -7} {
		*r.add(seq) = seq
		want[seq] = seq
		check("spread")
	}
	if r.find(5) != nil || r.find(136) != nil {
		t.Fatal("find reports a sequence that was never added")
	}
	if p := r.add(104); *p != 104 || r.n != len(want) {
		t.Fatalf("re-adding a live sequence: value %d, %d live", *p, r.n)
	}
	for seq := range want {
		if !r.drop(seq) {
			t.Fatalf("drop(%d) of a live sequence reports it was not live", seq)
		}
		delete(want, seq)
		check("drain")
	}
	if r.drop(104) {
		t.Fatal("drop of a dropped sequence reports it was live")
	}
	check("drop twice")
}
