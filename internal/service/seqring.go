package service

// seqRing maps a stream's live sequence numbers to per-sequence state. The
// sequences a stream has in flight sit within one window of each other, so
// a ring of the window's size (rounded up to a power of two) gives each its
// own slot, seq mod len, and opening a stream allocates one ring instead of
// a map per kind of state. A sequence that lands on another live one — a
// peer whose in-flight sequences spread wider than the window — doubles the
// ring until they part.
type seqRing[T any] struct {
	slots []seqSlot[T] // len a power of two
	n     int          // live sequences
}

type seqSlot[T any] struct {
	seq  int
	live bool
	v    T
}

// init sizes an empty ring for window sequences in flight, keeping the
// slots of an earlier use when they are the size it needs.
func (r *seqRing[T]) init(window int) {
	size := 1
	for size < window {
		size <<= 1
	}
	if len(r.slots) == size {
		clear(r.slots)
	} else {
		r.slots = make([]seqSlot[T], size)
	}
	r.n = 0
}

func (r *seqRing[T]) slot(seq int) *seqSlot[T] { return &r.slots[seq&(len(r.slots)-1)] }

// find returns seq's state, or nil when seq is not live.
func (r *seqRing[T]) find(seq int) *T {
	if sl := r.slot(seq); sl.live && sl.seq == seq {
		return &sl.v
	}
	return nil
}

// add returns seq's state, making seq live with a zero state if it was not.
// The pointer is good until the next add.
func (r *seqRing[T]) add(seq int) *T {
	for {
		sl := r.slot(seq)
		if !sl.live {
			*sl = seqSlot[T]{seq: seq, live: true}
			r.n++
			return &sl.v
		}
		if sl.seq == seq {
			return &sl.v
		}
		r.grow()
	}
}

// drop ends seq's life, zeroing its slot, and reports whether it was live.
func (r *seqRing[T]) drop(seq int) bool {
	sl := r.slot(seq)
	if !sl.live || sl.seq != seq {
		return false
	}
	*sl = seqSlot[T]{}
	r.n--
	return true
}

// grow doubles the ring. Two sequences apart in the old ring are apart in
// the new one: equal mod 2L implies equal mod L.
func (r *seqRing[T]) grow() {
	old := r.slots
	r.slots = make([]seqSlot[T], 2*len(old))
	for _, sl := range old {
		if sl.live {
			*r.slot(sl.seq) = sl
		}
	}
}
