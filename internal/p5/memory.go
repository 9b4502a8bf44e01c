package p5

import "bytes"

// The paper's Figure 2 places a shared memory between the host and the
// P5: "Data is buffered before transmission and after reception in
// memory." This file models that block as fixed-capacity descriptor
// rings — the structure a real host driver would map: the host posts
// transmit descriptors and polls receive descriptors; the P5 consumes
// and produces at line rate. A full transmit ring pushes back on the
// host (Post fails); a full receive ring drops frames and counts them,
// exactly the failure mode of an undersized DMA ring.

// ring is a single-producer single-consumer descriptor ring.
type ring[T any] struct {
	slots []T
	used  []bool
	head  int // consumer position
	tail  int // producer position

	// Drops counts producer attempts that found the ring full and
	// discarded the item (receive-side semantics).
	Drops uint64
	// HighWater is the maximum occupancy observed.
	HighWater int
	n         int
}

// newRing creates a ring with the given capacity (minimum 1).
func newRing[T any](capacity int) *ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &ring[T]{slots: make([]T, capacity), used: make([]bool, capacity)}
}

// count returns the current occupancy.
func (r *ring[T]) count() int { return r.n }

// post offers an item to the ring; it reports false (and changes
// nothing) when the ring is full — transmit-side backpressure.
func (r *ring[T]) post(v T) bool {
	if r.used[r.tail] {
		return false
	}
	r.slots[r.tail] = v
	r.used[r.tail] = true
	r.tail = (r.tail + 1) % len(r.slots)
	r.n++
	if r.n > r.HighWater {
		r.HighWater = r.n
	}
	return true
}

// postOrDrop offers an item and counts a drop when full — receive-side
// semantics.
func (r *ring[T]) postOrDrop(v T) bool {
	if r.post(v) {
		return true
	}
	r.Drops++
	return false
}

// poll removes and returns the oldest item.
func (r *ring[T]) poll() (T, bool) {
	var zero T
	if !r.used[r.head] {
		return zero, false
	}
	v := r.slots[r.head]
	r.slots[r.head] = zero
	r.used[r.head] = false
	r.head = (r.head + 1) % len(r.slots)
	r.n--
	return v, true
}

// UseRings replaces the system's unbounded software queues with
// fixed-capacity shared-memory descriptor rings, returning them for the
// host side to drive. A full receive ring drops frames (counted in the
// returned ring's Drops and raised as intRxError). A posted frame is
// copied out of the receive arena into memory of its own, like a host buffer.
func (s *System) UseRings(txCap, rxCap int) (tx *ring[TxJob], rx *ring[RxFrame]) {
	tx = newRing[TxJob](txCap)
	rx = newRing[RxFrame](rxCap)
	s.Tx.Framer.Ring = tx
	s.Rx.Control.Deliver = func(f RxFrame) {
		body := bytes.Clone(f.Body)
		if f.Frame != nil {
			// Payload lies in Body, whose capacity ends at its length.
			fr := *f.Frame
			off := len(f.Body) - cap(fr.Payload)
			fr.Payload = body[off : off+len(fr.Payload)]
			f.Frame = &fr
		}
		f.Body = body
		s.Rx.Control.rewind()
		s.Regs.raiseInt(rxInt(rx.postOrDrop(f) && f.Err == nil))
	}
	return tx, rx
}
