package channel

import (
	"container/heap"

	"repro/internal/netsim"
)

// This file models the *temporal* impairments of a long-haul line, the
// complement of the bit-error Models in channel.go: fixed propagation
// delay, bounded random jitter, and occasional reordering, all at chunk
// (transport-frame) granularity and clocked in virtual ticks. A ring
// span pushes each transmitted frame into a Line and pops the frames
// due at the current tick; the same seed always produces the same
// delivery schedule, so a chaos scenario that depends on a specific
// reorder pattern is exactly reproducible.

// Line is a deterministic delay/jitter/reorder pipe over byte chunks.
// The zero value is a zero-latency FIFO. Line takes ownership of pushed
// chunks; it never copies or mutates them.
type Line struct {
	// Delay is the fixed propagation delay in ticks added to every
	// chunk (long-haul distance).
	Delay int64
	// Jitter, when nonzero, adds a uniform random extra delay in
	// [0, Jitter] ticks per chunk. Requires Rand.
	Jitter int64
	// ReorderEvery, when nonzero, holds back roughly one chunk in
	// ReorderEvery (uniform draw) by ReorderDelay extra ticks, letting
	// the chunks behind it overtake. Requires Rand.
	ReorderEvery int
	// ReorderDelay is the extra lag of a held-back chunk (default 2).
	ReorderDelay int64
	// InOrder forbids jitter-induced reordering: each chunk's due time
	// is clamped to be no earlier than the previously pushed chunk's
	// (held-back chunks are exempt — reordering is their purpose).
	InOrder bool
	// Rand drives jitter and reorder draws; nil disables both.
	Rand *netsim.Rand

	// Pushed and Held count chunks accepted and chunks held for
	// reordering.
	Pushed, Held uint64

	q       pipeHeap
	seq     uint64
	lastDue int64
}

type pipeItem struct {
	due  int64
	seq  uint64 // FIFO tiebreak for equal due times
	data []byte
}

type pipeHeap []pipeItem

func (h pipeHeap) Len() int { return len(h) }
func (h pipeHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h pipeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pipeHeap) Push(x interface{}) { *h = append(*h, x.(pipeItem)) }
func (h *pipeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = pipeItem{}
	*h = old[:n-1]
	return it
}

// Push enqueues one chunk transmitted at virtual time now.
func (ln *Line) Push(now int64, chunk []byte) {
	due := now + ln.Delay
	held := false
	if ln.Rand != nil {
		if ln.Jitter > 0 {
			due += int64(ln.Rand.Intn(int(ln.Jitter) + 1))
		}
		if ln.ReorderEvery > 0 && ln.Rand.Intn(ln.ReorderEvery) == 0 {
			d := ln.ReorderDelay
			if d <= 0 {
				d = 2
			}
			due += d
			held = true
			ln.Held++
		}
	}
	if ln.InOrder && !held && due < ln.lastDue {
		due = ln.lastDue
	}
	if !held {
		ln.lastDue = due
	}
	ln.seq++
	heap.Push(&ln.q, pipeItem{due: due, seq: ln.seq, data: chunk})
	ln.Pushed++
}

// Pop appends every chunk due at or before now to dst, in delivery
// order (due time, then push order), and returns dst.
func (ln *Line) Pop(now int64, dst [][]byte) [][]byte {
	for len(ln.q) > 0 && ln.q[0].due <= now {
		dst = append(dst, heap.Pop(&ln.q).(pipeItem).data)
	}
	return dst
}
