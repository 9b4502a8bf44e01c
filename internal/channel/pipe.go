package channel

import "repro/internal/netsim"

// This file models the *temporal* impairments of a long-haul line, the
// complement of the bit-error channel in channel.go: fixed propagation
// delay and bounded random jitter, at chunk (transport-frame)
// granularity and clocked in virtual ticks. A ring span pushes each
// transmitted frame into a Line and pops the frames due at the current
// tick; the same seed always produces the same delivery schedule, so a
// chaos scenario is exactly reproducible.

// Line is a deterministic delay/jitter pipe over byte chunks. Jitter
// never reorders a fibre: each chunk is due no earlier than the chunk
// pushed before it. The zero value is a zero-latency FIFO. Line takes
// ownership of pushed chunks; it never copies or mutates them.
type Line struct {
	// Delay is the fixed propagation delay in ticks added to every
	// chunk (long-haul distance).
	Delay int64
	// Jitter, when nonzero, adds a uniform random extra delay in
	// [0, Jitter] ticks per chunk. Requires Rand.
	Jitter int64
	// Rand drives the jitter draws; nil disables them.
	Rand *netsim.Rand

	q       []pipeItem // in push order, so in due order
	lastDue int64
}

type pipeItem struct {
	due  int64
	data []byte
}

// Push enqueues one chunk transmitted at virtual time now.
func (ln *Line) Push(now int64, chunk []byte) {
	due := now + ln.Delay
	if ln.Rand != nil && ln.Jitter > 0 {
		due += int64(ln.Rand.Intn(int(ln.Jitter) + 1))
	}
	due = max(due, ln.lastDue)
	ln.lastDue = due
	ln.q = append(ln.q, pipeItem{due: due, data: chunk})
}

// Pop appends every chunk due at or before now to dst, in push order,
// and returns dst.
func (ln *Line) Pop(now int64, dst [][]byte) [][]byte {
	for len(ln.q) > 0 && ln.q[0].due <= now {
		dst = append(dst, ln.q[0].data)
		ln.q[0] = pipeItem{}
		ln.q = ln.q[1:]
	}
	return dst
}
