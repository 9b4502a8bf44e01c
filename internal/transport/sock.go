package transport

import (
	"time"

	"repro/internal/netsim"
)

// This file holds the machinery the socket transports share: the
// capped exponential backoff with seeded jitter that paces dial and
// re-dial attempts, the bounded drop-oldest send queue, the pooled
// receive queue that carries datagrams from the reader goroutine to
// the owning tick loop, and the clock-reading half of Send.

// backoff paces reconnection attempts: capped exponential doubling
// with ±20% seeded jitter, so N transports orphaned by one dead peer
// spread their re-dials instead of thundering in lockstep.
type backoff struct {
	cur, min, max int64
	rng           *netsim.Rand
}

func newBackoff(cfg Config) backoff {
	seed := cfg.jitterSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) | 1
	}
	return backoff{min: retryMin, max: retryMax, rng: netsim.NewRand(seed)}
}

// next returns the delay before the next attempt, doubling the base
// interval up to the cap and jittering the result by ±20%.
func (b *backoff) next() int64 {
	if b.cur == 0 {
		b.cur = b.min
	} else {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
	d := b.cur * int64(80+b.rng.Intn(41)) / 100
	if d < 1 {
		d = 1
	}
	return d
}

// reset re-arms the backoff after a successful connection.
func (b *backoff) reset() { b.cur = 0 }

// chunkQueue is the bounded send queue: encoded wire records awaiting
// the socket, with a free list recycling their buffers. When the queue
// is full the oldest record is dropped — backpressure degrades the
// line (PPP retransmits control packets; data loss surfaces as FCS
// drops), it never blocks the engine or grows without bound. The
// caller provides locking.
type chunkQueue struct {
	limit     int
	bufs      [][]byte
	free      [][]byte
	highWater int
	dropped   uint64
}

// get pops a recycled buffer (nil when the free list is empty).
func (q *chunkQueue) get() []byte {
	if n := len(q.free); n > 0 {
		b := q.free[n-1]
		q.free = q.free[:n-1]
		return b[:0]
	}
	return nil
}

// put recycles a drained buffer.
func (q *chunkQueue) put(b []byte) {
	if len(q.free) < q.limit {
		q.free = append(q.free, b)
	}
}

// push appends a record, dropping the oldest when the queue is full.
func (q *chunkQueue) push(b []byte) {
	if len(q.bufs) >= q.limit {
		old := q.bufs[0]
		copy(q.bufs, q.bufs[1:])
		q.bufs = q.bufs[:len(q.bufs)-1]
		q.put(old)
		q.dropped++
	}
	q.bufs = append(q.bufs, b)
	if d := len(q.bufs); d > q.highWater {
		q.highWater = d
	}
}

// drainInto moves up to max records (all of them when max <= 0) into
// dst and returns it; the caller writes them to the socket and then
// recycles each with put.
func (q *chunkQueue) drainInto(dst [][]byte, max int) [][]byte {
	n := len(q.bufs)
	if max > 0 && n > max {
		n = max
	}
	dst = append(dst, q.bufs[:n]...)
	rest := copy(q.bufs, q.bufs[n:])
	q.bufs = q.bufs[:rest]
	return dst
}

// rxQueue carries received payloads from the reader goroutine to the
// owner's Recv. Buffers are pooled across three generations so a chunk
// handed out by Recv stays valid until the second-following Recv — the
// same ownership rule as Link's receive queue. The caller provides
// locking.
type rxQueue struct {
	chunks   [][]byte // filled by the reader, awaiting Recv
	lent     [][]byte // handed out by the latest Recv
	lentPrev [][]byte // handed out by the one before; recycled next
	free     [][]byte
}

// rxFreeCap bounds the receive free list.
const rxFreeCap = 256

// get returns a pooled buffer holding a copy of p.
func (q *rxQueue) get(p []byte) []byte {
	if n := len(q.free); n > 0 {
		b := q.free[n-1]
		q.free = q.free[:n-1]
		return append(b[:0], p...)
	}
	return append(make([]byte, 0, max(len(p), 2048)), p...)
}

// push appends a filled buffer for the next Recv.
func (q *rxQueue) push(b []byte) { q.chunks = append(q.chunks, b) }

// drain rotates the generations and returns the chunks received since
// the previous drain. The returned slice aliases the queue's lent
// generation; the caller must copy the headers out before releasing
// its lock.
func (q *rxQueue) drain() [][]byte {
	for _, b := range q.lentPrev {
		if len(q.free) < rxFreeCap {
			q.free = append(q.free, b)
		}
	}
	q.lentPrev = q.lentPrev[:0]
	q.lentPrev, q.lent = q.lent, q.lentPrev
	q.lent, q.chunks = q.chunks, q.lent[:0]
	return q.lent
}

// queueChunks is the body of Send under both transports: p split into
// data records on s's send queue, the wall clock read only for the
// sampled records that carry a stamp (the session itself never reads
// a clock).
func queueChunks(s *session, p []byte) {
	for len(p) > 0 {
		wall := int64(0)
		if s.stampDue() {
			wall = time.Now().UnixNano()
		}
		p = s.queueData(p, wall)
	}
}
