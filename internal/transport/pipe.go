package transport

import (
	"sync"
	"sync/atomic"
)

// Pipe is the in-process line transport: a pair of directly-connected
// endpoints whose Send lands in the peer's receive queue. It is the
// loopback transport the sharded engine uses by default, and the
// baseline the socket transports are measured against — the steady
// state allocates nothing (chunks are copied into a double-buffered
// receive arena, recycled at every second drain, exactly the Link
// receive-queue discipline).
//
// A Pipe pair must be driven from one goroutine (the engine shard that
// owns both ends); Stats and Up are safe to call concurrently with the
// owner (telemetry scrapes).
type Pipe struct {
	peer *Pipe

	mu     sync.Mutex
	closed atomic.Bool // set under mu; Send reads it without
	st     Stats

	// Receive queue: chunk spans into an arena, double-buffered at
	// drain time so returned payloads survive until the
	// second-following Recv.
	rx pipeBuf
	// spare is the other half of the double buffer.
	spare pipeBuf
}

// pipeBuf is one half of a Pipe's receive double buffer.
type pipeBuf struct {
	ends  []int // cumulative chunk end offsets into arena
	arena []byte
}

func (b *pipeBuf) reset() {
	b.ends = b.ends[:0]
	b.arena = b.arena[:0]
}

// NewPipePair returns the two connected endpoints of an in-process
// line.
func NewPipePair() (a, z *Pipe) {
	a, z = &Pipe{}, &Pipe{}
	a.peer, z.peer = z, a
	return a, z
}

// Send copies b into the peer's receive queue. A closed end returns
// ErrClosed before touching anything, as the socket transports do; an
// open end whose peer is closed drops the chunk and counts it in
// TxDropped.
func (p *Pipe) Send(b []byte) error {
	if p.closed.Load() {
		return ErrClosed
	}
	q := p.peer
	q.mu.Lock()
	if q.closed.Load() {
		q.mu.Unlock()
		p.mu.Lock()
		p.st.TxDropped++
		p.mu.Unlock()
		return nil
	}
	q.rx.arena = append(q.rx.arena, b...)
	q.rx.ends = append(q.rx.ends, len(q.rx.arena))
	q.st.RxChunks++
	q.st.RxBytes += uint64(len(b))
	q.mu.Unlock()

	p.mu.Lock()
	p.st.TxChunks++
	p.st.TxBytes += uint64(len(b))
	p.mu.Unlock()
	return nil
}

// Recv appends the queued chunks to dst and returns it. Payloads stay
// valid until the second-following Recv.
func (p *Pipe) Recv(dst [][]byte) [][]byte {
	p.mu.Lock()
	full := p.rx
	p.rx, p.spare = p.spare, full
	p.rx.reset()
	p.mu.Unlock()
	start := 0
	for _, end := range full.ends {
		dst = append(dst, full.arena[start:end:end])
		start = end
	}
	return dst
}

// Tick is a no-op: the pipe has no housekeeping.
func (p *Pipe) Tick(now int64) {}

// Up always reports true: an in-process line cannot lose its peer.
// Inject transport faults through fault.Transport to model loss.
func (p *Pipe) Up() bool {
	return !p.closed.Load()
}

// Stats returns a snapshot of the endpoint's counters.
func (p *Pipe) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// Close marks the endpoint closed; subsequent Sends from either end
// fail or drop.
func (p *Pipe) Close() error {
	p.mu.Lock()
	p.closed.Store(true)
	p.mu.Unlock()
	return nil
}
