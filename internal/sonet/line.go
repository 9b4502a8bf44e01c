package sonet

import (
	"sync"

	"repro/internal/transport"
)

// Line is one end of an STM-N section behind the transport.LineTransport
// seam — the PHY interface of the paper's Figure 2. Send queues HDLC line
// octets, Tick cuts the one frame of that frame time (framer → Inject →
// the peer end's deframer) and Recv hands out what this end's deframer
// recovered. The adapter sits at the path layer: K1/K2, the defect
// monitor and the parity counters stay on Framer() and Deframer() beside
// it. A pair is driven from one goroutine; Up and Stats are safe from any.
type Line struct {
	// Inject, when set, passes every frame this end transmits on its way
	// to the peer (fault.Injector.Apply). It may edit the frame in place,
	// resize it, or return nil: a frame time in which the peer hears
	// nothing.
	Inject func(frame []byte) []byte

	fr   *Framer
	df   *Deframer
	peer *Line
	txQ  []byte // queued by Send; the head leaves with each frame
	// Payload recovered since the last Recv, and the span that Recv handed
	// out: a double buffer, valid until the second-following Recv.
	rx, held []byte

	mu     sync.Mutex // guards what Up and Stats read
	st     transport.Stats
	down   bool // a service-affecting defect on the receive side
	closed bool
}

// NewLinePair returns the two ends of one STM-N section, one frame per
// Tick in each direction.
func NewLinePair(level Level) (a, z *Line) {
	a, z = &Line{}, &Line{}
	a.peer, z.peer = z, a
	for _, l := range []*Line{a, z} {
		l.fr, l.df = NewFramer(level, nil), NewDeframer(level, nil)
		// off is how much of the queue the frame being built already carries.
		l.fr.Fill = func(dst []byte, off int) int { return copy(dst, l.txQ[min(off, len(l.txQ)):]) }
		l.df.Payload = func(p []byte, _ int) { l.rx = append(l.rx, p...) }
	}
	return a, z
}

// Framer is the transmit side: K1/K2, FramesBuilt, FillOctets.
func (l *Line) Framer() *Framer { return l.fr }

// Deframer is the receive side: Defects, OnAPS, counters, Instrument.
func (l *Line) Deframer() *Deframer { return l.df }

// Send queues p behind the octets not yet on the line; p is not kept.
// The queue has no bound — a synchronous line never drops, it delays.
func (l *Line) Send(p []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return transport.ErrClosed
	}
	l.txQ = append(l.txQ, p...)
	l.st.QueueDepth = len(l.txQ)
	l.st.QueueHighWater = max(l.st.QueueHighWater, len(l.txQ))
	return nil
}

// Tick cuts one frame from the head of the queue (flag fill behind it)
// and delivers it to the peer's deframer.
func (l *Line) Tick(now int64) {
	frame := l.fr.NextFrame()
	sent := min(len(l.txQ), l.fr.Level.PayloadBytes())
	if l.Inject != nil {
		frame = l.Inject(frame)
	}
	l.mu.Lock()
	l.txQ = l.txQ[:copy(l.txQ, l.txQ[sent:])]
	l.st.QueueDepth = len(l.txQ)
	l.st.TxChunks++
	l.st.TxBytes += uint64(sent)
	l.mu.Unlock()

	// The deframer's hooks (OnAPS, Defects.OnEvent) run outside the lock.
	z := l.peer
	had := len(z.rx)
	z.df.Feed(frame)
	z.mu.Lock()
	z.st.RxChunks = z.df.FramesOK + z.df.FramesErrored
	z.st.RxBytes += uint64(len(z.rx) - had)
	z.down = z.df.Defects.Active()&ServiceAffecting != 0
	z.mu.Unlock()
}

// Recv appends the payload recovered since the previous Recv to dst as
// one span, valid until the second-following Recv.
func (l *Line) Recv(dst [][]byte) [][]byte {
	full := l.rx
	l.rx, l.held = l.held[:0], full
	if len(full) > 0 {
		dst = append(dst, full[:len(full):len(full)])
	}
	return dst
}

// Up reports that no ServiceAffecting defect is active on the receive side.
func (l *Line) Up() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.down && !l.closed
}

// Stats counts frames as chunks, TxBytes the queued octets they carried,
// RxBytes the payload octets recovered (flag fill included: the path
// layer cannot tell it from data) and the send queue in octets.
func (l *Line) Stats() transport.Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st
}

// Close ends Send; the line itself has nothing to release.
func (l *Line) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}
