package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// TCP is the stream socket transport: the same wire records as UDP,
// concatenated on a connection. The stream gives ordering and
// reliability; what this layer adds is *supervision* — a listener that
// accepts replacement connections (newest wins), a dialer that re-dials
// with capped exponential backoff and seeded jitter, a writer goroutine
// that batches queued records into one writev (net.Buffers) so a
// stalled peer blocks only itself while the bounded queue drops oldest,
// and keepalive probes whose misses reset the connection so dead peers
// are re-dialed instead of trusted forever. Which connection is live
// is decided in one place, step: the accept loop, dial, reader, writer,
// Tick and Close only post events to it and act on what it returns.
type TCP struct {
	session
	dialAddr string
	ln       net.Listener

	// Everything below is guarded by the session's mu; cond (on the
	// same mutex) wakes the writer.
	cond *sync.Cond

	conn      net.Conn
	connGen   int // connections installed so far
	connected bool

	dialing bool
	retryAt int64
	bo      backoff
}

// TCPConfig places a TCP endpoint.
type TCPConfig struct {
	Config
	// ListenAddr, when non-empty, accepts connections on this address
	// (the server role); a newly accepted connection replaces the
	// current one.
	ListenAddr string
	// DialAddr, when non-empty, is dialed (and re-dialed, with capped
	// jittered backoff) from the Tick loop.
	DialAddr string
}

// dialTimeout bounds one TCP connect attempt (wall clock — dials run
// on their own goroutine, off the tick loop).
const dialTimeout = 2 * time.Second

// NewTCP opens a TCP line endpoint: a listener starts its accept loop,
// a dialer arms an immediate first attempt at the next Tick.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if (cfg.ListenAddr == "") == (cfg.DialAddr == "") {
		return nil, fmt.Errorf("transport: TCP needs exactly one of ListenAddr or DialAddr")
	}
	t := &TCP{dialAddr: cfg.DialAddr, bo: newBackoff(cfg.Config)}
	t.init(cfg.Config, cfg.ListenAddr != "", uint32(time.Now().UnixNano())|1)
	t.cond = sync.NewCond(&t.mu)
	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
		}
		t.ln = ln
		go t.acceptLoop()
	}
	go t.writer()
	return t, nil
}

// LocalAddr returns the listener's bound address (nil for a dialer).
func (t *TCP) LocalAddr() net.Addr {
	if t.ln == nil {
		return nil
	}
	return t.ln.Addr()
}

// event is one input to step.
type event uint8

const (
	evTick     event = iota // a Tick
	evDialed                // a dial ended with c, nil when it failed
	evAccepted              // the listener accepted c
	evFailed                // c failed: read/write error, bad header, keepalive give-up
	evClose                 // Close
)

// actions is what step decided to do with sockets once mu is released.
type actions struct {
	dial        bool
	read, close net.Conn // start its reader; close it
}

// step takes every connection-lifecycle decision, one event at a time,
// under mu; it never blocks and never touches a socket. The newest
// connection wins; a failure retires c only while c is the live
// connection; a dialer has at most one dial in flight and backs off
// after every failure; a closed transport installs nothing.
func (t *TCP) step(ev event, c net.Conn) (a actions) {
	switch ev {
	case evTick:
		if t.dialAddr != "" && !t.closed && t.conn == nil && !t.dialing && t.tickNow >= t.retryAt {
			t.dialing, a.dial = true, true
		}
	case evDialed, evAccepted:
		if ev == evDialed {
			t.dialing = false
		}
		switch {
		case c == nil:
			t.retryAt = t.tickNow + t.bo.next()
		case t.closed:
			a.close = c
		default:
			if t.conn != nil {
				t.st.Resets++
			}
			a.close, a.read = t.conn, c
			t.conn, t.connected = c, true
			t.connGen++
			t.st.Reconnects = uint64(t.connGen - 1)
			t.revive()
			t.bo.reset()
			t.cond.Broadcast()
		}
	case evFailed:
		if c == t.conn {
			a.close = c
			t.conn, t.connected, t.alive = nil, false, false
			t.st.Resets++
			t.retryAt = t.tickNow + t.bo.next() // read by a dialer only
		}
	case evClose:
		a.close = t.conn
		t.conn, t.connected, t.closed = nil, false, true
		t.cond.Broadcast()
	}
	return a
}

// act carries out what step decided, outside mu.
func (t *TCP) act(a actions) {
	if a.close != nil {
		a.close.Close()
	}
	if a.read != nil {
		go t.reader(a.read)
	}
	if a.dial {
		go t.dial()
	}
}

// post runs one event through step and acts on the result.
func (t *TCP) post(ev event, c net.Conn) {
	t.mu.Lock()
	a := t.step(ev, c)
	t.mu.Unlock()
	t.act(a)
}

// acceptLoop posts each accepted connection until the listener closes.
// After any other Accept error (out of file descriptors, say) it pauses,
// doubling from pauseMin to pauseMax until an Accept succeeds.
func (t *TCP) acceptLoop() {
	const pauseMin, pauseMax = 5 * time.Millisecond, time.Second
	var pause time.Duration
	for {
		c, err := t.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			pause = min(max(2*pause, pauseMin), pauseMax)
			time.Sleep(pause)
			continue
		}
		pause = 0
		t.post(evAccepted, c)
	}
}

// dial runs one connect attempt off the tick loop.
func (t *TCP) dial() {
	c, _ := net.DialTimeout("tcp", t.dialAddr, dialTimeout) // nil c: the dial failed
	t.post(evDialed, c)
}

// queueControl copies a control record the session built onto the send
// queue: on a stream everything, probe replies included, leaves behind
// the data already queued.
func (t *TCP) queueControl(rec []byte) {
	t.sq.push(append(t.sq.get(), rec...))
	t.cond.Broadcast()
}

// reader parses length-prefixed wire records off c until it fails or
// is retired. A header that does not decode is a stream desync: there
// is no next record to find, so the connection is reset rather than
// resynchronised (a version-skewed peer resets on its first record and
// never comes up — the clean rejection path, counted so fleet scrapes
// can name the cause). A muted line keeps parsing, to stay
// record-aligned for when the mute lifts.
func (t *TCP) reader(c net.Conn) {
	defer t.post(evFailed, c) // step ignores it once c is retired
	var hdr [headerLen]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		h, derr := decodeHeader(hdr[:])
		if derr == nil {
			payload = slices.Grow(payload[:0], h.Len)[:h.Len]
			if _, err := io.ReadFull(c, payload); err != nil {
				return
			}
		}
		rxWall := time.Now().UnixNano()
		t.mu.Lock()
		if c != t.conn {
			t.mu.Unlock()
			return
		}
		if kind, _ := t.receive(h, payload, derr, rxWall); kind == rxProbe {
			// t3 is stamped at queue time, so writer-queue delay lands
			// in the measured RTT — honest for a stream transport, where
			// queued data delays everything else too.
			t.queueControl(t.reply(h.Wall, rxWall, time.Now().UnixNano()))
		}
		t.mu.Unlock()
		if derr != nil {
			return
		}
	}
}

// writer drains the send queue into writev batches, one goroutine for
// the transport's lifetime. Only data records are counted, as under
// UDP, though probes, replies and freezes share the queue here.
func (t *TCP) writer() {
	batch := make([][]byte, 0, 32)
	// WriteTo consumes the slice it is called on, so nb is re-cut from
	// store for every batch and the backing array is allocated once.
	store := make(net.Buffers, 0, 32)
	var nb net.Buffers
	for {
		t.mu.Lock()
		for !t.closed && (t.conn == nil || t.muted || len(t.sq.bufs) == 0) {
			t.cond.Wait()
		}
		if t.closed {
			t.mu.Unlock()
			return
		}
		c := t.conn
		batch = t.sq.drainInto(batch[:0], 32)
		t.mu.Unlock()

		nb = append(store[:0], batch...)
		_, err := nb.WriteTo(c)

		t.mu.Lock()
		for _, b := range batch {
			switch {
			case b[5] != typeData: // header octet 5 is the record type
			case err != nil:
				t.st.TxDropped++
			default:
				t.st.TxChunks++
				t.st.TxBytes += uint64(len(b) - headerLen)
			}
			t.sq.put(b)
		}
		t.mu.Unlock()
		if err != nil {
			t.post(evFailed, c)
		}
	}
}

// Send splits p into records of at most maxChunk payload octets and
// queues them for the writer.
func (t *TCP) Send(p []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	queueChunks(&t.session, p)
	t.cond.Broadcast()
	return nil
}

// Tick schedules dial attempts, queues a due pending freeze, and runs
// keepalive accounting while connected. An open connection whose peer
// has gone silent fails, so the dead peer is re-dialed instead of
// trusted forever.
func (t *TCP) Tick(now int64) {
	t.mu.Lock()
	t.tickNow = now
	a := t.step(evTick, nil)
	if rec := t.dueFreeze(now, t.connected); rec != nil {
		t.queueControl(rec)
	}
	if t.connected {
		due, dead := t.keepalive(now)
		if dead {
			a = t.step(evFailed, t.conn) // a tick never dials while connected
		} else if due {
			t.queueControl(t.probe(now, time.Now().UnixNano()))
		}
		if !t.muted && len(t.sq.bufs) > 0 {
			// Data held across a mute has no Send to wake the writer.
			t.cond.Broadcast()
		}
	}
	t.mu.Unlock()
	t.act(a)
}

// Up reports connection and dead-peer status.
func (t *TCP) Up() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.connected && t.alive && !t.closed
}

// Close shuts down the listener, the connection, the writer and the
// readers.
func (t *TCP) Close() error {
	t.post(evClose, nil)
	if t.ln != nil {
		t.ln.Close()
	}
	return nil
}
