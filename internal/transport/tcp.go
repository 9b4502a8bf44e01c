package transport

import (
	"fmt"
	"io"
	"net"
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
// are re-dialed instead of trusted forever.
type TCP struct {
	session
	dialAddr string
	ln       net.Listener

	// Everything below is guarded by the session's mu; cond (on the
	// same mutex) wakes the writer.
	cond *sync.Cond

	conn      net.Conn
	connGen   int
	connected bool
	everUp    bool

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

// acceptLoop installs each accepted connection, newest wins.
func (t *TCP) acceptLoop() {
	for {
		c, err := t.ln.Accept()
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		t.install(c)
	}
}

// install makes c the active connection, replacing (and counting a
// reset for) any previous one, and starts its reader.
func (t *TCP) install(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return
	}
	if t.conn != nil {
		t.conn.Close()
		t.st.Resets++
	}
	t.conn = c
	t.connGen++
	gen := t.connGen
	t.connected = true
	t.revive()
	if t.everUp {
		t.st.Reconnects++
	}
	t.everUp = true
	t.bo.reset()
	t.retryAt = 0
	t.cond.Broadcast()
	t.mu.Unlock()
	go t.reader(c, gen)
}

// dropConn retires c (read/write error, keepalive give-up): the dialer
// schedules a jittered re-dial, the listener waits for the next accept.
func (t *TCP) dropConn(c net.Conn, gen int) {
	t.mu.Lock()
	if t.connGen != gen || t.conn != c {
		t.mu.Unlock()
		return
	}
	c.Close()
	t.conn = nil
	t.connected = false
	t.alive = false
	t.st.Resets++
	if t.dialAddr != "" {
		t.retryAt = t.tickNow + t.bo.next()
	}
	t.mu.Unlock()
}

// queueControl copies a control record the session built onto the send
// queue: on a stream everything, probe replies included, leaves behind
// the data already queued.
func (t *TCP) queueControl(rec []byte) {
	t.sq.push(append(t.sq.get(), rec...))
	t.cond.Broadcast()
}

// reader parses length-prefixed wire records off c until it fails. A
// header that does not decode is a stream desync: there is no next
// record to find, so the connection is reset rather than
// resynchronised (a version-skewed peer resets on its first record and
// never comes up — the clean rejection path, counted so fleet scrapes
// can name the cause). A muted line keeps parsing, to stay
// record-aligned for when the mute lifts.
func (t *TCP) reader(c net.Conn, gen int) {
	var hdr [HeaderLen]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			t.dropConn(c, gen)
			return
		}
		h, derr := DecodeHeader(hdr[:])
		if derr == nil {
			if cap(payload) < h.Len {
				payload = make([]byte, 0, h.Len)
			}
			payload = payload[:h.Len]
			if _, err := io.ReadFull(c, payload); err != nil {
				t.dropConn(c, gen)
				return
			}
		}
		rxWall := time.Now().UnixNano()
		t.mu.Lock()
		if t.closed {
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
			t.dropConn(c, gen)
			return
		}
	}
}

// writer drains the send queue into writev batches, one goroutine for
// the transport's lifetime.
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
		c, gen := t.conn, t.connGen
		batch = t.sq.drainInto(batch[:0], 32)
		t.mu.Unlock()

		nb = append(store[:0], batch...)
		var payload uint64
		for _, b := range batch {
			payload += uint64(len(b) - HeaderLen)
		}
		_, err := nb.WriteTo(c)

		t.mu.Lock()
		if err != nil {
			t.st.TxDropped += uint64(len(batch))
		} else {
			t.st.TxChunks += uint64(len(batch))
			t.st.TxBytes += payload
		}
		for _, b := range batch {
			t.sq.put(b)
		}
		t.mu.Unlock()
		if err != nil {
			t.dropConn(c, gen)
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
// has gone silent is dropped, so the dead peer is re-dialed instead of
// trusted forever.
func (t *TCP) Tick(now int64) {
	t.mu.Lock()
	t.tickNow = now
	if t.closed {
		t.mu.Unlock()
		return
	}
	if t.dialAddr != "" && !t.connected && !t.dialing && now >= t.retryAt {
		t.dialing = true
		go t.dial()
	}
	if rec := t.dueFreeze(now, t.connected); rec != nil {
		t.queueControl(rec)
	}
	if !t.connected {
		t.mu.Unlock()
		return
	}
	due, dead := t.keepalive(now)
	c, gen := t.conn, t.connGen
	if due && !dead {
		t.queueControl(t.probe(now, time.Now().UnixNano()))
	}
	if !t.muted && len(t.sq.bufs) > 0 {
		// Data held across a mute has no Send to wake the writer.
		t.cond.Broadcast()
	}
	t.mu.Unlock()
	if dead {
		t.dropConn(c, gen)
	}
}

// dial runs one connect attempt off the tick loop. dialing stays set
// until install has marked the line connected, or a Tick in between
// dials again and the two ends may each keep the connection the other
// closed.
func (t *TCP) dial() {
	c, err := net.DialTimeout("tcp", t.dialAddr, dialTimeout)
	if err == nil {
		t.install(c) // closes c if the transport closed meanwhile
	}
	t.mu.Lock()
	t.dialing = false
	if err != nil {
		t.retryAt = t.tickNow + t.bo.next()
	}
	t.mu.Unlock()
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
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conn := t.conn
	t.conn = nil
	t.connected = false
	t.cond.Broadcast()
	t.mu.Unlock()
	if t.ln != nil {
		t.ln.Close()
	}
	if conn != nil {
		conn.Close()
	}
	return nil
}
