package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"time"
)

// UDP is the datagram socket transport: one chunk of wire octets per
// UDP datagram, each stamped with the wire header so the receiver can
// discard duplicated, reordered and foreign datagrams before they
// scramble the HDLC stream. Loss is accepted (PPP's FCS and the
// tokenizer's flag resync absorb it); ordering is enforced by dropping
// stale sequence numbers.
//
// A UDP endpoint runs in one of two roles, the gateway/client split:
// a listener binds ListenAddr and latches its peer from the first
// valid datagram (re-latching whenever the peer's epoch changes, so a
// restarted or rebound dialer reconnects transparently); a dialer
// binds an ephemeral port and sends to DialAddr. Keepalive probes flow
// both ways; dead-peer detection is symmetric. Probes double as the
// NTP-style clock-offset exchange (the peer answers each with a
// TypeKeepaliveReply), and sampled data headers carry a transmit wall
// stamp, so the endpoint measures one-way latency, jitter, RTT and
// clock offset against its peer (LatencyMeter). It also carries the
// capture-correlation freeze channel (Freezer).
type UDP struct {
	session
	conn *net.UDPConn

	// peer is the address datagrams go to (guarded by mu): fixed for a
	// dialer, latched from the first valid datagram for a listener.
	peer     netip.AddrPort
	flushTmp [][]byte
}

// UDPConfig places a UDP endpoint.
type UDPConfig struct {
	Config
	// ListenAddr, when non-empty, binds this address (the listener
	// role). The peer address is learned from the first valid datagram.
	ListenAddr string
	// DialAddr, when non-empty, is the peer address (the dialer role).
	// With ListenAddr empty the local port is ephemeral.
	DialAddr string
}

// NewUDP opens a UDP line endpoint and starts its reader.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	if cfg.ListenAddr == "" && cfg.DialAddr == "" {
		return nil, fmt.Errorf("transport: UDP needs ListenAddr or DialAddr")
	}
	var laddr *net.UDPAddr
	var err error
	if cfg.ListenAddr != "" {
		if laddr, err = net.ResolveUDPAddr("udp", cfg.ListenAddr); err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
		}
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: bind: %w", err)
	}
	t := &UDP{conn: conn}
	t.init(cfg.Config, cfg.DialAddr == "", uint32(time.Now().UnixNano())|1)
	if cfg.DialAddr != "" {
		raddr, err := net.ResolveUDPAddr("udp", cfg.DialAddr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: dial %s: %w", cfg.DialAddr, err)
		}
		t.peer = raddr.AddrPort()
	}
	go t.reader()
	return t, nil
}

// LocalAddr returns the bound socket address (useful with ":0").
func (t *UDP) LocalAddr() net.Addr { return t.conn.LocalAddr() }

// Send splits p into datagrams of at most maxChunk payload octets and
// queues them; the queue is flushed inline when the peer is known, so
// in the steady state a Send is its own batched syscall burst.
func (t *UDP) Send(p []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	queueChunks(&t.session, p)
	t.flushLocked()
	return nil
}

// flushLocked writes every queued datagram to the peer (no-op while
// the peer is unknown or the line is muted — the bounded queue holds,
// and drops oldest).
func (t *UDP) flushLocked() {
	if t.muted || !t.peer.IsValid() || len(t.sq.bufs) == 0 {
		return
	}
	t.flushTmp = t.sq.drainInto(t.flushTmp[:0], 0)
	for _, buf := range t.flushTmp {
		if _, err := t.conn.WriteToUDPAddrPort(buf, t.peer); err != nil {
			t.st.TxDropped++
		} else {
			t.st.TxChunks++
			t.st.TxBytes += uint64(len(buf) - headerLen)
		}
		t.sq.put(buf)
	}
}

// Tick flushes anything still queued, transmits a due pending freeze,
// and runs keepalive probing and dead-peer accounting. Control records
// go straight to the socket, never behind queued data.
func (t *UDP) Tick(now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.tickNow = now
	t.flushLocked()
	if rec := t.dueFreeze(now, t.peer.IsValid()); rec != nil {
		t.conn.WriteToUDPAddrPort(rec, t.peer)
	}
	due, dead := t.keepalive(now)
	if dead {
		// A dead datagram peer costs nothing to keep: the socket stays,
		// probes continue, and Up() turns true again on the first
		// arrival.
		t.st.Resets++
	}
	if due && t.peer.IsValid() {
		t.conn.WriteToUDPAddrPort(t.probe(now, time.Now().UnixNano()), t.peer)
	}
}

// reader is the receive goroutine: one datagram is one record. A
// datagram that fails to decode is dropped alone — the next one stands
// on its own.
func (t *UDP) reader() {
	buf := make([]byte, 65536)
	for {
		n, addr, err := t.conn.ReadFromUDPAddrPort(buf)
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue
		}
		rxWall := time.Now().UnixNano()
		h, payload, derr := decodeDatagram(buf[:n])
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		kind, ev := t.receive(h, payload, derr, rxWall)
		if ev == peerRestarted {
			t.st.Reconnects++
		}
		if t.listener && ev != peerSame {
			// Latch (or, after a peer restart, re-latch) the return path.
			t.peer = addr
		}
		if kind == rxProbe {
			// Replying straight to the source keeps the exchange alive
			// even before the return path is latched.
			t.conn.WriteToUDPAddrPort(t.reply(h.Wall, rxWall, time.Now().UnixNano()), addr)
		}
		t.mu.Unlock()
	}
}

// Up reports dead-peer status: true once the peer has been heard from
// and keepalive has not given up on it.
func (t *UDP) Up() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.alive && !t.closed
}

// Close shuts the socket down and stops the reader.
func (t *UDP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	return t.conn.Close()
}
