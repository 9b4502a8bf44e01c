package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// half is one end of a modelled TCP connection. It satisfies net.Conn
// through a nil embedded interface, so any socket call made on it
// panics: step may only decide, and the test performs what it decides.
type half struct {
	net.Conn
	id      int
	owner   *TCP // the end it is handed to
	peer    *half
	posted  bool // its dialed/accepted event reached its owner
	reading bool // its reader was started
	closed  bool
	eof     bool // its reader's failure was posted
}

// delivery is a dialed or accepted event on its way to its end.
type delivery struct {
	to *TCP
	ev event
	c  *half
}

// lcWorld is a dialer and a listener with no sockets: events go to
// step directly and the test carries out the returned actions.
type lcWorld struct {
	tb      testing.TB
	dl, ln  *TCP
	halves  []*half
	pending []delivery
	dials   int // dials started that have neither connected nor failed
	trace   []string
}

// retryFloor is backoff.next's lower jitter edge for retryMin,
// max(1, ⌊0.8·retryMin⌋).
const retryFloor = max(1, retryMin*8/10)

func newLCEnd(dialAddr string) *TCP {
	cfg := Config{jitterSeed: 7}
	t := &TCP{dialAddr: dialAddr, bo: newBackoff(cfg)}
	t.init(cfg, dialAddr == "", 1)
	t.cond = sync.NewCond(&t.mu)
	return t
}

func newLCWorld(tb testing.TB) *lcWorld {
	return &lcWorld{tb: tb, dl: newLCEnd("peer"), ln: newLCEnd("")}
}

func (w *lcWorld) name(t *TCP) string {
	if t == w.dl {
		return "dl"
	}
	return "ln"
}

func (w *lcWorld) fail(format string, args ...any) {
	w.tb.Helper()
	w.tb.Fatalf("after %s: %s", strings.Join(w.trace, ", "), fmt.Sprintf(format, args...))
}

// post runs one event through end's step and performs its actions,
// checking what no single step may get wrong.
func (w *lcWorld) post(end *TCP, ev event, c *half) {
	var conn net.Conn
	if c != nil {
		conn = c
	}
	gen, live := end.connGen, end.conn
	a := end.step(ev, conn)
	w.act(end, a)
	if end.connGen != gen && (a.read == nil || a.read != end.conn) {
		w.fail("%s installed %v without starting its reader", w.name(end), end.conn)
	}
	dialFailed := ev == evDialed && c == nil
	if end == w.dl && (dialFailed || ev == evFailed && live != nil && conn == live) {
		if end.retryAt < end.tickNow+retryFloor {
			w.fail("dialer retries at %d after a failure at tick %d", end.retryAt, end.tickNow)
		}
	}
}

func (w *lcWorld) act(end *TCP, a actions) {
	if a.close != nil {
		h := a.close.(*half)
		if h.owner != end || h.closed {
			w.fail("%s closes half %d (owner %s, closed %v)", w.name(end), h.id, w.name(h.owner), h.closed)
		}
		h.closed = true
	}
	if a.read != nil {
		h := a.read.(*half)
		if h.owner != end || h.reading {
			w.fail("%s starts a second reader on half %d", w.name(end), h.id)
		}
		h.reading = true
	}
	if a.dial {
		w.dials++
	}
}

// tick is the dialer's next tick that can matter: step ignores every
// tick before retryAt, so the clock jumps there.
func (w *lcWorld) tick() {
	w.dl.tickNow = max(w.dl.tickNow+1, w.dl.retryAt)
	w.post(w.dl, evTick, nil)
}

// connect completes a dial: a connected pair whose two halves reach the
// dialer and the listener as two separate later events.
func (w *lcWorld) connect() {
	w.dials--
	d := &half{id: len(w.halves), owner: w.dl}
	a := &half{id: len(w.halves) + 1, owner: w.ln, peer: d}
	d.peer = a
	w.halves = append(w.halves, d, a)
	w.pending = append(w.pending, delivery{w.dl, evDialed, d}, delivery{w.ln, evAccepted, a})
}

func (w *lcWorld) deliver(i int) {
	p := w.pending[i]
	w.pending = append(w.pending[:i], w.pending[i+1:]...)
	p.c.posted = true
	w.post(p.to, p.ev, p.c)
}

// eofDue reports whether h's reader has an error to post: either end
// of its connection was closed.
func eofDue(h *half) bool { return h.reading && !h.eof && (h.closed || h.peer.closed) }

func (w *lcWorld) eof(h *half) {
	h.eof = true
	w.post(h.owner, evFailed, h)
}

// giveUp is a keepalive give-up as Tick posts it: the tick, then the
// live connection's failure.
func (w *lcWorld) giveUp(end *TCP) {
	end.tickNow++
	w.post(end, evTick, nil)
	w.post(end, evFailed, end.conn.(*half))
}

// lcEvent is one enabled event.
type lcEvent struct {
	name string
	do   func()
}

// enabled lists every event that can happen next.
func (w *lcWorld) enabled() []lcEvent {
	var evs []lcEvent
	if !w.dl.closed {
		evs = append(evs, lcEvent{"tick", w.tick})
	}
	if w.dials > 0 {
		evs = append(evs, lcEvent{"connect", w.connect},
			lcEvent{"dial fails", func() { w.dials--; w.post(w.dl, evDialed, nil) }})
	}
	// Each end takes its own deliveries in order (one accept queue).
	for _, end := range []*TCP{w.dl, w.ln} {
		for i, p := range w.pending {
			if p.to == end {
				evs = append(evs, lcEvent{fmt.Sprintf("%s gets half %d", w.name(end), p.c.id), func() { w.deliver(i) }})
				break
			}
		}
	}
	for _, h := range w.halves {
		if eofDue(h) {
			evs = append(evs, lcEvent{fmt.Sprintf("half %d reader fails", h.id), func() { w.eof(h) }})
		}
	}
	for _, end := range []*TCP{w.dl, w.ln} {
		if c, ok := end.conn.(*half); ok {
			evs = append(evs, lcEvent{w.name(end) + " conn fails", func() { w.post(end, evFailed, c) }},
				lcEvent{w.name(end) + " gives up", func() { w.giveUp(end) }})
		}
		if !end.closed {
			evs = append(evs, lcEvent{w.name(end) + " closes", func() { w.post(end, evClose, nil) }})
		}
	}
	return evs
}

// check asserts the invariants that hold after every event.
func (w *lcWorld) check() {
	w.tb.Helper()
	for _, end := range []*TCP{w.dl, w.ln} {
		if end.connected != (end.conn != nil) || end.closed && end.conn != nil {
			w.fail("%s: connected=%v conn=%v closed=%v", w.name(end), end.connected, end.conn, end.closed)
		}
		if c, ok := end.conn.(*half); ok && (c.owner != end || !c.reading || c.closed) {
			w.fail("%s's live half %d: owner %s, reading %v, closed %v", w.name(end), c.id, w.name(c.owner), c.reading, c.closed)
		}
	}
	for _, h := range w.halves {
		if h.posted && !h.closed && h.owner.conn != net.Conn(h) {
			w.fail("half %d leaked: neither live on %s nor closed", h.id, w.name(h.owner))
		}
	}
	inFlight := w.dials
	for _, p := range w.pending {
		if p.ev == evDialed {
			inFlight++
		}
	}
	if inFlight > 1 || w.dl.dialing != (inFlight == 1) {
		w.fail("%d dials in flight, dialing=%v", inFlight, w.dl.dialing)
	}
}

// settle drains every pending event, completing dials and ticking the
// dialer, until nothing is left to happen; if neither end closed, both
// must then hold the two halves of one connection.
func (w *lcWorld) settle() {
	w.tb.Helper()
	for range 64 {
		switch {
		case len(w.pending) > 0:
			w.trace = append(w.trace, "deliver")
			w.deliver(0)
		case w.firstEOF() != nil:
			w.trace = append(w.trace, "reader fails")
			w.eof(w.firstEOF())
		case w.dials > 0:
			w.trace = append(w.trace, "connect")
			w.connect()
		case !w.dl.closed && w.dl.conn == nil:
			w.trace = append(w.trace, "tick")
			w.tick()
		default:
			if !w.dl.closed && !w.ln.closed {
				d, _ := w.dl.conn.(*half)
				if d == nil || w.ln.conn != net.Conn(d.peer) {
					w.fail("settled on different connections: dialer %v, listener %v", w.dl.conn, w.ln.conn)
				}
			}
			return
		}
		w.check()
	}
	if !w.dl.closed && !w.ln.closed {
		w.fail("never settled")
	}
}

func (w *lcWorld) firstEOF() *half {
	for _, h := range w.halves {
		if eofDue(h) {
			return h
		}
	}
	return nil
}

// TestTCPLifecycleInterleavings explores every order of lifecycle
// events up to depth 6 on a socket-free dialer/listener pair — ticks,
// dials connecting or failing, each half of a new connection arriving
// at its end, live connections failing, keepalive give-ups, Close on
// either end, and every reader's error after either side of its
// connection closes — checking after every event that each end holds
// at most one live connection, no half leaks, the dialer has at most
// one dial in flight, no reader starts on nil, and a failure backs the
// dialer off. After each sequence the world settles: with neither end
// closed, both hold the same connection.
func TestTCPLifecycleInterleavings(t *testing.T) {
	const depth = 6
	sequences := 0
	var explore func(prefix []int)
	explore = func(prefix []int) {
		w := newLCWorld(t)
		for _, i := range prefix {
			ev := w.enabled()[i]
			w.trace = append(w.trace, ev.name)
			ev.do()
			w.check()
		}
		n := len(w.enabled())
		if len(prefix) == depth || n == 0 {
			w.settle()
			sequences++
			return
		}
		for i := range n {
			explore(append(prefix[:len(prefix):len(prefix)], i))
		}
	}
	explore(nil)
	t.Logf("%d event sequences explored", sequences)
}

// errListener is a listener whose Accept always fails, as one out of
// file descriptors does, until it is closed.
type errListener struct {
	net.Listener
	calls  atomic.Int64
	closed atomic.Bool
}

func (l *errListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	if l.closed.Load() {
		return nil, net.ErrClosed
	}
	return nil, errors.New("accept4: too many open files")
}

func (l *errListener) Close() error { l.closed.Store(true); return nil }

// TestTCPAcceptErrorBacksOff: a persistent Accept error is retried
// after a growing pause, not in a spin, and Close still ends the loop.
func TestTCPAcceptErrorBacksOff(t *testing.T) {
	ln := &errListener{}
	tr := &TCP{ln: ln}
	tr.cond = sync.NewCond(&tr.mu)
	done := make(chan struct{})
	go func() { tr.acceptLoop(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	if n := ln.calls.Load(); n > 20 {
		t.Fatalf("Accept called %d times in 50 ms", n)
	}
	tr.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop still running after Close")
	}
}
