package fault

import (
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Transport is the transport-level chaos adapter: it wraps a
// transport.LineTransport and stalls or discards whole send chunks in
// scripted tick windows — the brownout and the hard cut a socket-backed
// line sees that the octet-level Injector cannot express. Windows are
// scripted against the adapter's virtual-tick clock, so a scenario
// replays exactly. Duplication and reorder are what a network does to
// datagrams after they leave the transport; a test makes them there, in
// a relay between the sockets.
//
// The adapter impairs only the transmit path (impair where you inject:
// the peer's receiver observes the chaos). Recv, Up, Stats and Close
// pass through to the wrapped transport; chunks held by a stall window
// are flushed from Tick once it ends.
type Transport struct {
	inner transport.LineTransport

	now int64

	stallFrom, stallTo       int64 // real stall: chunks held, then released
	blackoutFrom, blackoutTo int64 // blackout: chunks discarded

	held    [][]byte // chunks captured by a stall, owned copies
	dropped uint64
}

// WrapTransport wraps inner with an impairment adapter. Program it
// with Stall and Blackout before (or while) driving it.
func WrapTransport(inner transport.LineTransport) *Transport {
	return &Transport{inner: inner}
}

// Stall holds every chunk offered in the tick window [from, to); the
// backlog is released, in order, at the first Tick at or past to. The
// peer sees a silent line, then a burst — the brownout shape.
func (t *Transport) Stall(from, to int64) *Transport {
	t.stallFrom, t.stallTo = from, to
	return t
}

// Blackout discards every chunk offered in the tick window [from, to)
// — a hard line cut with no recovery burst.
func (t *Transport) Blackout(from, to int64) *Transport {
	t.blackoutFrom, t.blackoutTo = from, to
	return t
}

// Dropped reports how many chunks the adapter discarded.
func (t *Transport) Dropped() uint64 { return t.dropped }

// hold captures an owned copy of p (Send must not retain the caller's
// buffer past the call).
func (t *Transport) hold(p []byte) {
	t.held = append(t.held, append(make([]byte, 0, len(p)), p...))
}

// releaseHeld forwards the held backlog in capture order.
func (t *Transport) releaseHeld() {
	for _, b := range t.held {
		t.inner.Send(b)
	}
	t.held = t.held[:0]
}

func (t *Transport) inWindow(from, to int64) bool {
	return to > from && t.now >= from && t.now < to
}

// Send passes p through the impairment script and on to the wrapped
// transport.
func (t *Transport) Send(p []byte) error {
	if t.inWindow(t.blackoutFrom, t.blackoutTo) {
		t.dropped++
		return nil
	}
	if t.inWindow(t.stallFrom, t.stallTo) {
		t.hold(p)
		return nil
	}
	return t.inner.Send(p)
}

// Recv passes through to the wrapped transport.
func (t *Transport) Recv(dst [][]byte) [][]byte { return t.inner.Recv(dst) }

// Tick advances the adapter's clock, releases the held backlog once its
// stall window has ended, and ticks the wrapped transport. On transports
// that support it (Muter), a blackout window cuts the line completely
// — keepalive probes and receive included — so both ends' dead-peer
// detection sees a dark line, not just missing data.
func (t *Transport) Tick(now int64) {
	t.now = now
	if m, ok := t.inner.(transport.Muter); ok {
		m.Mute(t.inWindow(t.blackoutFrom, t.blackoutTo))
	}
	if len(t.held) > 0 && !t.inWindow(t.stallFrom, t.stallTo) {
		t.releaseHeld()
	}
	t.inner.Tick(now)
}

// Up passes through to the wrapped transport.
func (t *Transport) Up() bool { return t.inner.Up() }

// SendFreeze forwards to the wrapped transport when it carries the
// freeze side channel (no-op otherwise). Defining the method makes the
// wrapper satisfy transport.Freezer unconditionally, so each forward
// asserts the inner transport itself.
func (t *Transport) SendFreeze(info transport.FreezeInfo) {
	if fz, ok := t.inner.(transport.Freezer); ok {
		fz.SendFreeze(info)
	}
}

// Freezes forwards to the wrapped transport (dst unchanged otherwise).
func (t *Transport) Freezes(dst []transport.FreezeInfo) []transport.FreezeInfo {
	if fz, ok := t.inner.(transport.Freezer); ok {
		return fz.Freezes(dst)
	}
	return dst
}

// CorrelationLeader forwards to the wrapped transport (true otherwise,
// matching a one-sided line's default).
func (t *Transport) CorrelationLeader() bool {
	if fz, ok := t.inner.(transport.Freezer); ok {
		return fz.CorrelationLeader()
	}
	return true
}

// Latency forwards to the wrapped transport (zero otherwise).
func (t *Transport) Latency() transport.Latency {
	if lm, ok := t.inner.(transport.LatencyMeter); ok {
		return lm.Latency()
	}
	return transport.Latency{}
}

// LatencyHist forwards to the wrapped transport (nils otherwise).
func (t *Transport) LatencyHist() (oneWay, jitter, rtt *telemetry.Histogram) {
	if lm, ok := t.inner.(transport.LatencyMeter); ok {
		return lm.LatencyHist()
	}
	return nil, nil, nil
}

// Stats passes through to the wrapped transport.
func (t *Transport) Stats() transport.Stats { return t.inner.Stats() }

// Close passes through to the wrapped transport.
func (t *Transport) Close() error { return t.inner.Close() }
