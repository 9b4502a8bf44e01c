package fault

import (
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Transport is the transport-level chaos adapter: it wraps a
// transport.LineTransport and impairs whole send chunks — dropping,
// duplicating, delaying (reorder) and stalling them — the failure
// modes a socket-backed line sees that the octet-level Injector cannot
// express. Impairments are scripted against the adapter's virtual-tick
// clock and chunk counter, so a scenario replays exactly.
//
// The adapter impairs only the transmit path (impair where you inject:
// the peer's receiver observes the chaos). Recv, Up, Stats and Close
// pass through to the wrapped transport; held chunks released by
// reorder or a stall window ending are flushed from Tick.
type Transport struct {
	inner transport.LineTransport

	txIndex  uint64 // chunks offered to Send so far
	now      int64
	dropN    map[uint64]bool
	dupN     map[uint64]bool
	reorderN map[uint64]bool

	stallFrom, stallTo       int64 // real stall: chunks held, then released
	blackoutFrom, blackoutTo int64 // blackout: chunks discarded

	held    [][]byte // chunks captured by reorder/stall, owned copies
	dropped uint64
	duped   uint64
}

// WrapTransport wraps inner with an impairment adapter. Program it
// with the Drop/Dup/Reorder/Stall/Blackout methods before
// (or while) driving it.
func WrapTransport(inner transport.LineTransport) *Transport {
	return &Transport{
		inner:    inner,
		dropN:    make(map[uint64]bool),
		dupN:     make(map[uint64]bool),
		reorderN: make(map[uint64]bool),
	}
}

// Drop discards the n-th offered chunk (0-based).
func (t *Transport) Drop(n uint64) *Transport { t.dropN[n] = true; return t }

// Dup sends the n-th offered chunk twice.
func (t *Transport) Dup(n uint64) *Transport { t.dupN[n] = true; return t }

// Reorder holds the n-th offered chunk and releases it after the next
// chunk has been sent — a one-slot late delivery.
func (t *Transport) Reorder(n uint64) *Transport { t.reorderN[n] = true; return t }

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

// Duplicated reports how many extra chunk copies the adapter sent.
func (t *Transport) Duplicated() uint64 { return t.duped }

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
	n := t.txIndex
	t.txIndex++
	if t.inWindow(t.blackoutFrom, t.blackoutTo) {
		t.dropped++
		return nil
	}
	if t.inWindow(t.stallFrom, t.stallTo) {
		t.hold(p)
		return nil
	}
	switch {
	case t.dropN[n]:
		t.dropped++
		return nil
	case t.reorderN[n]:
		t.hold(p)
		return nil
	}
	err := t.inner.Send(p)
	if t.dupN[n] {
		t.duped++
		t.inner.Send(p)
	}
	// A reordered chunk is released one chunk late: after this in-order
	// send, not before it.
	if len(t.held) > 0 && !t.inWindow(t.stallFrom, t.stallTo) {
		t.releaseHeld()
	}
	return err
}

// Recv passes through to the wrapped transport.
func (t *Transport) Recv(dst [][]byte) [][]byte { return t.inner.Recv(dst) }

// Tick advances the adapter's clock, releases any held backlog whose
// window has ended (stall) or that no following Send flushed (reorder
// at end of traffic), and ticks the wrapped transport. On transports
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
