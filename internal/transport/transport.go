// Package transport provides pluggable line transports for the
// software PPP stack: the layer that moves HDLC wire octets between
// two link endpoints. Three implementations share one contract — an
// in-process Pipe for single-process engines and tests, and UDP and
// TCP socket transports so two p5sim instances interconnect across
// processes and hosts.
//
// The socket transports are built for hostile networks, not the happy
// path: connection supervision with capped exponential backoff and
// seeded jitter on dial and re-dial, keepalive probes with dead-peer
// detection (surfaced through Up so the link supervisor can escalate a
// transport loss-of-signal defect), bounded send queues with
// drop-oldest backpressure so a stalled socket never blocks or grows
// the engine, and sequence/epoch-stamped datagrams so duplicated or
// reordered packets are discarded instead of corrupting the HDLC byte
// stream. A lost chunk surfaces to PPP as at most one damaged frame
// (the tokenizer resyncs on the next flag and the FCS rejects the
// partial) — never as silent corruption.
//
// Ownership rules, which every implementation honours:
//
//   - Send does not retain p: the caller may recycle the buffer (it is
//     typically a Link.Output double buffer) immediately on return.
//   - Recv appends received chunks to dst and returns it; the chunk
//     payloads stay valid until the second-following Recv on the same
//     transport, so a caller may feed them straight to Link.InputBatch
//     and drain again next tick without copying.
//   - Send, Recv and Tick are called from one owning goroutine (the
//     engine shard that owns the link). Stats and Up may be called
//     concurrently (telemetry scrapes).
package transport

import (
	"errors"

	"repro/internal/telemetry"
)

// LineTransport moves wire octets between two PPP endpoints.
type LineTransport interface {
	// Send queues one chunk of wire bytes toward the peer. p is not
	// retained. A down or congested transport drops rather than blocks:
	// Send only returns an error for a closed transport.
	Send(p []byte) error
	// Recv appends the chunks received since the previous Recv to dst
	// and returns it. Payloads stay valid until the second-following
	// Recv.
	Recv(dst [][]byte) [][]byte
	// Tick advances transport housekeeping at virtual time now: send
	// queue flush, keepalive probes, dead-peer accounting, dial and
	// re-dial scheduling.
	Tick(now int64)
	// Up reports transport liveness: false once dead-peer detection has
	// given up on the far end (or, for connection-oriented transports,
	// while disconnected). The link supervisor maps a true→false
	// transition to a transport-LOS defect.
	Up() bool
	// Stats returns a snapshot of the transport's counters.
	Stats() Stats
	// Close releases sockets and background goroutines. The transport
	// must not be used afterwards.
	Close() error
}

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Muter is implemented by transports that can simulate a full line cut
// — no transmit, not even keepalive probes, and no receive — without
// tearing the socket down. The UDP and TCP transports implement it;
// the chaos adapter drives it for scripted blackout windows.
type Muter interface {
	Mute(on bool)
}

// Selector is implemented by a line with a receive selector of its own
// (aps.Protected, topo.Port): it heals a failure beneath the session,
// and Up turns false only when no path is left.
type Selector interface {
	// OnFailover chains fn, ahead of any subscriber already there, onto
	// every selector movement: reason is "aps-switch" or "ring-switch",
	// detail and to the new selection, ticks the outage it healed.
	OnFailover(fn func(reason, detail string, to, ticks int64))
	// Instrument declares the selector's series on reg labelled
	// {link=name}, its events to tr (nil is off); Tick refreshes them.
	Instrument(reg *telemetry.Registry, tr *telemetry.Tracer, name string)
}

// Stats is the observable record of one transport endpoint.
type Stats struct {
	// TxChunks/TxBytes count data chunks actually written to the line
	// (queued chunks dropped by backpressure are counted in TxDropped,
	// not here; keepalive probes, replies and freezes in neither).
	TxChunks, TxBytes uint64
	// RxChunks/RxBytes count chunks delivered to Recv callers.
	RxChunks, RxBytes uint64
	// TxDropped counts chunks dropped by the bounded send queue
	// (drop-oldest backpressure) or by socket write errors.
	TxDropped uint64
	// RxDropped counts received datagrams discarded before delivery:
	// bad magic or header, duplicates, and reordered (stale-sequence)
	// arrivals.
	RxDropped uint64
	// RxBadVersion counts arrivals rejected for a wire-version mismatch
	// (also included in RxDropped) — the fleet's version-skew signal.
	RxBadVersion uint64
	// Reconnects counts successful connection establishments after the
	// first (TCP re-dials and accepted replacement conns; UDP peer
	// epoch changes).
	Reconnects uint64
	// Resets counts connection losses: read/write errors, replaced
	// conns, and keepalive dead-peer declarations.
	Resets uint64
	// KeepaliveProbes/KeepaliveMisses count probe datagrams sent and
	// silent probe periods observed.
	KeepaliveProbes, KeepaliveMisses uint64
	// QueueDepth and QueueHighWater observe the bounded send queue.
	QueueDepth, QueueHighWater int
}

// Config tunes the socket transports. The zero value is usable.
type Config struct {
	// KeepalivePeriod, when non-zero, sends a keepalive probe every
	// this many ticks and checks for inbound traffic; keepaliveMisses
	// consecutive silent periods declare the peer dead (Up() turns
	// false) until traffic resumes.
	KeepalivePeriod int64
	// jitterSeed seeds the backoff jitter; 0, the only value outside
	// the package's tests, derives a per-process seed.
	jitterSeed uint64
}

const (
	// keepaliveMisses is the silent-period limit.
	keepaliveMisses = 3
	// retryMin and retryMax bound the capped exponential dial/re-dial
	// backoff in ticks. Each delay carries ±20% seeded jitter so a
	// fleet of transports sharing one dead peer does not re-dial in
	// lockstep.
	retryMin, retryMax = 8, 256
	// latencySampleShift sets the one-way latency wall-stamp rate: one
	// data datagram in 2^shift (1 in 64) carries a transmit wall stamp.
	// Sampling keeps the stamp cost off most of the hot path while the
	// histograms still converge in seconds.
	latencySampleShift = 6
)
