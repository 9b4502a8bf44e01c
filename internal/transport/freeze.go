package transport

// This file is the capture-correlation side channel: a flight trigger
// on one end of a socket line sends a TypeFreeze datagram carrying a
// shared incident ID so the peer dumps its own black box. The freeze
// box is a field of the record session and mutated only under
// its mutex; delivery is best-effort with alive-gated retransmits —
// during a blackout the sender's own dead-peer detection holds the
// pending freeze back, so the retries land once the line returns
// instead of being exhausted into a dark line.

// FreezeInfo is one freeze request, sent or received.
type FreezeInfo struct {
	// Incident is the shared incident ID (nonzero).
	Incident uint64
	// Reason is the triggering end's capture reason (truncated to 16
	// octets on the wire).
	Reason string
	// Tick and WallNs are the triggering end's virtual clock and wall
	// clock at the trigger.
	Tick, WallNs int64
}

// Freezer is implemented by transports that carry the freeze side
// channel (UDP, TCP). The in-process Pipe does not: both ends live in
// one process and ObservePair already joins their recorders.
type Freezer interface {
	// SendFreeze queues a freeze for transmission to the peer
	// (best-effort, retransmitted while the line is alive).
	SendFreeze(FreezeInfo)
	// Freezes appends and returns the freezes received since the last
	// call, oldest first.
	Freezes(dst []FreezeInfo) []FreezeInfo
	// CorrelationLeader reports whether this end assigns incident IDs
	// when both ends trigger for the same line event (larger epoch
	// wins; the follower waits to adopt the peer's ID instead).
	CorrelationLeader() bool
}

// freezeTries bounds retransmission of one pending freeze; spacing is
// the keepalive period (tries are counted only while the line is
// alive, so a blackout does not burn them).
const freezeTries = 4

// freezeDedup is the receive-side dedup ring size.
const freezeDedup = 16

// pendingFreeze is one queued outbound freeze.
type pendingFreeze struct {
	info   FreezeInfo
	tries  int
	nextAt int64
}

// freezeBox is the embedded implementation, guarded by the owning
// transport's mutex.
type freezeBox struct {
	pending []pendingFreeze
	rxq     []FreezeInfo
	seen    [freezeDedup]uint64
	seenN   int
}

// queue adds an outbound freeze (transmitted from the transport's
// Tick).
func (f *freezeBox) queue(info FreezeInfo) {
	f.pending = append(f.pending, pendingFreeze{info: info})
}

// due returns the next pending freeze ready for transmission at tick
// now (nil when none), advancing its retry state. alive gates both
// transmission and try counting.
func (f *freezeBox) due(now int64, alive bool, period int64) *FreezeInfo {
	if !alive || len(f.pending) == 0 {
		return nil
	}
	if period <= 0 {
		period = 64
	}
	for i := range f.pending {
		p := &f.pending[i]
		if now < p.nextAt {
			continue
		}
		p.tries++
		p.nextAt = now + period
		info := p.info
		if p.tries >= freezeTries {
			f.pending = append(f.pending[:i], f.pending[i+1:]...)
		}
		return &info
	}
	return nil
}

// note records a received freeze, deduplicating by incident ID against
// the recent-window ring.
func (f *freezeBox) note(info FreezeInfo) {
	for _, id := range f.seen {
		if id == info.Incident {
			return
		}
	}
	f.seen[f.seenN%freezeDedup] = info.Incident
	f.seenN++
	f.rxq = append(f.rxq, info)
}

// drain moves the received freezes into dst.
func (f *freezeBox) drain(dst []FreezeInfo) []FreezeInfo {
	dst = append(dst, f.rxq...)
	f.rxq = f.rxq[:0]
	return dst
}

// leader decides incident-ID ownership from the epoch exchange:
// the larger epoch assigns. Before the peer's epoch is known the local
// end assumes leadership — a one-sided trigger must not wait.
func leader(localEpoch, peerEpoch uint32, gotEpoch, isListener bool) bool {
	if !gotEpoch {
		return true
	}
	if localEpoch != peerEpoch {
		return localEpoch > peerEpoch
	}
	return isListener
}
