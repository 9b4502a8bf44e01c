package transport

import (
	"sync"

	"repro/internal/telemetry"
)

// session is the P5LT record session both socket transports run: the
// epoch/sequence cursor that discards duplicated, reordered and
// foreign records, the keepalive period clock and its dead-peer
// verdict, the NTP-style probe/reply exchange, the freeze side
// channel, the latency meter, the mute switch, the bounded queues and
// the counters. UDP and TCP embed it and add only their socket I/O.
//
// The session never reads a clock and never touches a socket: ticks
// and wall stamps arrive as arguments, records leave as byte slices
// the shell writes, so the whole receive path can be driven — and
// fuzzed — without sockets. Every unexported method expects mu held;
// the exported accessors take it themselves.
type session struct {
	cfg Config
	// listener breaks CorrelationLeader epoch ties.
	listener bool

	mu     sync.Mutex
	closed bool
	muted  bool
	st     Stats

	sq chunkQueue
	rq rxQueue

	epoch uint32
	seq   uint64

	peerEpoch uint32
	gotEpoch  bool
	peerSeq   uint64

	alive   bool
	rxCount uint64
	tickNow int64

	kaNext   int64
	kaLastRx uint64
	kaMisses int

	lm meter
	fz freezeBox

	// ctl is where probe, reply and freeze records are built, so the
	// control exchange never allocates. A record returned from it is
	// valid until the next one is built (write or copy it under mu).
	ctl [headerLen + 64]byte
}

// sendQueueLimit bounds the send queue in records; when full the
// oldest is dropped — the transport degrades, it never blocks the
// engine. maxChunk bounds one record's payload octets (under the
// 64 KiB UDP datagram ceiling); oversized Sends are split.
const (
	sendQueueLimit = 256
	maxChunk       = 60000
)

// init prepares an embedded session. epoch is the instance's random
// identity on the wire (nonzero; the shell draws it).
func (s *session) init(cfg Config, listener bool, epoch uint32) {
	s.cfg = cfg
	s.listener = listener
	s.epoch = epoch
	s.sq.limit = sendQueueLimit
	s.lm = newMeter()
}

// stampDue reports whether the next data record carries a wall stamp
// (1 in 2^latencySampleShift), so the shell reads its clock only then.
func (s *session) stampDue() bool { return s.lm.stampWall(s.seq + 1) }

// queueData builds one data record from the head of p (at most
// maxChunk octets) on the send queue and returns the rest of p. wall is
// the transmit wall stamp, 0 when stampDue said none is wanted.
func (s *session) queueData(p []byte, wall int64) []byte {
	n := min(len(p), maxChunk)
	s.seq++
	buf := appendHeader(s.sq.get(), typeData, n, s.epoch, s.seq, s.tickNow, wall)
	s.sq.push(append(buf, p[:n]...))
	return p[n:]
}

// rxKind is what receive did with one record.
type rxKind uint8

const (
	// rxDropped: discarded and counted in RxDropped (muted line, bad
	// header, duplicate or stale sequence).
	rxDropped rxKind = iota
	// rxData: the payload is queued for Recv.
	rxData
	// rxControl: consumed by the session (probe reply, freeze, or an
	// unstamped probe that wants no answer).
	rxControl
	// rxProbe: a stamped keepalive probe; the shell owes the peer the
	// record reply builds.
	rxProbe
)

// peerEvent is what a record revealed about the peer's instance.
type peerEvent uint8

const (
	peerSame      peerEvent = iota
	peerFirst               // the first record from any peer
	peerRestarted           // a new epoch: the peer restarted or re-bound
)

// receive classifies one record. h, payload and derr are the decoder's
// results (DecodeDatagram, or DecodeHeader plus the payload read off
// the stream); rxWall is the local wall clock when the record arrived.
func (s *session) receive(h header, payload []byte, derr error, rxWall int64) (rxKind, peerEvent) {
	if s.muted {
		// The line is cut: what arrives anyway is lost in the dark
		// window, invisible even to liveness accounting.
		s.st.RxDropped++
		return rxDropped, peerSame
	}
	if derr != nil {
		// A version-skewed peer fails here on every record and never
		// marks the line alive — keepalive supervision reports it dead,
		// RxBadVersion names the cause.
		if derr == errBadVersion {
			s.st.RxBadVersion++
		}
		s.st.RxDropped++
		return rxDropped, peerSame
	}
	s.rxCount++
	s.alive = true
	peer := peerSame
	if !s.gotEpoch || h.Epoch != s.peerEpoch {
		peer = peerFirst
		if s.gotEpoch {
			peer = peerRestarted
		}
		// Resynchronise: a restarted peer counts from 1 again.
		s.gotEpoch, s.peerEpoch, s.peerSeq = true, h.Epoch, 0
	}
	s.lm.noteTick(h.Tick, s.tickNow)
	switch h.Type {
	case typeKeepalive:
		if h.Wall != 0 {
			return rxProbe, peer
		}
		return rxControl, peer
	case typeKeepaliveReply:
		if t1, t2, t3, err := decodeKeepaliveReply(payload); err == nil {
			s.lm.noteReply(t1, t2, t3, rxWall)
		}
		return rxControl, peer
	case typeFreeze:
		if inc, trigTick, trigWall, reason, err := decodeFreeze(payload); err == nil {
			s.fz.note(FreezeInfo{Incident: inc, Reason: reason, Tick: trigTick, WallNs: trigWall})
		}
		return rxControl, peer
	}
	if h.Seq <= s.peerSeq {
		// Duplicate or reordered behind the delivery cursor (or
		// replayed across a reconnect race): a stale chunk spliced into
		// the HDLC stream would corrupt framing, so it is dropped —
		// loss PPP already absorbs.
		s.st.RxDropped++
		return rxDropped, peer
	}
	s.peerSeq = h.Seq
	s.lm.noteData(h.Wall, rxWall)
	s.rq.push(s.rq.get(payload))
	s.st.RxChunks++
	s.st.RxBytes += uint64(len(payload))
	return rxData, peer
}

// reply builds the answer to a probe with the NTP triple: t1 echoed
// from the probe's wall stamp, t2 the local receive clock, t3 the
// local transmit clock.
func (s *session) reply(t1, t2, t3 int64) []byte {
	b := appendHeader(s.ctl[:0], typeKeepaliveReply, keepaliveReplyLen, s.epoch, s.seq, s.tickNow, 0)
	return appendKeepaliveReplyPayload(b, t1, t2, t3)
}

// keepalive runs the period clock at tick now. probe reports a period
// boundary on an unmuted line (the shell sends the record probe
// builds, if it has somewhere to send it); dead reports that this
// boundary was the keepaliveMisses-th consecutive silent one, and the
// session has stopped calling the peer alive until traffic resumes.
func (s *session) keepalive(now int64) (probe, dead bool) {
	period := s.cfg.KeepalivePeriod
	if period <= 0 {
		return false, false
	}
	if s.kaNext == 0 {
		s.kaNext = now + period
		s.kaLastRx = s.rxCount
		return false, false
	}
	if now < s.kaNext {
		return false, false
	}
	s.kaNext = now + period
	if s.rxCount == s.kaLastRx {
		s.kaMisses++
		s.st.KeepaliveMisses++
		if s.kaMisses >= keepaliveMisses && s.alive {
			s.alive = false
			dead = true
		}
	} else {
		s.kaMisses = 0
	}
	s.kaLastRx = s.rxCount
	return !s.muted, dead
}

// revive presumes a fresh connection live and gives it a full
// keepalive budget: the clock re-arms at the next keepalive call.
func (s *session) revive() {
	s.alive = true
	s.kaMisses = 0
	s.kaNext = 0
}

// probe builds a keepalive probe; wall is the NTP t1 origin stamp.
func (s *session) probe(now, wall int64) []byte {
	s.st.KeepaliveProbes++
	return appendHeader(s.ctl[:0], typeKeepalive, 0, s.epoch, s.seq, now, wall)
}

// dueFreeze builds the record of one pending freeze due at tick now,
// nil when there is none. Retries are gated on the line being able to
// carry them (lineOK from the shell, alive and unmuted here), so a
// freeze raised during a blackout waits the dark window out instead of
// exhausting its tries into it.
func (s *session) dueFreeze(now int64, lineOK bool) []byte {
	fi := s.fz.due(now, lineOK && s.alive && !s.muted, s.cfg.KeepalivePeriod)
	if fi == nil {
		return nil
	}
	payload := appendFreezePayload(s.ctl[headerLen:headerLen], fi.Incident, fi.Tick, fi.WallNs, fi.Reason)
	appendHeader(s.ctl[:0], typeFreeze, len(payload), s.epoch, s.seq, now, 0)
	return s.ctl[:headerLen+len(payload)]
}

// Recv appends the record payloads received since the previous Recv.
func (s *session) Recv(dst [][]byte) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(dst, s.rq.drain()...)
}

// Mute simulates a line cut at this endpoint: while muted nothing is
// written to the socket — data holds in the bounded queue (oldest
// dropped), keepalive probes are suppressed — and everything received
// is discarded before liveness accounting, so both ends' dead-peer
// detection sees a genuinely dark line. Held data leaves at the next
// Send or Tick after the mute lifts. The chaos adapter drives this for
// scripted blackout windows.
func (s *session) Mute(on bool) {
	s.mu.Lock()
	s.muted = on
	s.mu.Unlock()
}

// SendFreeze queues a capture-correlation freeze toward the peer; it
// leaves at the next Tick that finds the line alive.
func (s *session) SendFreeze(info FreezeInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.fz.queue(info)
	}
}

// Freezes appends and returns the freezes received since the last call.
func (s *session) Freezes(dst []FreezeInfo) []FreezeInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fz.drain(dst)
}

// CorrelationLeader reports whether this end assigns shared incident
// IDs (epoch comparison; the listener wins ties).
func (s *session) CorrelationLeader() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return leader(s.epoch, s.peerEpoch, s.gotEpoch, s.listener)
}

// Latency returns the endpoint's latency summary.
func (s *session) Latency() Latency {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lm.latency()
}

// LatencyHist returns the live latency histograms (µs).
func (s *session) LatencyHist() (oneWay, jitter, rtt *telemetry.Histogram) {
	return s.lm.oneWay, s.lm.jitter, s.lm.rtt
}

// Stats returns a snapshot of the endpoint's counters.
func (s *session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.TxDropped += s.sq.dropped // write errors + queue overflow drops
	st.QueueDepth = len(s.sq.bufs)
	st.QueueHighWater = s.sq.highWater
	return st
}
