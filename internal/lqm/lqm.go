// Package lqm implements PPP Link Quality Monitoring (RFC 1333), which
// the paper cites as the LQR protocol carried over PPP protocol 0xC025.
// A Monitor periodically emits Link-Quality-Reports carrying snapshot
// counters; comparing the deltas in a peer's report against our own
// transmit counters measures loss in each direction, and a configurable
// hysteresis policy declares the link good or bad.
package lqm

import "encoding/binary"

// Proto is the PPP protocol number for Link-Quality-Report packets.
const Proto = 0xC025

// LQR is one Link-Quality-Report (RFC 1333 §2.2): all fields are
// 32-bit counters; "Last*" echo the values of the last LQR we sent,
// "Peer*" echo what the peer reported and measured.
type LQR struct {
	Magic uint32

	LastOutLQRs    uint32
	LastOutPackets uint32
	LastOutOctets  uint32

	PeerInLQRs     uint32
	PeerInPackets  uint32
	PeerInDiscards uint32
	PeerInErrors   uint32
	PeerInOctets   uint32

	PeerOutLQRs    uint32
	PeerOutPackets uint32
	PeerOutOctets  uint32
}

// Size is the LQR wire size in octets.
const Size = 12 * 4

// Marshal appends the big-endian wire encoding.
func (q *LQR) Marshal(dst []byte) []byte {
	for _, v := range [...]uint32{
		q.Magic,
		q.LastOutLQRs, q.LastOutPackets, q.LastOutOctets,
		q.PeerInLQRs, q.PeerInPackets, q.PeerInDiscards, q.PeerInErrors, q.PeerInOctets,
		q.PeerOutLQRs, q.PeerOutPackets, q.PeerOutOctets,
	} {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		dst = append(dst, b[:]...)
	}
	return dst
}

// Parse decodes an LQR; ok is false when the payload is short.
func Parse(b []byte) (LQR, bool) {
	if len(b) < Size {
		return LQR{}, false
	}
	u := func(i int) uint32 { return binary.BigEndian.Uint32(b[4*i:]) }
	return LQR{
		Magic:          u(0),
		LastOutLQRs:    u(1),
		LastOutPackets: u(2),
		LastOutOctets:  u(3),
		PeerInLQRs:     u(4),
		PeerInPackets:  u(5),
		PeerInDiscards: u(6),
		PeerInErrors:   u(7),
		PeerInOctets:   u(8),
		PeerOutLQRs:    u(9),
		PeerOutPackets: u(10),
		PeerOutOctets:  u(11),
	}, true
}

// Quality is the monitor's verdict.
type Quality int

// Verdicts.
const (
	Unknown Quality = iota
	Good
	Bad
)

func (q Quality) String() string {
	switch q {
	case Good:
		return "good"
	case Bad:
		return "bad"
	default:
		return "unknown"
	}
}

// emitRecord remembers when a report sequence number left us.
type emitRecord struct {
	seq uint32
	at  int64
}

const (
	// maxLossPct declares the link Bad when outbound loss over a
	// reporting window exceeds this percentage.
	maxLossPct = 20
	// goodWindows is the hysteresis: consecutive clean windows needed
	// to return to Good.
	goodWindows = 3
)

// Monitor measures one direction pair of a PPP link. The caller feeds
// traffic events (CountOut*/CountIn*) and received LQRs, and services
// the report timer through Advance; Send is invoked with each outgoing
// report.
type Monitor struct {
	// Magic is our LCP magic number, echoed in reports.
	Magic uint32
	// Period is the reporting interval in virtual time units
	// (default 10).
	Period int64
	// Send transmits an LQR toward the peer. Required.
	Send func(*LQR)

	// Live counters (ours).
	OutLQRs, OutPackets, OutOctets uint32
	InLQRs, InPackets, InOctets    uint32
	InDiscards, InErrors           uint32

	havePeer bool // a peer report has been processed
	prevPeer LQR
	prevIn   uint32 // our InPackets when the previous report arrived

	quality   Quality
	cleanRuns int
	next      int64
	now       int64

	// Round-trip sampling: every report we emit records its sequence
	// number and send time in a small ring; a peer report whose
	// LastOutLQRs echoes one of them closes the loop (RFC 1333 §2.3
	// echo semantics — the echo arrives one reporting period behind,
	// so the last emit alone is never the one matched).
	emits   [4]emitRecord
	echoed  uint32 // highest sequence already matched
	emitIdx int

	// Derived measurements from the last completed window.
	LastInboundLossPct float64
	LastPeerErrors     uint32
	// LastRTT is the most recent report round-trip (virtual time
	// units): our emit to the peer report echoing it. RTTSamples
	// counts completed measurements.
	LastRTT    int64
	RTTSamples uint64
}

func (m *Monitor) period() int64 {
	if m.Period <= 0 {
		return 10
	}
	return m.Period
}

// Quality returns the current verdict.
func (m *Monitor) Quality() Quality { return m.quality }

// CountOutPacket records one transmitted packet of n octets.
func (m *Monitor) CountOutPacket(n int) {
	m.OutPackets++
	m.OutOctets += uint32(n)
}

// CountInPacket records one good received packet of n octets.
func (m *Monitor) CountInPacket(n int) {
	m.InPackets++
	m.InOctets += uint32(n)
}

// CountInError records a damaged received frame.
func (m *Monitor) CountInError() { m.InErrors++ }

// Advance services the report timer.
func (m *Monitor) Advance(now int64) {
	if now > m.now {
		m.now = now
	}
	if m.next == 0 {
		m.next = m.now + m.period()
		return
	}
	if m.now >= m.next {
		m.emit()
		m.next = m.now + m.period()
	}
}

// emit builds and transmits a report. The Last* fields echo the
// counters from the peer's most recent report so it can align its
// measurement windows (RFC 1333 §2.3).
func (m *Monitor) emit() {
	m.OutLQRs++
	m.emits[m.emitIdx] = emitRecord{seq: m.OutLQRs, at: m.now}
	m.emitIdx = (m.emitIdx + 1) % len(m.emits)
	q := LQR{
		Magic:          m.Magic,
		LastOutLQRs:    m.prevPeer.PeerOutLQRs,
		LastOutPackets: m.prevPeer.PeerOutPackets,
		LastOutOctets:  m.prevPeer.PeerOutOctets,
		PeerInLQRs:     m.InLQRs,
		PeerInPackets:  m.InPackets,
		PeerInDiscards: m.InDiscards,
		PeerInErrors:   m.InErrors,
		PeerInOctets:   m.InOctets,
		PeerOutLQRs:    m.OutLQRs,
		PeerOutPackets: m.OutPackets,
		PeerOutOctets:  m.OutOctets,
	}
	if m.Send != nil {
		m.Send(&q)
	}
}

// Receive processes a peer report and updates the quality verdict for
// the inbound direction: over the window between two peer reports, the
// peer's transmit-counter delta (PeerOutPackets) is compared against
// our own receive-counter delta sampled at the two arrival instants —
// the difference is traffic lost on the line toward us.
func (m *Monitor) Receive(q *LQR) {
	m.InLQRs++
	if q.LastOutLQRs > m.echoed {
		for _, rec := range m.emits {
			if rec.seq != 0 && rec.seq == q.LastOutLQRs {
				m.LastRTT = m.now - rec.at
				m.RTTSamples++
				m.echoed = rec.seq
				break
			}
		}
	}
	in := m.InPackets
	if !m.havePeer {
		m.havePeer = true
		m.prevPeer = *q
		m.prevIn = in
		return
	}
	sentDelta := q.PeerOutPackets - m.prevPeer.PeerOutPackets
	recvDelta := in - m.prevIn
	m.LastPeerErrors = q.PeerInErrors - m.prevPeer.PeerInErrors
	m.prevPeer = *q
	m.prevIn = in

	if sentDelta == 0 {
		return // idle window: no evidence either way
	}
	lost := float64(0)
	if sentDelta > recvDelta {
		lost = 100 * float64(sentDelta-recvDelta) / float64(sentDelta)
	}
	m.LastInboundLossPct = lost
	if lost > maxLossPct {
		m.quality = Bad
		m.cleanRuns = 0
		return
	}
	m.cleanRuns++
	if m.quality == Unknown || m.cleanRuns >= goodWindows {
		m.quality = Good
	}
}
