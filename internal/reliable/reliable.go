// Package reliable implements PPP Reliable Transmission (RFC 1663):
// numbered-mode operation of the HDLC control field with LAPB-style
// (ISO 7776) sliding-window acknowledgement and retransmission.
//
// The paper notes the P5 control field "may be configured via the LCP
// to use sequence numbers and acknowledgements for reliable data
// transmission. This is of particular use in noisy environments such
// as wireless networks." This package is that mode: modulo-8 send and
// receive sequence numbers, I/RR/RNR/REJ frames, go-back-N
// retransmission on reject or timeout, and SABM/UA link reset.
package reliable

import (
	"errors"

	"repro/internal/rtt"
)

// Control-field encodings (ISO 4335 / LAPB, modulo 8).
//
//	I frame : N(R) P N(S) 0            — numbered information
//	S frame : N(R) P/F SS 0 1          — RR / RNR / REJ supervision
//	U frame : M M M P/F M M 1 1        — SABM / UA / DISC / DM / FRMR
const (
	ctrlSMask = 0x0F
	ctrlRR    = 0x01
	ctrlRNR   = 0x05
	ctrlREJ   = 0x09

	ctrlUMask = 0xEF // mask out the P/F bit
	ctrlSABM  = 0x2F // set asynchronous balanced mode
	ctrlUA    = 0x63 // unnumbered acknowledgement
	ctrlDISC  = 0x43 // disconnect
	ctrlDM    = 0x0F // disconnected mode
)

// modulus is the sequence-number space (basic mode).
const modulus = 8

// window is the transmit window k (RFC 1663 suggests small windows;
// LAPB's k = 7 for modulo 8), and maxRetries is N2: T1 expiries past it
// reset the link.
const (
	window     = 7
	maxRetries = 10
)

// frameKind classifies a control octet.
type frameKind int

// Control-field classes.
const (
	kindI frameKind = iota
	kindRR
	kindRNR
	kindREJ
	kindU
)

// classify decodes a numbered-mode control octet.
func classify(ctrl byte) frameKind {
	if ctrl&0x01 == 0 {
		return kindI
	}
	if ctrl&0x03 == 0x01 {
		switch ctrl & ctrlSMask {
		case ctrlRR:
			return kindRR
		case ctrlRNR:
			return kindRNR
		case ctrlREJ:
			return kindREJ
		}
	}
	return kindU
}

// sendSeq extracts the send sequence number of an I frame.
func sendSeq(ctrl byte) uint8 { return ctrl >> 1 & 0x07 }

// recvSeq extracts the receive sequence number of an I or S frame.
func recvSeq(ctrl byte) uint8 { return ctrl >> 5 & 0x07 }

// iCtrl builds an I-frame control octet.
func iCtrl(ns, nr uint8) byte { return ns&7<<1 | nr&7<<5 }

// sCtrl builds an S-frame control octet.
func sCtrl(base byte, nr uint8) byte { return base | nr&7<<5 }

// errNotConnected is returned by Send before SABM/UA completes.
var errNotConnected = errors.New("reliable: link not in ABM")

// Frame is one numbered-mode frame on the wire: the control octet and
// (for I frames) the information field.
type Frame struct {
	Ctrl    byte
	Payload []byte
}

// Station is one end of a numbered-mode link. It is transport-agnostic:
// Out receives frames to put on the wire, Deliver receives in-sequence
// information fields. Drive timeouts with Advance using any monotonic
// virtual clock.
type Station struct {
	// Out transmits a frame toward the peer. Required.
	Out func(Frame)
	// Deliver hands a received information field up the stack. Required
	// for data reception.
	Deliver func([]byte)
	// Release, when non-nil, is called with each Send payload once the
	// station no longer references it — acknowledged, or dropped by a
	// link reset. Callers recycling transmit buffers hook this to
	// reclaim them; the station never touches a buffer after Release.
	Release func([]byte)
	// Line is the round-trip estimate T1 reads and feeds; nil gives the
	// station one of its own.
	Line *rtt.Estimate

	connected bool
	initiator bool

	vs, vr, va uint8 // V(S), V(R), V(A), modulo 8

	sent    []Frame // unacknowledged I frames, oldest first
	pending [][]byte

	rejSent bool // a REJ is outstanding (suppress duplicates)

	now, t1 int64
	retries int
	backoff uint // T1 expiries since the last sample or reset

	// T1 times one first transmission (the SABM, or I frame timedNS).
	timing  bool
	timedNS uint8
	sentAt  int64

	// Counters.
	TxI, RxI, RxREJ, Retransmits uint64
}

// Connected reports whether the link is in asynchronous balanced mode.
func (s *Station) Connected() bool { return s.connected }

// Connect initiates link setup (SABM). The peer answers UA.
func (s *Station) Connect() {
	s.initiator = true
	s.reset()
	s.Out(Frame{Ctrl: ctrlSABM})
	s.timing, s.sentAt = true, s.now
	s.armT1()
}

// Disconnect tears the link down.
func (s *Station) Disconnect() {
	if s.connected {
		s.Out(Frame{Ctrl: ctrlDISC})
	}
	s.connected = false
	s.stopT1()
}

func (s *Station) reset() {
	s.vs, s.vr, s.va = 0, 0, 0
	if s.Release != nil {
		for _, f := range s.sent {
			if f.Payload != nil {
				s.Release(f.Payload)
			}
		}
		for _, p := range s.pending {
			s.Release(p)
		}
		s.pending = nil
	}
	s.sent = nil
	s.rejSent = false
	s.retries, s.backoff, s.timing = 0, 0, false
}

// Send queues an information field for numbered transmission. Payloads
// beyond the window are buffered and flushed as acknowledgements open
// the window.
func (s *Station) Send(payload []byte) error {
	if !s.connected {
		return errNotConnected
	}
	s.pending = append(s.pending, payload)
	s.pump()
	return nil
}

// pump transmits pending payloads while window space exists.
func (s *Station) pump() {
	for len(s.pending) > 0 && len(s.sent) < window {
		p := s.pending[0]
		s.pending = s.pending[1:]
		f := Frame{Ctrl: iCtrl(s.vs, s.vr), Payload: p}
		s.vs = (s.vs + 1) % modulus
		s.sent = append(s.sent, f)
		s.TxI++
		s.Out(f)
		if !s.timing {
			s.timing, s.timedNS, s.sentAt = true, sendSeq(f.Ctrl), s.now
		}
		s.armT1()
	}
}

func (s *Station) armT1() {
	if s.Line == nil {
		s.Line = new(rtt.Estimate)
	}
	s.t1 = s.now + s.Line.Period(s.backoff)
}

func (s *Station) stopT1() { s.t1 = 0 }

// sample ends the timing of frame ns, if it runs (stamped beside an
// armT1, so Line is set).
func (s *Station) sample(ns uint8) {
	if s.timing && ns == s.timedNS {
		s.timing = false
		if s.Line.Sample(s.sentAt, s.now) {
			s.backoff = 0
		}
	}
}

// Advance moves the virtual clock, firing the retransmission timer.
func (s *Station) Advance(now int64) {
	if now > s.now {
		s.now = now
	}
	if s.t1 == 0 || s.now < s.t1 {
		return
	}
	if s.connected && len(s.sent) == 0 || !s.connected && !s.initiator {
		s.stopT1() // nothing to resend
		return
	}
	s.retries++
	s.backoff++
	switch {
	case !s.connected && s.retries > maxRetries:
		s.stopT1() // SABM unanswered: give up
	case !s.connected:
		s.Out(Frame{Ctrl: ctrlSABM})
		s.timing = false
		s.armT1()
	case s.retries > maxRetries:
		// N2 exhausted: reset the link (RFC 1663 §2 / LAPB).
		s.connected = false
		s.reset()
		if s.initiator {
			s.Connect()
		}
	default:
		// Go-back-N: retransmit everything outstanding with updated N(R).
		s.retransmit()
		s.armT1()
	}
}

func (s *Station) retransmit() {
	s.timing = false // Karn: N(S) repeats, so a resent frame is no sample
	for i := range s.sent {
		s.sent[i].Ctrl = iCtrl(sendSeq(s.sent[i].Ctrl), s.vr)
		s.Retransmits++
		s.Out(s.sent[i])
	}
}

// Receive processes one frame from the peer.
func (s *Station) Receive(f Frame) {
	switch classify(f.Ctrl) {
	case kindU:
		s.receiveU(f)
	case kindI:
		s.receiveI(f)
	case kindRR, kindREJ, kindRNR:
		s.ack(recvSeq(f.Ctrl))
		if classify(f.Ctrl) == kindREJ {
			s.RxREJ++
			s.retransmit()
			s.armT1()
		}
	}
}

func (s *Station) receiveU(f Frame) {
	switch f.Ctrl & ctrlUMask {
	case ctrlSABM & ctrlUMask:
		s.reset()
		s.connected = true
		s.Out(Frame{Ctrl: ctrlUA})
		s.stopT1()
	case ctrlUA & ctrlUMask:
		if !s.connected {
			s.sample(s.timedNS) // the SABM's
			s.reset()
			s.connected = true
			s.stopT1()
			s.pump()
		}
	case ctrlDISC & ctrlUMask:
		s.connected = false
		s.reset()
		s.stopT1()
		s.Out(Frame{Ctrl: ctrlDM})
	}
}

func (s *Station) receiveI(f Frame) {
	if !s.connected {
		s.Out(Frame{Ctrl: ctrlDM})
		return
	}
	s.ack(recvSeq(f.Ctrl))
	ns := sendSeq(f.Ctrl)
	if ns != s.vr {
		// Out of sequence: discard and (once) ask for a go-back.
		if !s.rejSent {
			s.rejSent = true
			s.Out(Frame{Ctrl: sCtrl(ctrlREJ, s.vr)})
		}
		return
	}
	s.rejSent = false
	s.vr = (s.vr + 1) % modulus
	s.RxI++
	if s.Deliver != nil {
		s.Deliver(f.Payload)
	}
	// Acknowledge. Piggybacking happens naturally when pump() runs; if
	// nothing is pending, send an explicit RR.
	if len(s.pending) > 0 && len(s.sent) < window {
		s.pump()
	} else {
		s.Out(Frame{Ctrl: sCtrl(ctrlRR, s.vr)})
	}
}

// ack processes an incoming N(R): everything below it is confirmed.
func (s *Station) ack(nr uint8) {
	for len(s.sent) > 0 {
		first := sendSeq(s.sent[0].Ctrl)
		// first is acknowledged iff it lies in [va, nr) modulo 8.
		if !seqInRange(s.va, first, nr) {
			break
		}
		s.sample(first)
		if s.Release != nil && s.sent[0].Payload != nil {
			s.Release(s.sent[0].Payload)
		}
		s.sent = s.sent[1:]
		s.va = (first + 1) % modulus
		s.retries = 0
	}
	if len(s.sent) == 0 {
		s.stopT1()
	} else {
		s.armT1()
	}
	s.pump()
}

// seqInRange reports whether x lies in the half-open window [lo, hi)
// modulo 8.
func seqInRange(lo, x, hi uint8) bool {
	return (x-lo)%modulus < (hi-lo)%modulus
}
