package lcp

import (
	"testing"
)

// These tests walk the corners of the RFC 1661 §4.1 state table that the
// end-to-end handshake tests never visit: crossed events, packets in
// terminating states, administrative events out of order.

// harness builds an automaton capturing its transmissions.
type harness struct {
	a        *Automaton
	sent     []*Packet
	up, down int
}

func newHarness() *harness {
	h := &harness{}
	h.a = NewAutomaton(func(p *Packet) {
		h.sent = append(h.sent, clonePacket(p))
	}, NewLCPPolicy(7), Hooks{
		Up:   func() { h.up++ },
		Down: func() { h.down++ },
	})
	return h
}

// toStopped clocks an automaton whose Configure-Requests go unanswered
// until it gives up into Stopped: Max-Configure expiries of its
// backed-off restart timer.
func toStopped(t *testing.T, a *Automaton) {
	t.Helper()
	for end := a.now + 1<<16; a.State() != Stopped; {
		if a.now >= end {
			t.Fatalf("still %v after %d ticks", a.State(), 1<<16)
		}
		a.Advance(a.now + 1)
	}
}

// lastCode returns the most recent transmitted code (0 if none).
func (h *harness) lastCode() Code {
	if len(h.sent) == 0 {
		return 0
	}
	return h.sent[len(h.sent)-1].Code
}

// toOpened drives the automaton to Opened against a scripted peer.
func (h *harness) toOpened(t *testing.T) {
	t.Helper()
	h.a.Open()
	h.a.Up()
	h.a.Receive(&Packet{Code: ConfigureAck, ID: h.a.id, Data: MarshalOptions(nil, h.a.reqOpts)})
	h.a.Receive(&Packet{Code: ConfigureRequest, ID: 1})
	if h.a.State() != Opened {
		t.Fatalf("setup: state = %v", h.a.State())
	}
}

func TestUpInInitialGoesClosed(t *testing.T) {
	h := newHarness()
	h.a.Up()
	if h.a.State() != closed {
		t.Errorf("state = %v", h.a.State())
	}
	// Up again: no transition.
	h.a.Up()
	if h.a.State() != closed {
		t.Errorf("second Up: %v", h.a.State())
	}
}

func TestOpenInInitialSignalsStart(t *testing.T) {
	h := newHarness()
	h.a.Open()
	if h.a.State() != Starting {
		t.Errorf("state=%v", h.a.State())
	}
	// Close from Starting: back to Initial.
	h.a.Close()
	if h.a.State() != initial {
		t.Errorf("state=%v", h.a.State())
	}
}

func TestDownFromEveryBusyState(t *testing.T) {
	// Down in Req-Sent/Ack-Rcvd/Ack-Sent → Starting.
	for _, prep := range []func(h *harness){
		func(h *harness) { // Req-Sent
			h.a.Open()
			h.a.Up()
		},
		func(h *harness) { // Ack-Rcvd
			h.a.Open()
			h.a.Up()
			h.a.Receive(&Packet{Code: ConfigureAck, ID: h.a.id, Data: MarshalOptions(nil, h.a.reqOpts)})
		},
		func(h *harness) { // Ack-Sent
			h.a.Open()
			h.a.Up()
			h.a.Receive(&Packet{Code: ConfigureRequest, ID: 1})
		},
	} {
		h := newHarness()
		prep(h)
		h.a.Down()
		if h.a.State() != Starting {
			t.Errorf("Down → %v, want Starting", h.a.State())
		}
	}
	// Down in Opened signals this-layer-down.
	h := newHarness()
	h.toOpened(t)
	h.a.Down()
	if h.a.State() != Starting || h.down != 1 {
		t.Errorf("state=%v down=%d", h.a.State(), h.down)
	}
	// Down in Closed → Initial.
	h2 := newHarness()
	h2.a.Up()
	h2.a.Down()
	if h2.a.State() != initial {
		t.Errorf("Closed+Down → %v", h2.a.State())
	}
	// Down in Stopped → Starting.
	h3 := newHarness()
	h3.a.Open()
	h3.a.Up()
	toStopped(t, h3.a) // TO-
	h3.a.Down()
	if h3.a.State() != Starting {
		t.Errorf("Stopped+Down → %v", h3.a.State())
	}
}

func TestCloseAndReopenWhileClosing(t *testing.T) {
	h := newHarness()
	h.toOpened(t)
	h.a.Close()
	if h.a.State() != closing || h.lastCode() != terminateRequest {
		t.Fatalf("state=%v last=%v", h.a.State(), h.lastCode())
	}
	// Open during Closing → Stopping (restart after termination).
	h.a.Open()
	if h.a.State() != stopping {
		t.Errorf("state = %v, want Stopping", h.a.State())
	}
	// Close during Stopping → back to Closing.
	h.a.Close()
	if h.a.State() != closing {
		t.Errorf("state = %v, want Closing", h.a.State())
	}
	// Terminate-Ack in Closing → Closed.
	h.a.Receive(&Packet{Code: terminateAck, ID: h.a.id})
	if h.a.State() != closed {
		t.Errorf("state=%v", h.a.State())
	}
	// Open from Closed restarts negotiation.
	h.a.Open()
	if h.a.State() != reqSent {
		t.Errorf("reopen: %v", h.a.State())
	}
}

func TestTimeoutInClosingGivesUpToClosed(t *testing.T) {
	h := newHarness()
	h.toOpened(t)
	h.a.Close()
	now := int64(0)
	for i := 0; i < 5 && h.a.State() == closing; i++ {
		now += DefaultRestartPeriod
		h.a.Advance(now)
	}
	if h.a.State() != closed {
		t.Errorf("state=%v", h.a.State())
	}
	// Exactly 1 str + Max-Terminate-1 retries: count Terminate-Requests.
	trs := 0
	for _, p := range h.sent {
		if p.Code == terminateRequest {
			trs++
		}
	}
	if trs != maxTerminate {
		t.Errorf("terminate requests = %d, want Max-Terminate (%d)", trs, maxTerminate)
	}
}

func TestPacketsInClosingAreIgnoredOrAcked(t *testing.T) {
	h := newHarness()
	h.toOpened(t)
	h.a.Close()
	n := len(h.sent)
	// Configure-Request while terminating: no reply, no transition.
	h.a.Receive(&Packet{Code: ConfigureRequest, ID: 9})
	if h.a.State() != closing || len(h.sent) != n {
		t.Errorf("RCR in Closing: state=%v sent=%d", h.a.State(), len(h.sent)-n)
	}
	// Configure-Ack likewise.
	h.a.Receive(&Packet{Code: ConfigureAck, ID: h.a.id})
	if h.a.State() != closing {
		t.Errorf("RCA in Closing: %v", h.a.State())
	}
	// Terminate-Request gets acked without leaving Closing.
	h.a.Receive(&Packet{Code: terminateRequest, ID: 3})
	if h.a.State() != closing || h.lastCode() != terminateAck {
		t.Errorf("RTR in Closing: state=%v last=%v", h.a.State(), h.lastCode())
	}
}

func TestRCAInClosedSendsTerminateAck(t *testing.T) {
	h := newHarness()
	h.a.Up() // Closed
	h.a.Receive(&Packet{Code: ConfigureAck, ID: 0})
	if h.lastCode() != terminateAck {
		t.Errorf("last = %v, want Terminate-Ack", h.lastCode())
	}
	h.a.Receive(&Packet{Code: configureNak, ID: 0})
	if h.lastCode() != terminateAck {
		t.Errorf("RCN in Closed: %v", h.lastCode())
	}
	h.a.Receive(&Packet{Code: ConfigureRequest, ID: 0})
	if h.lastCode() != terminateAck {
		t.Errorf("RCR in Closed: %v", h.lastCode())
	}
}

func TestCrossedAcksRestartExchange(t *testing.T) {
	// RCA in Ack-Rcvd (a second ack) indicates crossed connections:
	// re-send Configure-Request and fall back to Req-Sent.
	h := newHarness()
	h.a.Open()
	h.a.Up()
	ackNow := func() *Packet {
		return &Packet{Code: ConfigureAck, ID: h.a.id, Data: MarshalOptions(nil, h.a.reqOpts)}
	}
	h.a.Receive(ackNow()) // → Ack-Rcvd
	if h.a.State() != ackRcvd {
		t.Fatalf("state = %v", h.a.State())
	}
	h.a.Receive(ackNow())
	if h.a.State() != reqSent || h.lastCode() != ConfigureRequest {
		t.Errorf("crossed ack: state=%v last=%v", h.a.State(), h.lastCode())
	}
}

func TestNakInAckRcvdFallsBack(t *testing.T) {
	h := newHarness()
	h.a.Open()
	h.a.Up()
	h.a.Receive(&Packet{Code: ConfigureAck, ID: h.a.id, Data: MarshalOptions(nil, h.a.reqOpts)})
	if h.a.State() != ackRcvd {
		t.Fatalf("state = %v", h.a.State())
	}
	h.a.Receive(&Packet{Code: configureNak, ID: h.a.id})
	if h.a.State() != reqSent {
		t.Errorf("state = %v, want Req-Sent", h.a.State())
	}
}

func TestRCRMinusInOpenedRenegotiates(t *testing.T) {
	// An unacceptable Configure-Request on an open link: tld, scr, scn.
	h := newHarness()
	h.toOpened(t)
	bad := MarshalOptions(nil, []Option{u16opt(optMRU, 1)}) // below minMRU
	h.a.Receive(&Packet{Code: ConfigureRequest, ID: 7, Data: bad})
	if h.a.State() != reqSent {
		t.Errorf("state = %v, want Req-Sent", h.a.State())
	}
	if h.down != 1 {
		t.Errorf("down = %d", h.down)
	}
	var sawReq, sawNak bool
	for _, p := range h.sent {
		switch p.Code {
		case ConfigureRequest:
			sawReq = true
		case configureNak:
			sawNak = true
		}
	}
	if !sawReq || !sawNak {
		t.Error("renegotiation packets missing")
	}
}

func TestRCAInOpenedRestarts(t *testing.T) {
	h := newHarness()
	h.toOpened(t)
	h.a.Receive(&Packet{Code: ConfigureAck, ID: h.a.id, Data: MarshalOptions(nil, h.a.reqOpts)})
	if h.a.State() != reqSent || h.down != 1 {
		t.Errorf("state=%v down=%d", h.a.State(), h.down)
	}
}

func TestRCNInOpenedRestarts(t *testing.T) {
	h := newHarness()
	h.toOpened(t)
	h.a.Receive(&Packet{Code: ConfigureReject, ID: h.a.id, Data: MarshalOptions(nil, []Option{{Type: optMagic, Data: []byte{0, 0, 0, 7}}})})
	if h.a.State() != reqSent || h.down != 1 {
		t.Errorf("state=%v down=%d", h.a.State(), h.down)
	}
}

func TestRTAInOpenedRestarts(t *testing.T) {
	// An unsolicited Terminate-Ack on an open link signals the peer
	// lost state: tld + scr.
	h := newHarness()
	h.toOpened(t)
	h.a.Receive(&Packet{Code: terminateAck, ID: 99})
	if h.a.State() != reqSent || h.down != 1 {
		t.Errorf("state=%v down=%d", h.a.State(), h.down)
	}
}

func TestRTAInAckRcvdFallsBack(t *testing.T) {
	h := newHarness()
	h.a.Open()
	h.a.Up()
	h.a.Receive(&Packet{Code: ConfigureAck, ID: h.a.id, Data: MarshalOptions(nil, h.a.reqOpts)})
	h.a.Receive(&Packet{Code: terminateAck, ID: 1})
	if h.a.State() != reqSent {
		t.Errorf("state = %v", h.a.State())
	}
}

func TestRXJMinusInOpenedRestartsTermination(t *testing.T) {
	h := newHarness()
	h.toOpened(t)
	bad := (&Packet{Code: terminateRequest, ID: 1}).Marshal(nil)
	h.a.Receive(&Packet{Code: codeReject, ID: 1, Data: bad})
	if h.a.State() != stopping || h.down != 1 {
		t.Errorf("state=%v down=%d", h.a.State(), h.down)
	}
	if h.lastCode() != terminateRequest {
		t.Errorf("last = %v", h.lastCode())
	}
}

func TestRXJMinusInClosingFinishes(t *testing.T) {
	h := newHarness()
	h.toOpened(t)
	h.a.Close()
	bad := (&Packet{Code: ConfigureRequest, ID: 1}).Marshal(nil)
	h.a.Receive(&Packet{Code: codeReject, ID: 1, Data: bad})
	if h.a.State() != closed {
		t.Errorf("state=%v", h.a.State())
	}
}

func TestCodeRejectOfExtensionCodeIgnored(t *testing.T) {
	// Rejecting an Echo-Request (an extension code) is RXJ+: no
	// transition.
	h := newHarness()
	h.toOpened(t)
	bad := (&Packet{Code: EchoRequest, ID: 1}).Marshal(nil)
	h.a.Receive(&Packet{Code: codeReject, ID: 1, Data: bad})
	if h.a.State() != Opened {
		t.Errorf("state = %v, want Opened", h.a.State())
	}
}

func TestProtocolRejectIsRXJPlus(t *testing.T) {
	h := newHarness()
	h.toOpened(t)
	h.a.Receive(&Packet{Code: protocolReject, ID: 1, Data: []byte{0x80, 0x21}})
	if h.a.State() != Opened {
		t.Errorf("state = %v", h.a.State())
	}
}

func TestDiscardRequestNoReply(t *testing.T) {
	h := newHarness()
	h.toOpened(t)
	n := len(h.sent)
	h.a.Receive(&Packet{Code: discardRequest, ID: 1})
	if len(h.sent) != n || h.a.State() != Opened {
		t.Error("discard-request must be silently discarded")
	}
}

func TestTerminateRequestInAckSentFallsBack(t *testing.T) {
	h := newHarness()
	h.a.Open()
	h.a.Up()
	h.a.Receive(&Packet{Code: ConfigureRequest, ID: 1}) // → Ack-Sent
	if h.a.State() != ackSent {
		t.Fatalf("state = %v", h.a.State())
	}
	h.a.Receive(&Packet{Code: terminateRequest, ID: 5})
	if h.a.State() != reqSent || h.lastCode() != terminateAck {
		t.Errorf("state=%v last=%v", h.a.State(), h.lastCode())
	}
}

func TestStoppedStateAnswersRequests(t *testing.T) {
	h := newHarness()
	h.a.Open()
	h.a.Up()
	toStopped(t, h.a)
	// RCR+ in Stopped: irc, scr, sca → Ack-Sent.
	h.a.Receive(&Packet{Code: ConfigureRequest, ID: 2})
	if h.a.State() != ackSent {
		t.Errorf("state = %v, want Ack-Sent", h.a.State())
	}
	// And a bad request from Stopped.
	h2 := newHarness()
	h2.a.Open()
	h2.a.Up()
	toStopped(t, h2.a)
	bad := MarshalOptions(nil, []Option{u16opt(optMRU, 1)})
	h2.a.Receive(&Packet{Code: ConfigureRequest, ID: 2, Data: bad})
	if h2.a.State() != reqSent {
		t.Errorf("RCR- in Stopped: %v", h2.a.State())
	}
}

func TestTimeoutInStoppingGivesUpToStopped(t *testing.T) {
	h := newHarness()
	h.toOpened(t)
	// Peer terminates; we land in Stopping with zero restart count.
	h.a.Receive(&Packet{Code: terminateRequest, ID: 3})
	if h.a.State() != stopping {
		t.Fatalf("state = %v", h.a.State())
	}
	now := int64(0)
	for i := 0; i < 5 && h.a.State() == stopping; i++ {
		now += DefaultRestartPeriod
		h.a.Advance(now)
	}
	if h.a.State() != Stopped {
		t.Errorf("state=%v", h.a.State())
	}
}

func TestOptionsEqualMismatchShapes(t *testing.T) {
	a := []Option{{Type: 1, Data: []byte{1, 2}}}
	if optionsEqual(a, []Option{{Type: 2, Data: []byte{1, 2}}}) {
		t.Error("type mismatch accepted")
	}
	if optionsEqual(a, []Option{{Type: 1, Data: []byte{1}}}) {
		t.Error("length mismatch accepted")
	}
	if optionsEqual(a, []Option{{Type: 1, Data: []byte{1, 3}}}) {
		t.Error("data mismatch accepted")
	}
	if !optionsEqual(nil, nil) {
		t.Error("empty lists must match")
	}
}

func TestAuthOptionCodec(t *testing.T) {
	pap := authOption(0xC023)
	if p, ok := parseAuthOption(pap); !ok || p != 0xC023 {
		t.Error("PAP option codec")
	}
	chap := authOption(0xC223)
	if len(chap.Data) != 3 || chap.Data[2] != 5 {
		t.Errorf("CHAP option data = % x", chap.Data)
	}
	if p, ok := parseAuthOption(chap); !ok || p != 0xC223 {
		t.Error("CHAP option codec")
	}
	if _, ok := parseAuthOption(Option{Type: optAuthProto, Data: []byte{0xC2}}); ok {
		t.Error("short option accepted")
	}
	if _, ok := parseAuthOption(Option{Type: optAuthProto, Data: []byte{0xC2, 0x23, 9}}); ok {
		t.Error("unknown CHAP algorithm accepted")
	}
	if _, ok := parseAuthOption(Option{Type: optAuthProto, Data: []byte{0x12, 0x34}}); ok {
		t.Error("unknown protocol accepted")
	}
}

func TestCheckRequestMalformedOptions(t *testing.T) {
	p := NewLCPPolicy(1)
	naks, rejs := p.CheckRequest([]Option{
		{Type: optMRU, Data: []byte{1}},         // short MRU
		{Type: optACCM, Data: []byte{1, 2}},     // short ACCM
		{Type: optMagic, Data: []byte{1}},       // short magic
		{Type: OptQualityProt, Data: []byte{1}}, // unimplemented
	})
	if len(naks) != 0 || len(rejs) != 4 {
		t.Errorf("naks=%d rejs=%d", len(naks), len(rejs))
	}
}

func TestHandleNakAdoptsValues(t *testing.T) {
	p := NewLCPPolicy(1)
	p.WantMRU = 64
	p.WantPFC = true
	p.WantACFC = true
	p.RequireAuth = 0xC023
	p.CanAuth = map[uint16]bool{0xC223: true}
	p.HandleNak([]Option{
		u16opt(optMRU, 1400),
		u32opt(optACCM, 0x000A0000),
		{Type: OptPFC},
		{Type: OptACFC},
		authOption(0xC223),
	})
	if p.WantMRU != 1400 {
		t.Errorf("MRU = %d", p.WantMRU)
	}
	if p.WantACCM&0x000A0000 == 0 {
		t.Error("ACCM union not applied")
	}
	if p.WantPFC || p.WantACFC {
		t.Error("compression naks must clear the requests")
	}
	if p.RequireAuth != 0xC223 {
		t.Errorf("auth counter-proposal not adopted: %#x", p.RequireAuth)
	}
}
