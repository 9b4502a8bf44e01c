package lcp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hdlc"
)

func TestPacketRoundTrip(t *testing.T) {
	f := func(code, id byte, data []byte) bool {
		p := &Packet{Code: Code(code), ID: id, Data: data}
		b := p.Marshal(nil)
		q, err := ParsePacket(b)
		if err != nil {
			return false
		}
		if q.Code != p.Code || q.ID != p.ID || len(q.Data) != len(p.Data) {
			return false
		}
		for i := range q.Data {
			if q.Data[i] != p.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketParseErrors(t *testing.T) {
	if _, err := ParsePacket([]byte{1, 2, 0}); err != ErrPacketShort {
		t.Errorf("short: %v", err)
	}
	if _, err := ParsePacket([]byte{1, 2, 0, 99}); err != ErrPacketLength {
		t.Errorf("bad length: %v", err)
	}
	if _, err := ParsePacket([]byte{1, 2, 0, 3}); err != ErrPacketLength {
		t.Errorf("length<4: %v", err)
	}
	// Padding beyond length is legal and discarded.
	p, err := ParsePacket([]byte{1, 2, 0, 5, 0xAA, 0xBB, 0xCC})
	if err != nil || len(p.Data) != 1 || p.Data[0] != 0xAA {
		t.Errorf("padding: %v %v", p, err)
	}
}

func TestOptionsRoundTrip(t *testing.T) {
	opts := []Option{
		{Type: OptMRU, Data: []byte{0x05, 0xDC}},
		{Type: OptMagic, Data: []byte{1, 2, 3, 4}},
		{Type: OptPFC},
	}
	b := MarshalOptions(nil, opts)
	got, err := ParseOptions(b)
	if err != nil {
		t.Fatal(err)
	}
	if !optionsEqual(opts, got) {
		t.Errorf("got %+v", got)
	}
}

func TestOptionsParseErrors(t *testing.T) {
	if _, err := ParseOptions([]byte{1}); err != ErrOptionFormat {
		t.Errorf("truncated header: %v", err)
	}
	if _, err := ParseOptions([]byte{1, 1}); err != ErrOptionFormat {
		t.Errorf("length<2: %v", err)
	}
	if _, err := ParseOptions([]byte{1, 9, 0}); err != ErrOptionFormat {
		t.Errorf("overrun: %v", err)
	}
}

func TestCodeString(t *testing.T) {
	if ConfigureRequest.String() != "Configure-Request" {
		t.Error("code name")
	}
	if Code(99).String() != "Code(99)" {
		t.Error("unknown code name")
	}
}

// link wires two automatons back to back with in-order delivery and an
// optional per-packet drop filter.
type link struct {
	a, b   *Automaton
	aq, bq []*Packet // packets in flight toward a / toward b
	drop   func(from string, p *Packet) bool
}

func newLink(pa, pb Policy) *link {
	l := &link{}
	l.a = NewAutomaton(func(p *Packet) { l.bq = append(l.bq, clonePacket(p)) }, pa, Hooks{})
	l.b = NewAutomaton(func(p *Packet) { l.aq = append(l.aq, clonePacket(p)) }, pb, Hooks{})
	return l
}

func clonePacket(p *Packet) *Packet {
	return &Packet{Code: p.Code, ID: p.ID, Data: append([]byte(nil), p.Data...)}
}

// run delivers queued packets until quiescent or the step budget runs out.
func (l *link) run(t *testing.T, maxSteps int) {
	t.Helper()
	for step := 0; step < maxSteps; step++ {
		if len(l.aq) == 0 && len(l.bq) == 0 {
			return
		}
		if len(l.bq) > 0 {
			p := l.bq[0]
			l.bq = l.bq[1:]
			if l.drop == nil || !l.drop("a->b", p) {
				l.b.Receive(p)
			}
		}
		if len(l.aq) > 0 {
			p := l.aq[0]
			l.aq = l.aq[1:]
			if l.drop == nil || !l.drop("b->a", p) {
				l.a.Receive(p)
			}
		}
	}
	t.Fatalf("link did not quiesce: %d/%d in flight, states %v/%v",
		len(l.aq), len(l.bq), l.a.State(), l.b.State())
}

func TestHandshakeOpensBothSides(t *testing.T) {
	pa := NewLCPPolicy(0x11111111)
	pb := NewLCPPolicy(0x22222222)
	l := newLink(pa, pb)
	var aUp, bUp bool
	l.a.Hooks.Up = func() { aUp = true }
	l.b.Hooks.Up = func() { bUp = true }

	l.a.Open()
	l.b.Open()
	l.a.Up()
	l.b.Up()
	l.run(t, 100)

	if l.a.State() != Opened || l.b.State() != Opened {
		t.Fatalf("states = %v / %v", l.a.State(), l.b.State())
	}
	if !aUp || !bUp {
		t.Error("this-layer-up not signalled on both sides")
	}
	// SONET profile: both sides negotiated ACCM 0.
	if pa.Local.ACCM != hdlc.ACCMNone || pb.Local.ACCM != hdlc.ACCMNone {
		t.Errorf("ACCM = %#x / %#x, want 0", pa.Local.ACCM, pb.Local.ACCM)
	}
	if pa.Local.Magic != 0x11111111 || pa.Peer.Magic != 0x22222222 {
		t.Errorf("magic = %#x / %#x", pa.Local.Magic, pa.Peer.Magic)
	}
}

func TestHandshakePassiveSide(t *testing.T) {
	// b never calls Open but is up; a actively opens. b must follow to
	// AckSent/Opened via the Stopped-state RCR transitions... b without
	// Open stays Closed and answers Terminate-Ack, so a cannot open.
	// With b Open but a passive, the same holds symmetrically. A link
	// opens iff both sides administratively open — verify the negative.
	pa := NewLCPPolicy(1)
	pb := NewLCPPolicy(2)
	l := newLink(pa, pb)
	l.a.Open()
	l.a.Up()
	l.b.Up() // Closed, not opened
	l.run(t, 100)
	if l.a.State() == Opened || l.b.State() == Opened {
		t.Fatalf("half-opened link: %v / %v", l.a.State(), l.b.State())
	}
}

func TestHandshakeWithNakConvergence(t *testing.T) {
	pa := NewLCPPolicy(0xAAAAAAAA)
	pa.WantMRU = 64 // below MinMRU: b will nak up to 128
	pb := NewLCPPolicy(0xBBBBBBBB)
	l := newLink(pa, pb)
	l.a.Open()
	l.b.Open()
	l.a.Up()
	l.b.Up()
	l.run(t, 200)
	if l.a.State() != Opened || l.b.State() != Opened {
		t.Fatalf("states = %v / %v", l.a.State(), l.b.State())
	}
	if pa.Local.MRU != MinMRU {
		t.Errorf("negotiated MRU = %d, want %d", pa.Local.MRU, MinMRU)
	}
}

func TestHandshakeWithReject(t *testing.T) {
	pa := NewLCPPolicy(0xAAAAAAAA)
	pa.WantPFC = true // b does not allow PFC → Configure-Reject
	pb := NewLCPPolicy(0xBBBBBBBB)
	l := newLink(pa, pb)
	l.a.Open()
	l.b.Open()
	l.a.Up()
	l.b.Up()
	l.run(t, 200)
	if l.a.State() != Opened || l.b.State() != Opened {
		t.Fatalf("states = %v / %v", l.a.State(), l.b.State())
	}
	if pa.Local.PFC {
		t.Error("PFC must not be granted after reject")
	}
	if !pa.rejected[OptPFC] {
		t.Error("policy must remember the rejected option")
	}
}

func TestPFCGrantedWhenAllowed(t *testing.T) {
	pa := NewLCPPolicy(1)
	pa.WantPFC = true
	pa.WantACFC = true
	pb := NewLCPPolicy(2)
	pb.AllowPFC = true
	pb.AllowACFC = true
	l := newLink(pa, pb)
	l.a.Open()
	l.b.Open()
	l.a.Up()
	l.b.Up()
	l.run(t, 100)
	if !pa.Local.PFC || !pa.Local.ACFC {
		t.Errorf("PFC/ACFC not granted: %+v", pa.Local)
	}
	// b's transmit config must honour what a asked to receive.
	tx := pb.TxConfig()
	if !tx.PFC || !tx.ACFC {
		t.Errorf("b TxConfig = %+v", tx)
	}
	rx := pa.RxConfig()
	if !rx.PFC || !rx.ACFC {
		t.Errorf("a RxConfig = %+v", rx)
	}
}

func TestMagicLoopbackDetection(t *testing.T) {
	// Both sides use the same magic: the policy must nak and count a
	// suspected loopback, and the link must still converge because the
	// naked side adopts a new magic.
	pa := NewLCPPolicy(0x12345678)
	pb := NewLCPPolicy(0x12345678)
	ra := rand.New(rand.NewSource(11))
	rb := rand.New(rand.NewSource(22))
	pa.Rand = ra.Uint32
	pb.Rand = rb.Uint32
	l := newLink(pa, pb)
	l.a.Open()
	l.b.Open()
	l.a.Up()
	l.b.Up()
	l.run(t, 300)
	if l.a.State() != Opened || l.b.State() != Opened {
		t.Fatalf("states = %v / %v", l.a.State(), l.b.State())
	}
	if pa.LoopbackSuspected == 0 && pb.LoopbackSuspected == 0 {
		t.Error("no loopback suspicion recorded")
	}
	if pa.Local.Magic == pb.Local.Magic {
		t.Error("magics still identical after negotiation")
	}
}

func TestTerminate(t *testing.T) {
	pa := NewLCPPolicy(1)
	pb := NewLCPPolicy(2)
	l := newLink(pa, pb)
	var aDown, bDown bool
	l.a.Hooks.Down = func() { aDown = true }
	l.b.Hooks.Down = func() { bDown = true }
	l.a.Open()
	l.b.Open()
	l.a.Up()
	l.b.Up()
	l.run(t, 100)

	l.a.Close()
	l.run(t, 100)
	if l.a.State() != Closed {
		t.Errorf("a state = %v, want Closed", l.a.State())
	}
	if l.b.State() != Stopping && l.b.State() != Stopped {
		t.Errorf("b state = %v, want Stopping/Stopped", l.b.State())
	}
	if !aDown || !bDown {
		t.Error("this-layer-down not signalled")
	}
	// b's stopping side times out to Stopped.
	l.b.Advance(1000)
	l.b.Advance(2000)
	if l.b.State() != Stopped {
		t.Errorf("b after timeouts = %v, want Stopped", l.b.State())
	}
}

func TestTimeoutRetransmission(t *testing.T) {
	var sent []*Packet
	p := NewLCPPolicy(1)
	a := NewAutomaton(func(pkt *Packet) { sent = append(sent, clonePacket(pkt)) }, p, Hooks{})
	a.Open()
	a.Up()
	if len(sent) != 1 || sent[0].Code != ConfigureRequest {
		t.Fatalf("sent = %+v", sent)
	}
	// No reply: timer fires, Configure-Request retransmitted.
	a.Advance(DefaultRestartPeriod)
	if len(sent) != 2 || sent[1].Code != ConfigureRequest {
		t.Fatalf("after timeout sent = %d packets", len(sent))
	}
	if a.Timeouts != 1 {
		t.Errorf("Timeouts = %d", a.Timeouts)
	}
}

func TestTimeoutGivesUpAfterMaxConfigure(t *testing.T) {
	var finished bool
	p := NewLCPPolicy(1)
	a := NewAutomaton(func(*Packet) {}, p, Hooks{Finished: func() { finished = true }})
	a.MaxConfigure = 3
	a.Open()
	a.Up()
	now := int64(0)
	for i := 0; i < 10 && a.State() == ReqSent; i++ {
		now += DefaultRestartPeriod
		a.Advance(now)
	}
	if a.State() != Stopped {
		t.Fatalf("state = %v, want Stopped", a.State())
	}
	if !finished {
		t.Error("this-layer-finished not signalled")
	}
	if a.TxPackets != 3 {
		t.Errorf("TxPackets = %d, want 3 (MaxConfigure)", a.TxPackets)
	}
}

// TestRestartTimerEstimator pins the measured restart timer: the RFC
// default before any sample and its floor after, doubling per expiry
// until a reply is sampled, srtt + 4·rttvar from the samples, the
// backoff (not the estimate) reset by a new negotiation, and the cap.
func TestRestartTimerEstimator(t *testing.T) {
	a := NewAutomaton(func(*Packet) {}, NewLCPPolicy(1), Hooks{})
	armed := func() int64 { return a.deadline - a.now } // the running timer
	want := func(what string, period int64) {
		t.Helper()
		if got := armed(); got != period {
			t.Fatalf("%s: timer %d, want %d", what, got, period)
		}
	}
	expire := func() {
		a.Advance(a.deadline)
	}
	// nak answers the outstanding request after rtt ticks (less than
	// the running timer); RCN sends the next request at once.
	nak := func(rtt int64) {
		a.Advance(a.now + rtt)
		a.Receive(&Packet{Code: ConfigureNak, ID: a.id})
	}

	a.Open()
	a.Up()
	want("cold", DefaultRestartPeriod)
	for _, p := range []int64{6, 12, 24, 48} {
		expire()
		want("unanswered request", p)
	}
	// Replies with the right identifier that the automaton discards
	// (an Ack of other options, an unparsable Nak) are not samples and
	// leave the backoff running.
	a.Advance(a.now + 1)
	a.Receive(&Packet{Code: ConfigureAck, ID: a.id})
	a.Receive(&Packet{Code: ConfigureNak, ID: a.id, Data: []byte{1}})
	if a.RxBadPackets != 2 {
		t.Fatalf("RxBadPackets %d, want 2", a.RxBadPackets)
	}
	expire()
	want("after malformed replies", 96)
	nak(40) // first sample: srtt 40, rttvar 20
	want("after a 40-tick sample", 40+4*20)
	for _, p := range []int64{240, 480, 960, maxRestartPeriod, maxRestartPeriod} {
		expire()
		want("backoff from the estimate", p)
	}
	a.Down()
	a.Up() // a new negotiation: backoff gone, estimate kept
	want("new negotiation", 120)
	for _, p := range []int64{240, 480, 960, maxRestartPeriod} {
		expire()
		want("backoff after the new negotiation", p)
	}
	nak(1000) // srtt 160, rttvar 255: 1180 ticks
	want("after a 1000-tick sample", maxRestartPeriod)

	// A line faster than the RFC default: one-tick samples drive
	// rttvar to zero and srtt + 1 to 2 ticks, under the floor.
	a = NewAutomaton(func(*Packet) {}, NewLCPPolicy(1), Hooks{})
	a.Open()
	a.Up()
	for i := 0; i < 8; i++ {
		nak(1)
	}
	if a.srtt != 8 || a.rttvar != 0 {
		t.Fatalf("after one-tick samples: srtt %d/8, rttvar %d/8; want 8/8 and 0", a.srtt, a.rttvar)
	}
	want("floor", DefaultRestartPeriod)
}

func TestLossyLinkStillConverges(t *testing.T) {
	pa := NewLCPPolicy(1)
	pb := NewLCPPolicy(2)
	l := newLink(pa, pb)
	rng := rand.New(rand.NewSource(42))
	l.drop = func(string, *Packet) bool {
		return rng.Intn(3) == 0 // drop ~1/3 of packets
	}
	l.a.Open()
	l.b.Open()
	l.a.Up()
	l.b.Up()
	now := int64(0)
	for i := 0; i < 50 && (l.a.State() != Opened || l.b.State() != Opened); i++ {
		l.run(t, 100)
		now += DefaultRestartPeriod
		l.a.Advance(now)
		l.b.Advance(now)
	}
	l.run(t, 100)
	if l.a.State() != Opened || l.b.State() != Opened {
		t.Fatalf("states = %v / %v", l.a.State(), l.b.State())
	}
}

func TestEchoOnlyWhenOpened(t *testing.T) {
	var sent []*Packet
	p := NewLCPPolicy(1)
	a := NewAutomaton(func(pkt *Packet) { sent = append(sent, clonePacket(pkt)) }, p, Hooks{})
	a.Open()
	a.Up()
	sent = sent[:0]
	// Not opened: echo silently discarded.
	a.Receive(&Packet{Code: EchoRequest, ID: 9, Data: []byte{0, 0, 0, 0}})
	if len(sent) != 0 {
		t.Fatalf("echo answered while %v", a.State())
	}
	// Force open via handshake with a fake peer ack + request.
	a.Receive(&Packet{Code: ConfigureAck, ID: a.id, Data: MarshalOptions(nil, a.reqOpts)})
	a.Receive(&Packet{Code: ConfigureRequest, ID: 1})
	if a.State() != Opened {
		t.Fatalf("state = %v", a.State())
	}
	sent = sent[:0]
	a.Receive(&Packet{Code: EchoRequest, ID: 9, Data: []byte{1, 2, 3, 4}})
	if len(sent) != 1 || sent[0].Code != EchoReply || sent[0].ID != 9 {
		t.Fatalf("echo reply = %+v", sent)
	}
}

func TestUnknownCodeRejected(t *testing.T) {
	var sent []*Packet
	a := NewAutomaton(func(pkt *Packet) { sent = append(sent, clonePacket(pkt)) }, NewLCPPolicy(1), Hooks{})
	a.Open()
	a.Up()
	sent = sent[:0]
	a.Receive(&Packet{Code: Code(42), ID: 7, Data: []byte{1}})
	if len(sent) != 1 || sent[0].Code != CodeReject {
		t.Fatalf("sent = %+v", sent)
	}
	rej, err := ParsePacket(sent[0].Data)
	if err != nil || rej.Code != Code(42) || rej.ID != 7 {
		t.Fatalf("rejected copy = %+v, %v", rej, err)
	}
}

func TestCodeRejectOfNeededCodeIsFatal(t *testing.T) {
	a := NewAutomaton(func(*Packet) {}, NewLCPPolicy(1), Hooks{})
	a.Open()
	a.Up()
	bad := (&Packet{Code: ConfigureRequest, ID: 1}).Marshal(nil)
	a.Receive(&Packet{Code: CodeReject, ID: 1, Data: bad})
	if a.State() != Stopped {
		t.Fatalf("state = %v, want Stopped", a.State())
	}
}

func TestStaleAckIgnored(t *testing.T) {
	a := NewAutomaton(func(*Packet) {}, NewLCPPolicy(1), Hooks{})
	a.Open()
	a.Up()
	a.Receive(&Packet{Code: ConfigureAck, ID: a.id + 5})
	if a.State() != ReqSent {
		t.Errorf("state = %v, want Req-Sent", a.State())
	}
	if a.RxBadPackets != 1 {
		t.Errorf("RxBadPackets = %d", a.RxBadPackets)
	}
}

func TestAckWithWrongOptionsIgnored(t *testing.T) {
	a := NewAutomaton(func(*Packet) {}, NewLCPPolicy(1), Hooks{})
	a.Open()
	a.Up()
	a.Receive(&Packet{Code: ConfigureAck, ID: a.id, Data: MarshalOptions(nil, []Option{{Type: OptPFC}})})
	if a.State() != ReqSent {
		t.Errorf("state = %v, want Req-Sent", a.State())
	}
}

func TestDownAndRecovery(t *testing.T) {
	pa := NewLCPPolicy(1)
	pb := NewLCPPolicy(2)
	l := newLink(pa, pb)
	l.a.Open()
	l.b.Open()
	l.a.Up()
	l.b.Up()
	l.run(t, 100)
	if l.a.State() != Opened {
		t.Fatal("setup failed")
	}
	// Physical layer bounce.
	l.a.Down()
	l.b.Down()
	if l.a.State() != Starting || l.b.State() != Starting {
		t.Fatalf("after down: %v / %v", l.a.State(), l.b.State())
	}
	l.aq, l.bq = nil, nil
	l.a.Up()
	l.b.Up()
	l.run(t, 100)
	if l.a.State() != Opened || l.b.State() != Opened {
		t.Fatalf("after recovery: %v / %v", l.a.State(), l.b.State())
	}
}

func TestMaxFailureConvertsNakToReject(t *testing.T) {
	// A peer that insists on an MRU we keep naking must eventually see
	// a reject instead (convergence guarantee).
	p := NewLCPPolicy(1)
	var sent []*Packet
	a := NewAutomaton(func(pkt *Packet) { sent = append(sent, clonePacket(pkt)) }, p, Hooks{})
	a.MaxFailure = 2
	a.Open()
	a.Up()
	badReq := MarshalOptions(nil, []Option{u16opt(OptMRU, 1)}) // below MinMRU
	for i := byte(1); i <= 4; i++ {
		a.Receive(&Packet{Code: ConfigureRequest, ID: i, Data: badReq})
	}
	var naks, rejs int
	for _, pkt := range sent {
		switch pkt.Code {
		case ConfigureNak:
			naks++
		case ConfigureReject:
			rejs++
		}
	}
	if naks != 2 || rejs < 1 {
		t.Errorf("naks=%d rejs=%d, want 2 naks then rejects", naks, rejs)
	}
}

func TestStateString(t *testing.T) {
	if Opened.String() != "Opened" || State(99).String() != "State(99)" {
		t.Error("state names")
	}
}
