package ipcp

import (
	"testing"

	"repro/internal/lcp"
)

type pipe struct {
	a, b   *lcp.Automaton
	aq, bq []*lcp.Packet
}

func newPipe(pa, pb lcp.Policy) *pipe {
	l := &pipe{}
	cp := func(p *lcp.Packet) *lcp.Packet {
		return &lcp.Packet{Code: p.Code, ID: p.ID, Data: append([]byte(nil), p.Data...)}
	}
	l.a = lcp.NewAutomaton(func(p *lcp.Packet) { l.bq = append(l.bq, cp(p)) }, pa, lcp.Hooks{})
	l.b = lcp.NewAutomaton(func(p *lcp.Packet) { l.aq = append(l.aq, cp(p)) }, pb, lcp.Hooks{})
	return l
}

func (l *pipe) run(t *testing.T) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if len(l.aq) == 0 && len(l.bq) == 0 {
			return
		}
		if len(l.bq) > 0 {
			p := l.bq[0]
			l.bq = l.bq[1:]
			l.b.Receive(p)
		}
		if len(l.aq) > 0 {
			p := l.aq[0]
			l.aq = l.aq[1:]
			l.a.Receive(p)
		}
	}
	t.Fatal("pipe did not quiesce")
}

func open(t *testing.T, l *pipe) {
	t.Helper()
	l.a.Open()
	l.b.Open()
	l.a.Up()
	l.b.Up()
	l.run(t)
}

func TestAddrString(t *testing.T) {
	if got := (Addr{192, 168, 1, 7}).String(); got != "192.168.1.7" {
		t.Errorf("String = %q", got)
	}
	if got := (Addr{}).String(); got != "0.0.0.0" {
		t.Errorf("zero String = %q", got)
	}
	if got := (Addr{10, 0, 200, 255}).String(); got != "10.0.200.255" {
		t.Errorf("String = %q", got)
	}
}

func TestStaticAddressesNegotiate(t *testing.T) {
	pa := NewPolicy(Addr{10, 0, 0, 1})
	pb := NewPolicy(Addr{10, 0, 0, 2})
	l := newPipe(pa, pb)
	open(t, l)
	if l.a.State() != lcp.Opened || l.b.State() != lcp.Opened {
		t.Fatalf("states %v/%v", l.a.State(), l.b.State())
	}
	if pa.LocalAddr != (Addr{10, 0, 0, 1}) || pa.PeerAddr != (Addr{10, 0, 0, 2}) {
		t.Errorf("a: local=%v peer=%v", pa.LocalAddr, pa.PeerAddr)
	}
	if pb.LocalAddr != (Addr{10, 0, 0, 2}) || pb.PeerAddr != (Addr{10, 0, 0, 1}) {
		t.Errorf("b: local=%v peer=%v", pb.LocalAddr, pb.PeerAddr)
	}
}

func TestDynamicAssignmentViaNak(t *testing.T) {
	pa := NewPolicy(Addr{}) // ask for assignment
	pb := NewPolicy(Addr{10, 0, 0, 2})
	pb.AssignPeer = Addr{10, 0, 0, 99}
	l := newPipe(pa, pb)
	open(t, l)
	if l.a.State() != lcp.Opened {
		t.Fatalf("a state %v", l.a.State())
	}
	if pa.LocalAddr != (Addr{10, 0, 0, 99}) {
		t.Errorf("assigned addr = %v, want 10.0.0.99", pa.LocalAddr)
	}
	if pb.PeerAddr != (Addr{10, 0, 0, 99}) {
		t.Errorf("b sees peer = %v", pb.PeerAddr)
	}
}

func TestZeroAddrWithNoAssignmentRejected(t *testing.T) {
	pa := NewPolicy(Addr{}) // ask for assignment
	pb := NewPolicy(Addr{10, 0, 0, 2})
	// pb has no AssignPeer: it rejects the option; link still opens but
	// a gets no address.
	l := newPipe(pa, pb)
	open(t, l)
	if l.a.State() != lcp.Opened || l.b.State() != lcp.Opened {
		t.Fatalf("states %v/%v", l.a.State(), l.b.State())
	}
	if !pa.LocalAddr.isZero() {
		t.Errorf("a got %v, want none", pa.LocalAddr)
	}
}

func TestUnknownOptionRejected(t *testing.T) {
	p := NewPolicy(Addr{10, 0, 0, 1})
	naks, rejs := p.CheckRequest([]lcp.Option{{Type: optIPCompression, Data: []byte{0, 0x2D, 0, 0}}})
	if len(naks) != 0 || len(rejs) != 1 {
		t.Errorf("naks=%d rejs=%d", len(naks), len(rejs))
	}
	naks, rejs = p.CheckRequest([]lcp.Option{{Type: optIPAddress, Data: []byte{1, 2}}})
	if len(naks) != 0 || len(rejs) != 1 {
		t.Errorf("malformed addr: naks=%d rejs=%d", len(naks), len(rejs))
	}
}

func TestVJNegotiation(t *testing.T) {
	pa := NewPolicy(Addr{10, 0, 0, 1})
	pa.WantVJ = true
	pa.AllowVJ = true
	pb := NewPolicy(Addr{10, 0, 0, 2})
	pb.AllowVJ = true
	l := newPipe(pa, pb)
	open(t, l)
	if !pb.VJToPeer {
		t.Error("b did not record permission to compress toward a")
	}
	// b never asked: no VJ in the other direction.
	if pa.VJToPeer {
		t.Error("phantom VJ grant")
	}
}

func TestVJRejectedWhenNotAllowed(t *testing.T) {
	pa := NewPolicy(Addr{10, 0, 0, 1})
	pa.WantVJ = true
	pb := NewPolicy(Addr{10, 0, 0, 2}) // AllowVJ false
	l := newPipe(pa, pb)
	open(t, l)
	if pb.VJToPeer {
		t.Error("VJ granted despite rejection")
	}
	if l.a.State() != lcp.Opened {
		t.Error("link must still open without VJ")
	}
}

func TestVJOptionEncoding(t *testing.T) {
	p := NewPolicy(Addr{1, 2, 3, 4})
	p.WantVJ = true
	opts := p.LocalOptions()
	if len(opts) != 2 || opts[0].Type != optIPCompression {
		t.Fatalf("opts = %+v", opts)
	}
	d := opts[0].Data
	if len(d) != 4 || d[0] != 0x00 || d[1] != 0x2D || d[2] != 15 {
		t.Errorf("vj option data = % x", d)
	}
}

func TestVJMalformedOptionRejected(t *testing.T) {
	p := NewPolicy(Addr{1, 2, 3, 4})
	p.AllowVJ = true
	_, rejs := p.CheckRequest([]lcp.Option{{Type: optIPCompression, Data: []byte{0x00, 0x2D}}})
	if len(rejs) != 1 {
		t.Error("short VJ option accepted")
	}
	_, rejs = p.CheckRequest([]lcp.Option{{Type: optIPCompression, Data: []byte{0xAA, 0xBB, 15, 0}}})
	if len(rejs) != 1 {
		t.Error("non-VJ compression protocol accepted")
	}
}
