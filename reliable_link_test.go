package gigapos

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/hdlc"
	"repro/internal/ppp"
)

func bringUpReliable(t *testing.T, a, b *Link) {
	t.Helper()
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	pump(t, a, b, 1000)
	if !a.Opened() || !b.Opened() {
		t.Fatal("LCP did not open")
	}
	if !stationUp(a) || !stationUp(b) {
		t.Fatal("numbered mode did not connect")
	}
}

func TestReliableLinkBringUp(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, Reliable: true, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, Reliable: true, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUpReliable(t, a, b)
}

func TestReliableLinkDataTransfer(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, Reliable: true, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, Reliable: true, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUpReliable(t, a, b)
	for i := 0; i < 10; i++ {
		if err := a.SendIPv4([]byte{byte(i), 0x7E, 0x7D}); err != nil {
			t.Fatal(err)
		}
		pump(t, a, b, 100)
	}
	got := b.Received()
	if len(got) != 10 {
		t.Fatalf("delivered %d, want 10", len(got))
	}
	for i, d := range got {
		if d.Protocol != ProtoIPv4 || d.Payload[0] != byte(i) {
			t.Fatalf("datagram %d = %+v", i, d)
		}
	}
	txI, rxI, _, _ := a.ReliableStats()
	if txI != 10 {
		t.Errorf("TxI = %d", txI)
	}
	_, rxI, _, _ = b.ReliableStats()
	if rxI != 10 {
		t.Errorf("b RxI = %d", rxI)
	}
}

// lossyPump shuttles bytes with random whole-frame corruption, servicing
// the virtual clocks — the noisy wireless channel of RFC 1663.
func lossyPump(a, b *Link, rng *rand.Rand, rounds int, loss float64) {
	now := int64(0)
	for i := 0; i < rounds; i++ {
		if out := a.Output(); len(out) > 0 {
			if rng.Float64() < loss {
				// Corrupt one octet mid-stream: FCS rejects the frame.
				out[len(out)/2] ^= 0x04
			}
			b.Input(out)
		}
		if out := b.Output(); len(out) > 0 {
			if rng.Float64() < loss {
				out[len(out)/2] ^= 0x04
			}
			a.Input(out)
		}
		now += 2
		a.Advance(now)
		b.Advance(now)
	}
}

func TestReliableLinkSurvivesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewLink(LinkConfig{Magic: 1, Reliable: true, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, Reliable: true, IPAddr: [4]byte{10, 0, 0, 2}})
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	lossyPump(a, b, rng, 200, 0) // clean bring-up
	if !stationUp(a) || !stationUp(b) {
		t.Fatal("bring-up failed")
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := a.SendIPv4([]byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		lossyPump(a, b, rng, 30, 0.15)
	}
	lossyPump(a, b, rng, 400, 0) // drain retransmissions
	got := b.Received()
	if len(got) != n {
		t.Fatalf("delivered %d/%d under noise", len(got), n)
	}
	for i, d := range got {
		if d.Payload[0] != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
	_, _, retr, _ := a.ReliableStats()
	if retr == 0 {
		t.Error("noise should have forced retransmissions")
	}
}

func TestUnreliableLinkDropsUnderSameNoise(t *testing.T) {
	// The control: without numbered mode the same channel loses frames.
	rng := rand.New(rand.NewSource(5))
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	lossyPump(a, b, rng, 200, 0)
	const n = 30
	for i := 0; i < n; i++ {
		a.SendIPv4([]byte{byte(i), 1, 2, 3})
		lossyPump(a, b, rng, 30, 0.15)
	}
	got := b.Received()
	if len(got) == n {
		t.Skip("lucky run: no frame hit by noise")
	}
	if len(got) >= n {
		t.Errorf("delivered %d, expected losses", len(got))
	}
}

func TestProtocolRejectForUnknownProtocol(t *testing.T) {
	// An unimplemented protocol (AppleTalk, 0x0029) and one LCP never
	// negotiated (Link-Quality-Report, 0xC025: the Quality-Protocol
	// option is Configure-Rejected) are both rejected, not dropped.
	for _, proto := range []uint16{0x0029, ppp.ProtoLQR} {
		a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}})
		b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
		bringUp(t, a, b)
		if err := a.Send(proto, []byte{9, 9, 9}); err != nil {
			t.Fatal(err)
		}
		pump(t, a, b, 100)
		if b.ProtocolRejects != 1 {
			t.Errorf("%#04x: ProtocolRejects = %d, want 1", proto, b.ProtocolRejects)
		}
		if got := b.Received(); len(got) != 0 {
			t.Errorf("%#04x: unknown protocol delivered: %+v", proto, got)
		}
	}
}

func TestNumberedFrameWireFormat(t *testing.T) {
	// A numbered I-frame must round trip through the generic tokenizer
	// with a valid FCS — i.e. it is a legal HDLC frame on the wire.
	a := NewLink(LinkConfig{Magic: 1, Reliable: true, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, Reliable: true, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUpReliable(t, a, b)
	a.SendIPv4([]byte{0xAA, 0xBB})
	wire := a.Output()
	if len(wire) == 0 {
		t.Fatal("no output")
	}
	// The frame must tokenize as legal HDLC; its control octet (after
	// destuffing) is an I frame: bit 0 clear.
	var tk hdlc.Tokenizer
	toks := tk.Feed(nil, wire)
	if len(toks) != 1 || toks[0].Err != nil {
		t.Fatalf("tokens = %+v", toks)
	}
	body := toks[0].Body
	if body[0] != 0xFF || body[1]&1 != 0 {
		t.Errorf("not an I frame: % x", body[:4])
	}
	b.Input(wire)
	got := b.Received()
	if len(got) != 1 || !bytes.Equal(got[0].Payload, []byte{0xAA, 0xBB}) {
		t.Fatalf("received %+v", got)
	}
}

// TestEveryDamagedFrameTakesTheErrorExit: a framing error is a damaged
// frame like a bad FCS is. Abort, runt, oversize, a UI frame and a
// numbered frame with a broken FCS each take the one receive-error
// exit: RxErrors moves by exactly one per frame and nothing is
// delivered.
func TestEveryDamagedFrameTakesTheErrorExit(t *testing.T) {
	cfg := LinkConfig{Magic: 1, Reliable: true, IPAddr: [4]byte{10, 0, 0, 1}}
	a := NewLink(cfg)
	cfg.Magic, cfg.IPAddr = 2, [4]byte{10, 0, 0, 2}
	b := NewLink(cfg)
	bringUpReliable(t, a, b)
	if b.RxErrors != 0 {
		t.Fatalf("errors before any damage: RxErrors %d", b.RxErrors)
	}

	breakFCS := func(wire []byte) []byte {
		wire = bytes.Clone(wire)
		wire[len(wire)-3] ^= 0x01 // inside the FCS field; both frames are fixed, and neither grows a delimiter
		return wire
	}
	echo := ppp.AppendFrame(nil, &ppp.Frame{Protocol: ppp.ProtoLCP, Payload: []byte{9, 1, 0, 8, 0, 0, 0, 1}},
		ppp.Config{ACCM: hdlc.ACCMAll}, false)
	if err := a.SendIPv4([]byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	numbered := a.Output()
	for i, tc := range []struct {
		name string
		wire []byte
	}{
		{"abort", []byte{0x7E, 0xFF, 0x03, 0x41, 0x7D, 0x7E}},
		{"runt", []byte{0x7E, 0xFF, 0x03, 0x7E}},
		{"oversize", append(append([]byte{0x7E}, bytes.Repeat([]byte{0x41}, 4+ppp.DefaultMRU+4+1)...), 0x7E)},
		{"bad FCS", breakFCS(echo)},
		{"bad numbered frame", breakFCS(numbered)},
	} {
		b.Input(tc.wire)
		if want := uint64(i + 1); b.RxErrors != want {
			t.Fatalf("after %s: RxErrors %d, want %d", tc.name, b.RxErrors, want)
		}
	}
	if got := b.Received(); len(got) != 0 {
		t.Errorf("damaged frames delivered: %+v", got)
	}
}

// stationUp reports whether l's numbered-mode station has completed
// SABM/UA setup.
func stationUp(l *Link) bool { return l.station != nil && l.station.Connected() }
