package gigapos

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/crc"
	"repro/internal/hdlc"
	"repro/internal/lcp"
	"repro/internal/ppp"
	"repro/internal/synth"
)

// pump shuttles bytes between two links until both go quiet.
func pump(t *testing.T, a, b *Link, budget int) {
	t.Helper()
	for i := 0; i < budget; i++ {
		moved := false
		if out := a.Output(); len(out) > 0 {
			b.Input(out)
			moved = true
		}
		if out := b.Output(); len(out) > 0 {
			a.Input(out)
			moved = true
		}
		if !moved {
			return
		}
	}
	t.Fatal("links did not quiesce")
}

func bringUp(t *testing.T, a, b *Link) {
	t.Helper()
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	pump(t, a, b, 1000)
	if !a.Opened() || !b.Opened() {
		t.Fatal("LCP did not open")
	}
	if !a.IPReady() || !b.IPReady() {
		t.Fatal("IPCP did not open")
	}
}

func TestLinkBringUp(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 0x1111, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 0x2222, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUp(t, a, b)
	if a.LocalIP() != [4]byte{10, 0, 0, 1} || [4]byte(a.ipcpPol.PeerAddr) != [4]byte{10, 0, 0, 2} {
		t.Errorf("a addresses: local %v peer %v", a.LocalIP(), [4]byte(a.ipcpPol.PeerAddr))
	}
}

func TestLinkDataTransfer(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUp(t, a, b)
	payload := []byte{0x45, 0, 0, 20, 0x7E, 0x7D, 1, 2, 3}
	if err := a.SendIPv4(payload); err != nil {
		t.Fatal(err)
	}
	pump(t, a, b, 100)
	got := b.Received()
	if len(got) != 1 || got[0].Protocol != ProtoIPv4 || !bytes.Equal(got[0].Payload, payload) {
		t.Fatalf("received %+v", got)
	}
}

func TestLinkSendBeforeOpenFails(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1})
	if err := a.SendIPv4([]byte{1}); err != ErrLinkDown {
		t.Errorf("err = %v, want ErrLinkDown", err)
	}
}

func TestLinkHeaderCompressionNegotiation(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, WantPFC: true, WantACFC: true,
		AllowPFC: true, AllowACFC: true, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, AllowPFC: true, AllowACFC: true,
		IPAddr: [4]byte{10, 0, 0, 2}})
	bringUp(t, a, b)
	// b grants PFC/ACFC to a's receive direction; b's transmit toward a
	// is therefore compressed. Verify data still round trips both ways.
	pay := bytes.Repeat([]byte{0xAA}, 40)
	if err := b.SendIPv4(pay); err != nil {
		t.Fatal(err)
	}
	if err := a.SendIPv4(pay); err != nil {
		t.Fatal(err)
	}
	pump(t, a, b, 100)
	if got := a.Received(); len(got) != 1 || !bytes.Equal(got[0].Payload, pay) {
		t.Fatalf("a received %+v", got)
	}
	if got := b.Received(); len(got) != 1 || !bytes.Equal(got[0].Payload, pay) {
		t.Fatalf("b received %+v", got)
	}
}

func TestLinkFCS16(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, FCS: crc.FCS16Mode, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, FCS: crc.FCS16Mode, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUp(t, a, b)
	if err := a.SendIPv4([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	pump(t, a, b, 100)
	if got := b.Received(); len(got) != 1 {
		t.Fatalf("received %+v", got)
	}
}

func TestLinkDynamicAddressAssignment(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1}) // no address: request one
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{192, 168, 0, 1},
		AssignPeer: [4]byte{192, 168, 0, 42}})
	bringUp(t, a, b)
	if a.LocalIP() != [4]byte{192, 168, 0, 42} {
		t.Errorf("assigned address = %v", a.LocalIP())
	}
}

func TestLinkSameMagicStillConverges(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 0xDEAD, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 0xDEAD, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUp(t, a, b)
}

func TestLinkCorruptedFramesCounted(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUp(t, a, b)
	if err := a.SendIPv4([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	out := a.Output()
	// Flip a payload bit (not a flag).
	for i := 2; i < len(out); i++ {
		if out[i] != 0x7E && out[i] != 0x7D && out[i]^0x04 != 0x7E && out[i]^0x04 != 0x7D {
			out[i] ^= 0x04
			break
		}
	}
	b.Input(out)
	if got := b.Received(); len(got) != 0 {
		t.Fatalf("corrupt frame delivered: %+v", got)
	}
	if b.RxErrors == 0 {
		t.Error("corruption not counted")
	}
}

func TestLinkTerminate(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUp(t, a, b)
	a.lcpA.Close()
	pump(t, a, b, 100)
	if a.Opened() {
		t.Error("a still opened after close")
	}
	if b.Opened() {
		t.Error("b still opened after peer terminate")
	}
	if err := a.SendIPv4([]byte{1}); err != ErrLinkDown {
		t.Error("send after close must fail")
	}
}

func TestFacadeSystemSmoke(t *testing.T) {
	sys := NewSystem(Width32)
	sys.Send(TxJob{Protocol: ProtoIPv4, Payload: []byte{1, 2, 3, 4}})
	if !sys.RunUntilIdle(100000) {
		t.Fatal("system did not drain")
	}
	got := sys.Received()
	if len(got) != 1 || got[0].Err != nil {
		t.Fatalf("received %+v", got)
	}
}

// TestFacadeSynthesize pins the synthesis tables the package doc points
// at: Tables 1 and 2 (8- and 32-bit systems), Table 3 (escape generate
// alone) and the headline 32-bit/8-bit area ratios.
func TestFacadeSynthesize(t *testing.T) {
	rows8 := synth.SystemTable(1, synth.XCV50, synth.XC2V40)
	rows32 := synth.SystemTable(4, synth.XCV600, synth.XC2V1000)
	if len(rows8) != 2 || len(rows32) != 2 {
		t.Fatal("row counts")
	}
	if rows32[0].LUTs <= rows8[0].LUTs {
		t.Error("32-bit system must be larger")
	}
	if len(synth.EscapeGenerateTable(synth.XC2V40)) != 2 {
		t.Error("escape module table")
	}
	if r := synth.ComputeRatios(); r.EscapeGenLUT < 10 {
		t.Errorf("ratios = %+v", r)
	}
}

func TestLinkDownAndRecovery(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUp(t, a, b)
	// Physical bounce.
	a.lcpA.Down()
	b.lcpA.Down()
	if a.Opened() || a.IPReady() {
		t.Fatal("link still up after Down")
	}
	a.Output() // discard stale traffic
	b.Output()
	a.Up()
	b.Up()
	pump(t, a, b, 1000)
	if !a.IPReady() || !b.IPReady() {
		t.Fatal("did not recover after bounce")
	}
}

func TestLinkHasOutputAndMRU(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, MRU: 900, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
	if len(a.out) > 0 {
		t.Error("fresh link has output")
	}
	a.Open()
	if len(a.out) == 0 {
		// Output only appears after Up (scr fires on Up via Starting).
		a.Up()
	}
	b.Open()
	b.Up()
	pump(t, a, b, 1000)
	if !a.Opened() {
		t.Fatal("bring-up failed")
	}
	// b's transmit direction is governed by a's requested MRU.
	if got := b.lcpPol.Peer.MRU; got != 900 {
		t.Errorf("b NegotiatedMRU = %d, want 900", got)
	}
	a.SendIPv4([]byte{1})
	if len(a.out) == 0 {
		t.Error("no output after send")
	}
}

// TestJumboMRUDelivers: with both ends asking for a 9000-octet MRU, a
// 4000-octet datagram the sender accepts arrives byte for byte — the
// receive side polices the MRU it negotiated, not DefaultMRU — and
// counts no receive error.
func TestJumboMRUDelivers(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, MRU: 9000, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, MRU: 9000, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUp(t, a, b)
	if got := b.lcpPol.Local.MRU; got != 9000 {
		t.Fatalf("b negotiated MRU %d, want 9000", got)
	}
	datagram := make([]byte, 4000)
	for i := range datagram {
		datagram[i] = byte(i * 7)
	}
	if err := a.SendIPv4(datagram); err != nil {
		t.Fatal(err)
	}
	errs := b.RxErrors
	pump(t, a, b, 100)
	got := b.Received()
	if len(got) != 1 || !bytes.Equal(got[0].Payload, datagram) {
		t.Fatalf("received %d datagrams, want the 4000-octet one", len(got))
	}
	if b.RxErrors != errs {
		t.Errorf("RxErrors %d → %d", errs, b.RxErrors)
	}
}

func TestReliableStatsWithoutStation(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1})
	if tx, rx, re, rj := a.ReliableStats(); tx+rx+re+rj != 0 {
		t.Error("stats on non-reliable link")
	}
	if stationUp(a) {
		t.Error("Reliable() on plain link")
	}
}

func TestAuthNameDefaultsToIdentity(t *testing.T) {
	c := AuthConfig{Identity: "zoe"}
	if c.name() != "zoe" {
		t.Errorf("name = %q", c.name())
	}
	c.Name = "gw"
	if c.name() != "gw" {
		t.Errorf("name = %q", c.name())
	}
}

func TestAuthenticatedPeerPAP(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1},
		Auth: AuthConfig{Require: AuthPAP, Secrets: map[string]string{"u": "p"}}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2},
		Auth: AuthConfig{Identity: "u", Secret: "p"}})
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	pump(t, a, b, 1000)
	if a.auth.peer() != "u" {
		t.Errorf("peer = %q", a.auth.peer())
	}
	if b.auth.peer() != "" {
		t.Errorf("non-authenticator peer = %q", b.auth.peer())
	}
}

func TestEchoKeepaliveSustainsLink(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, EchoPeriod: 10, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUp(t, a, b)
	now := int64(0)
	for i := 0; i < 10; i++ {
		now += 10
		a.Advance(now)
		pump(t, a, b, 100) // echoes answered promptly
	}
	if !a.Opened() {
		t.Fatal("healthy link went down")
	}
	if a.EchoTimeouts != 0 {
		t.Errorf("EchoTimeouts = %d", a.EchoTimeouts)
	}
}

func TestEchoKeepaliveDetectsDeadPeer(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, EchoPeriod: 10, IPAddr: [4]byte{10, 0, 0, 1}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
	bringUp(t, a, b)
	// Peer goes silent: discard everything a sends.
	now := int64(0)
	for i := 0; i < 8 && a.Opened(); i++ {
		now += 10
		a.Advance(now)
		a.Output() // into the void
	}
	if a.Opened() {
		t.Fatal("dead peer not detected")
	}
	if a.EchoTimeouts != 1 {
		t.Errorf("EchoTimeouts = %d", a.EchoTimeouts)
	}
}

// appendFrame appends f's wire image under c, as the link's sendFrame
// encodes it: a Header for f.Protocol, then Append.
func appendFrame(dst []byte, f *ppp.Frame, c ppp.Config, shareFlag bool) []byte {
	h := c.Header(f.Protocol)
	return h.Append(dst, f.Payload, shareFlag)
}

// lastRequest returns the newest LCP Configure-Request in wire, one
// Output of a link.
func lastRequest(t *testing.T, wire []byte) *lcp.Packet {
	t.Helper()
	var req *lcp.Packet
	tk := hdlc.Tokenizer{FCS: crc.FCS32Mode}
	for _, tok := range tk.Feed(nil, wire) {
		var f ppp.Frame
		if tok.Err != nil || !tok.FCSOK || ppp.DecodeVerifiedBodyInto(&f, tok.Body, ppp.Config{}) != nil || f.Protocol != ppp.ProtoLCP {
			continue
		}
		if p, err := lcp.ParsePacket(f.Payload); err == nil && p.Code == lcp.ConfigureRequest {
			req = &lcp.Packet{Code: p.Code, ID: p.ID, Data: bytes.Clone(p.Data)}
		}
	}
	if req == nil {
		t.Fatal("no Configure-Request on the wire")
	}
	return req
}

// TestInputRenegotiatesMidChunk holds Input's latched receive config to
// the rule that makes it safe: the config used for frame k reflects
// every control frame before it in the same chunk. A hand-played peer
// puts the Configure-Ack that turns PFC+ACFC on and a compressed
// datagram in one chunk, then — after rejecting both options — the Ack
// that turns them off again, an uncompressed datagram and a compressed
// one that must now be refused. The same octets fed whole and fed one
// at a time must deliver the same datagrams and count the same frames.
func TestInputRenegotiatesMidChunk(t *testing.T) {
	lcpCfg := ppp.Config{ACCM: hdlc.ACCMAll}
	control := func(dst []byte, code lcp.Code, req *lcp.Packet, data []byte) []byte {
		pkt := (&lcp.Packet{Code: code, ID: req.ID, Data: data}).Marshal(nil)
		return appendFrame(dst, &ppp.Frame{Protocol: ppp.ProtoLCP, Payload: pkt}, lcpCfg, true)
	}
	plain := &ppp.Frame{Protocol: ppp.ProtoIPv4, Payload: []byte{0x45, 0, 0, 20, 1, 2, 3, 4}}
	packed := &ppp.Frame{Protocol: ppp.ProtoIPv4, Payload: []byte{0x45, 0, 0, 20, 5, 6, 7, 8}}
	compressed := ppp.Config{PFC: true, ACFC: true}

	type result struct {
		got              [][]byte
		rxFrames, rxErrs uint64
	}
	run := func(feed func(l *Link, chunk []byte)) result {
		l := NewLink(LinkConfig{Magic: 7, WantPFC: true, WantACFC: true})
		l.Open()
		l.Up()
		var res result
		drain := func() {
			for _, d := range l.Received() {
				res.got = append(res.got, bytes.Clone(d.Payload))
			}
		}

		// Chunk 1: the Ack that turns compression on, then a compressed
		// datagram. Under the config latched before the Ack its first
		// octet, 0x21, reads as a bad address.
		req := lastRequest(t, l.Output())
		chunk := control(nil, lcp.ConfigureAck, req, req.Data)
		chunk = appendFrame(chunk, packed, compressed, true)
		feed(l, chunk)
		drain()
		if len(res.got) != 1 || !bytes.Equal(res.got[0], packed.Payload) {
			t.Fatalf("after the Ack turning PFC+ACFC on: delivered %x, want the compressed datagram (RxErrors %d)",
				res.got, l.RxErrors)
		}

		// Reject both options: the link asks again without them.
		opts, err := lcp.ParseOptions(req.Data)
		if err != nil {
			t.Fatal(err)
		}
		var rej []lcp.Option
		for _, o := range opts {
			if o.Type == lcp.OptPFC || o.Type == lcp.OptACFC {
				rej = append(rej, o)
			}
		}
		feed(l, control(nil, lcp.ConfigureReject, req, lcp.MarshalOptions(nil, rej)))

		// Chunk 2: the Ack that turns compression off, an uncompressed
		// datagram, and a compressed one — refused from here on.
		req = lastRequest(t, l.Output())
		chunk = control(nil, lcp.ConfigureAck, req, req.Data)
		chunk = appendFrame(chunk, plain, ppp.Config{}, true)
		chunk = appendFrame(chunk, packed, compressed, true)
		feed(l, chunk)
		drain()
		res.rxFrames, res.rxErrs = l.RxFrames, l.RxErrors
		return res
	}

	whole := run(func(l *Link, chunk []byte) { l.Input(chunk) })
	octets := run(func(l *Link, chunk []byte) {
		for i := range chunk {
			l.Input(chunk[i : i+1])
		}
	})
	if len(whole.got) != 2 || !bytes.Equal(whole.got[1], plain.Payload) {
		t.Errorf("fed whole: delivered %x, want the compressed then the uncompressed datagram", whole.got)
	}
	if whole.rxErrs != 1 {
		t.Errorf("fed whole: RxErrors = %d, want 1 (the compressed datagram after compression went off)", whole.rxErrs)
	}
	if len(whole.got) != len(octets.got) || whole.rxFrames != octets.rxFrames || whole.rxErrs != octets.rxErrs {
		t.Errorf("fed whole: %d datagrams, RxFrames %d, RxErrors %d; fed per octet: %d, %d, %d",
			len(whole.got), whole.rxFrames, whole.rxErrs, len(octets.got), octets.rxFrames, octets.rxErrs)
	}
	for i := range min(len(whole.got), len(octets.got)) {
		if !bytes.Equal(whole.got[i], octets.got[i]) {
			t.Errorf("datagram %d: fed whole %x, fed per octet %x", i, whole.got[i], octets.got[i])
		}
	}
}

// TestUnterminatedFrameIsBounded: a peer that sends one opening flag and
// then no closing flag costs the receiver one MaxFrame of arena, not the
// stream. 64 MiB of flagless octets must leave live heap within a few
// MiB of where it started, and the frame, closed at last, is one
// receive error.
func TestUnterminatedFrameIsBounded(t *testing.T) {
	const total, chunk, slackMiB = 64 << 20, 64 << 10, 4
	l := NewLink(LinkConfig{Magic: 1})
	buf := bytes.Repeat([]byte{0x41}, chunk)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l.Input([]byte{hdlc.Flag})
	for fed := 0; fed < total; fed += chunk {
		l.Input(buf)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > slackMiB<<20 {
		t.Errorf("64 MiB without a closing flag grew the live heap by %.1f MiB, want ≤ %d", float64(grew)/(1<<20), slackMiB)
	}
	l.Input([]byte{hdlc.Flag})
	if l.RxErrors != 1 {
		t.Errorf("RxErrors = %d, want 1: the unterminated frame is one oversize frame", l.RxErrors)
	}
	runtime.KeepAlive(l)
}
