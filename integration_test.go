package gigapos

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/crc"
	"repro/internal/hdlc"
	"repro/internal/netsim"
	"repro/internal/p5"
	"repro/internal/ppp"
	"repro/internal/rtl"
	"repro/internal/sonet"
)

// TestHardwareP5OverSONET drives the full hardware path of the paper's
// Figure 2 on one clock: datagrams enter the cycle-accurate P5
// transmitter, its line octets are mapped byte-synchronously into
// STM-16 transport frames, carried, demapped, and fed into the
// cycle-accurate P5 receiver.
func TestHardwareP5OverSONET(t *testing.T) {
	sys := p5.NewSectionSystem(4, sonet.STM16)
	gen := netsim.NewGen(11, netsim.IMIX{}, 0.05)
	var want [][]byte
	for i := 0; i < 25; i++ {
		d := gen.Next()
		want = append(want, d)
		sys.Send(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: d})
	}
	if !sys.RunUntilIdle(10_000_000) {
		t.Fatal("system did not drain")
	}
	if df := sys.Section.Z.Deframer(); df.B1Errors != 0 || df.B3Errors != 0 {
		t.Fatalf("parity errors on a clean line: %d/%d", df.B1Errors, df.B3Errors)
	}

	got := sys.Received()
	if len(got) != len(want) {
		t.Fatalf("delivered %d/%d frames", len(got), len(want))
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("frame %d: %v", i, got[i].Err)
		}
		if !bytes.Equal(got[i].Frame.Payload, want[i]) {
			t.Fatalf("frame %d payload mismatch", i)
		}
		if _, ok := netsim.ParseIPv4(got[i].Frame.Payload); !ok {
			t.Fatalf("frame %d: damaged IPv4 header", i)
		}
	}
}

// wireCorpus is the payload corpus of the three-way codec comparison:
// the adversarial escape-density shapes both fused fuzz corpora carry.
func wireCorpus() []wirePayload {
	c := []wirePayload{
		{"1B", []byte{0x42}},
		{"1B-flag", []byte{hdlc.Flag}},
		{"esc-esc", []byte{1, hdlc.Escape, hdlc.Escape, 2}},
		{"esc-last", []byte{1, 2, 3, hdlc.Escape}},
		{"all-flag", bytes.Repeat([]byte{hdlc.Flag}, 130)},
		{"ctl-near-flag", []byte{0x11, hdlc.Flag, 0x13, hdlc.Escape, 0x00}},
	}
	for _, d := range []int{0, 25, 50, 75, 100} {
		c = append(c, wirePayload{fmt.Sprintf("1500B-escape%d", d), densityPayload(1500, d)})
	}
	// A run of delimiters straddling a word or a 64-octet block edge.
	for _, at := range []int{3, 6, 7, 59, 62, 63, 64, 66} {
		p := bytes.Repeat([]byte{0x55}, 200)
		copy(p[at:], []byte{hdlc.Flag, hdlc.Escape, hdlc.Escape, hdlc.Flag, 0x5E, hdlc.Flag})
		c = append(c, wirePayload{fmt.Sprintf("run-at%d", at), p})
	}
	// Minimum-size frames on both sides of the 64-octet fold threshold:
	// 40- and 64-octet datagrams, 63/65 around the transmit fold (taken
	// over the payload), and the lengths that make the receive fold's
	// body — 4 header octets, payload, FCS — 59/60/63/64/65/67 octets
	// under FCS-32 (51…59) and FCS-16 (53…61).
	for _, n := range []int{40, 51, 52, 53, 54, 55, 56, 57, 58, 59, 61, 63, 64, 65} {
		c = append(c, wirePayload{fmt.Sprintf("%dB", n), netsim.NewGen(18, netsim.Fixed(n), 0.05).Next()})
	}
	return c
}

type wirePayload struct {
	name    string
	payload []byte
}

// TestHardwareAndSoftwareWireCompatibility proves the three
// implementations of the framing transform — the fused production
// codec, its byte-at-a-time oracle and the cycle-accurate P5 — speak
// one wire format: each corpus payload is encoded three ways to the
// same octets (the model may pad with trailing flags) and the wire is
// decoded three ways, intact and damaged, to the same body and the
// same FCS verdict. The last subtest runs a Link against the P5 in
// both directions.
func TestHardwareAndSoftwareWireCompatibility(t *testing.T) {
	for _, c := range wireCorpus() {
		for _, fcs := range []crc.Size{crc.FCS16Mode, crc.FCS32Mode} {
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%v/w=%d", c.name, fcs, w), func(t *testing.T) {
					threeWay(t, c.payload, fcs, w)
				})
			}
		}
	}
	t.Run("link", linkAgainstP5)
}

func threeWay(t *testing.T, payload []byte, fcs crc.Size, w int) {
	fr := &ppp.Frame{Protocol: ppp.ProtoIPv4, Payload: payload}
	cfg := ppp.Config{FCS: fcs}
	regs := p5.NewRegs()
	(&p5.OAM{Regs: regs}).Write(p5.RegFCSMode, uint32(fcs.Bytes()))

	// Transmit.
	ref := ppp.ReferenceEncode(nil, fr, cfg, false)
	if fused := appendFrame(nil, fr, cfg, false); !bytes.Equal(fused, ref) {
		t.Fatalf("fused encoder diverges from reference:\n got % x\nwant % x", fused, ref)
	}
	model := p5Encode(t, w, regs, payload)
	for len(model) > len(ref) && model[len(model)-1] == hdlc.Flag {
		model = model[:len(model)-1] // flag pad to the word boundary
	}
	if !bytes.Equal(model, ref) {
		t.Fatalf("P5 transmitter diverges from reference:\n got % x\nwant % x", model, ref)
	}

	// Receive, first the intact wire, then with one header bit flipped
	// (FF→FE: not a delimiter, so delineation is unchanged).
	damaged := bytes.Clone(ref)
	damaged[1] ^= 1
	for _, c := range []struct {
		wire   []byte
		wantOK bool
	}{{ref, true}, {damaged, false}} {
		wire, wantOK := c.wire, c.wantOK
		oracle := hdlc.ReferenceTokenizer{Tokenizer: hdlc.Tokenizer{FCS: fcs}}
		want := oracle.Feed(nil, wire)
		if len(want) != 1 || want[0].Err != nil || want[0].FCSOK != wantOK {
			t.Fatalf("reference tokenizer: %+v, want one frame with FCSOK=%t", want, wantOK)
		}
		fusedTk := hdlc.Tokenizer{FCS: fcs}
		got := fusedTk.Feed(nil, wire)
		if len(got) != 1 || got[0].Err != nil || got[0].FCSOK != wantOK || !bytes.Equal(got[0].Body, want[0].Body) {
			t.Fatalf("fused tokenizer diverges from reference:\n got %+v\nwant %+v", got, want)
		}
		q := p5Decode(t, w, regs, wire)
		if len(q) != 1 || (q[0].Err == nil) != wantOK || !bytes.Equal(q[0].Body, want[0].Body) {
			t.Fatalf("P5 receiver diverges from reference (FCSOK=%t):\n got %+v\nwant % x", wantOK, q, want[0].Body)
		}
		if wantOK && !bytes.Equal(q[0].Frame.Payload, payload) {
			t.Fatalf("P5 receiver delivered % x, want % x", q[0].Frame.Payload, payload)
		}
	}
}

// p5Encode runs one IPv4 datagram through a width-w P5 transmitter
// programmed by regs and returns its line octets.
func p5Encode(t *testing.T, w int, regs *p5.Regs, payload []byte) []byte {
	sim := &rtl.Sim{}
	tx := p5.NewTransmitter(sim, w, regs)
	tx.CRC.Mode = crc.Size((&p5.OAM{Regs: regs}).Read(p5.RegFCSMode))
	sink := rtl.NewSink(tx.Out)
	sim.Add(sink)
	tx.Framer.Enqueue(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: payload})
	if !sim.RunUntil(func() bool { return !tx.Busy() && sim.Drained() }, 1_000_000) {
		t.Fatal("transmitter did not drain")
	}
	return sink.Data
}

// p5Decode feeds line octets to a width-w P5 receiver programmed by
// regs and returns its receive queue.
func p5Decode(t *testing.T, w int, regs *p5.Regs, wire []byte) []p5.RxFrame {
	sim := &rtl.Sim{}
	src := &rtl.Source{}
	rx := p5.NewReceiver(sim, w, regs)
	rx.CRC.Mode = crc.Size((&p5.OAM{Regs: regs}).Read(p5.RegFCSMode))
	src.Out = rx.In
	sim.Add(src)
	src.FeedBytes(wire, w)
	if !sim.RunUntil(func() bool { return src.Pending() == 0 && !rx.Busy() && sim.Drained() }, 1_000_000) {
		t.Fatal("receiver did not drain")
	}
	return rx.Control.Queue
}

// linkAgainstP5: a Link decodes the P5's octets directly and vice versa.
func linkAgainstP5(t *testing.T) {
	// Hardware → software.
	payload := []byte{0x7E, 0x01, 0x7D, 0x02}
	line := p5Encode(t, 4, p5.NewRegs(), payload)

	sw := NewLink(LinkConfig{Magic: 1})
	// Force-open the software side so data frames are accepted: feed a
	// bring-up against a scratch peer first.
	peer := NewLink(LinkConfig{Magic: 2})
	sw.Open()
	peer.Open()
	sw.Up()
	peer.Up()
	for i := 0; i < 16; i++ {
		if out := sw.Output(); len(out) > 0 {
			peer.Input(out)
		}
		if out := peer.Output(); len(out) > 0 {
			sw.Input(out)
		}
	}
	if !sw.Opened() {
		t.Fatal("software link did not open")
	}
	sw.Input(line)
	got := sw.Received()
	if len(got) != 1 || !bytes.Equal(got[0].Payload, payload) {
		t.Fatalf("software side received %+v", got)
	}

	// Software → hardware.
	if err := peer.SendIPv4(payload); err != nil {
		t.Fatal(err)
	}
	q := p5Decode(t, 4, p5.NewRegs(), peer.Output())
	if len(q) != 1 || q[0].Err != nil || !bytes.Equal(q[0].Frame.Payload, payload) {
		t.Fatalf("hardware side received %+v", q)
	}
}
