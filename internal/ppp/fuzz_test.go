package ppp

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crc"
	"repro/internal/hdlc"
)

// FuzzDecodeBody: DecodeVerifiedBodyInto must never panic on arbitrary
// bodies, FCS good or not, and must accept everything the reference body
// builder produces.
func FuzzDecodeBody(f *testing.F) {
	f.Add([]byte{0xFF, 0x03, 0x00, 0x21, 1, 2, 3}, true, true, false)
	f.Add([]byte{}, false, false, true)
	f.Add([]byte{0x21}, true, false, false)
	f.Fuzz(func(t *testing.T, body []byte, pfc, acfc, fcs16 bool) {
		cfg := Config{PFC: pfc, ACFC: acfc}
		if fcs16 {
			cfg.FCS = crc.FCS16Mode
		}
		var got Frame
		DecodeVerifiedBodyInto(&got, body, cfg) // must not panic

		// And the constructive direction always decodes.
		fr := &Frame{Protocol: ProtoIPv4, Payload: body}
		enc := ReferenceEncodeBody(nil, fr, cfg)
		if !cfg.fcs().Check(enc) {
			t.Fatal("self-encoded frame fails its FCS")
		}
		err := DecodeVerifiedBodyInto(&got, enc, Config{PFC: pfc, ACFC: acfc, FCS: cfg.FCS, MRU: 1 << 16})
		if err != nil {
			t.Fatalf("self-encoded frame rejected: %v", err)
		}
		if got.Protocol != ProtoIPv4 || len(got.Payload) != len(body) {
			t.Fatal("self-encoded frame mangled")
		}
	})
}

// FuzzFusedEncode differential-tests the production transmit kernel
// (Header.Append: one wide FCS fold from the prepared register, then
// span/block stuffing and a word-wide tail) against the two-pass,
// byte-at-a-time reference, through both ways in: a Header prepared by
// Config.Header against ppp.ReferenceEncode, and AppendFramed with a
// numbered-mode head — address, then control octet byte(proto>>8), an
// I/S/U octet whenever it is not CtrlUI, and no protocol field —
// against hdlc.ReferenceEncode of the body it covers. Every payload,
// framing-option combination, protocol number or control octet, ACCM
// and prior-stream state must produce byte-for-byte identical wire
// encodings.
func FuzzFusedEncode(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(ProtoIPv4), false, false, false, false, uint32(0))
	f.Add([]byte{0x7E, 0x7D, 0x00, 0x13}, uint16(ProtoIPv4), true, true, false, true, uint32(0xFFFFFFFF))
	f.Add([]byte{}, uint16(ProtoLCP), true, true, true, true, uint32(0xA5A5A5A5))
	f.Add(bytes.Repeat([]byte{0x7E}, 64), uint16(0x0057), false, true, true, false, uint32(1))
	f.Add(bytes.Repeat([]byte{0x42}, 1500), uint16(0x002D), true, false, false, false, uint32(0))
	// Block edges of the payload, where the block kernel cuts: an escape
	// as octet 63/64/65, 7D ending a block with 7D/7E opening the next, a
	// dense block run that turns sparse, a mapped control character in a
	// dirty block, and 2 % at random over 1500 octets.
	for _, at := range []int{63, 64, 65} {
		p := bytes.Repeat([]byte{0x42}, 200)
		p[at] = hdlc.Flag
		f.Add(p, uint16(ProtoIPv4), false, false, false, false, uint32(0))
	}
	for _, next := range []byte{hdlc.Escape, hdlc.Flag} {
		p := bytes.Repeat([]byte{0x42}, 130)
		p[63], p[64] = hdlc.Escape, next
		f.Add(p, uint16(ProtoIPv4), false, false, false, true, uint32(0))
	}
	dense := append(bytes.Repeat([]byte{0x7E, 0x7D, 0x11}, 60), bytes.Repeat([]byte{0x42}, 200)...)
	f.Add(dense, uint16(ProtoIPv4), false, false, false, false, uint32(0))
	f.Add(dense[150:], uint16(ProtoIPv4), false, false, true, false, uint32(0x000A0000))
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 1500)
	for i := range random {
		random[i] = byte(rng.Intn(256))
		if rng.Intn(50) == 0 {
			random[i] = hdlc.Flag - byte(rng.Intn(2))
		}
	}
	f.Add(random, uint16(ProtoIPv4), false, false, false, true, uint32(0))
	f.Fuzz(func(t *testing.T, payload []byte, proto uint16, pfc, acfc, fcs16, share bool, accm uint32) {
		cfg := Config{PFC: pfc, ACFC: acfc, ACCM: hdlc.ACCM(accm)}
		if fcs16 {
			cfg.FCS = crc.FCS16Mode
		}
		fr := &Frame{Protocol: proto, Payload: payload}
		hdr := cfg.Header(proto)
		numbered := []byte{AddrAllStations, byte(proto >> 8)}
		numberedBody := cfg.fcs().Append(append(bytes.Clone(numbered), payload...))
		// Exercise the shared-flag elision from both prior states: an
		// empty stream and one ending in a closing flag.
		for _, prior := range [][]byte{nil, {hdlc.Flag}} {
			ref := ReferenceEncode(bytes.Clone(prior), fr, cfg, share)
			prepared := hdr.Append(bytes.Clone(prior), payload, share)
			if !bytes.Equal(ref, prepared) {
				t.Fatalf("fused kernel diverges from two-pass reference\nproto=%#04x pfc=%t acfc=%t fcs16=%t share=%t accm=%#x prior=% x\nref      = % x\nprepared = % x",
					proto, pfc, acfc, fcs16, share, accm, prior, ref, prepared)
			}
			ref = hdlc.ReferenceEncode(bytes.Clone(prior), numberedBody, cfg.ACCM, share)
			framed := AppendFramed(bytes.Clone(prior), numbered, payload, cfg.fcs(), cfg.ACCM, share)
			if !bytes.Equal(ref, framed) {
				t.Fatalf("numbered head diverges from two-pass reference\nhead=% x fcs16=%t share=%t accm=%#x prior=% x\nref    = % x\nframed = % x",
					numbered, fcs16, share, accm, prior, ref, framed)
			}
		}
	})
}
