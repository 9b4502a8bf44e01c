package ppp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/crc"
	"repro/internal/hdlc"
)

// decodeBody is DecodeBodyInto into a fresh Frame.
func decodeBody(body []byte, c Config) (*Frame, error) {
	f := new(Frame)
	if err := DecodeBodyInto(f, body, c); err != nil {
		return nil, err
	}
	return f, nil
}

func TestEncodeBodyLayout(t *testing.T) {
	f := &Frame{Protocol: ProtoIPv4, Payload: []byte{0xDE, 0xAD}}
	body := ReferenceEncodeBody(nil, f, Config{})
	// FF 03 00 21 DE AD + 4-byte FCS
	if len(body) != 10 {
		t.Fatalf("body len = %d, want 10", len(body))
	}
	want := []byte{0xFF, 0x03, 0x00, 0x21, 0xDE, 0xAD}
	if !bytes.Equal(body[:6], want) {
		t.Errorf("header = % x, want % x", body[:6], want)
	}
	if !crc.FCS32Mode.Check(body) {
		t.Error("FCS over body must verify")
	}
}

func TestRoundTripDefault(t *testing.T) {
	cfg := Config{}
	f := &Frame{Protocol: ProtoIPv4, Payload: []byte("hello world")}
	body := ReferenceEncodeBody(nil, f, cfg)
	got, err := decodeBody(body, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Protocol != ProtoIPv4 || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("decoded %v", got)
	}
	if got.Address != AddrAllStations || got.Control != CtrlUI {
		t.Errorf("addr/ctrl = %#x/%#x", got.Address, got.Control)
	}
}

func TestRoundTripAllConfigs(t *testing.T) {
	payload := []byte{0x00, 0x7E, 0x7D, 0xFF, 0x01}
	for _, fcs := range []crc.Size{crc.FCS16Mode, crc.FCS32Mode} {
		for _, pfc := range []bool{false, true} {
			for _, acfc := range []bool{false, true} {
				cfg := Config{FCS: fcs, PFC: pfc, ACFC: acfc}
				for _, proto := range []uint16{ProtoIPv4, ProtoLCP, ProtoIPCP} {
					f := &Frame{Protocol: proto, Payload: payload}
					body := ReferenceEncodeBody(nil, f, cfg)
					got, err := decodeBody(body, cfg)
					if err != nil {
						t.Fatalf("fcs=%v pfc=%v acfc=%v proto=%#x: %v", fcs, pfc, acfc, proto, err)
					}
					if got.Protocol != proto || !bytes.Equal(got.Payload, payload) {
						t.Fatalf("fcs=%v pfc=%v acfc=%v proto=%#x: got %v", fcs, pfc, acfc, proto, got)
					}
				}
			}
		}
	}
}

func TestPFCCompressesNetworkProto(t *testing.T) {
	cfg := Config{PFC: true}
	f := &Frame{Protocol: ProtoIPv4, Payload: nil}
	body := ReferenceEncodeBody(nil, f, cfg)
	// FF 03 21 + FCS4: protocol is a single octet.
	if body[2] != 0x21 || len(body) != 3+4 {
		t.Errorf("PFC body = % x", body)
	}
}

func TestACFCKeepsLCPUncompressed(t *testing.T) {
	cfg := Config{ACFC: true}
	lcp := ReferenceEncodeBody(nil, &Frame{Protocol: ProtoLCP}, cfg)
	if lcp[0] != 0xFF || lcp[1] != 0x03 {
		t.Errorf("LCP frame must keep FF 03: % x", lcp)
	}
	ip := ReferenceEncodeBody(nil, &Frame{Protocol: ProtoIPv4}, cfg)
	if ip[0] == 0xFF {
		t.Errorf("network frame should be compressed: % x", ip)
	}
}

func TestDecodeRejectsBadFCS(t *testing.T) {
	body := ReferenceEncodeBody(nil, &Frame{Protocol: ProtoIPv4, Payload: []byte{1}}, Config{})
	body[3] ^= 0x40
	if _, err := decodeBody(body, Config{}); !errors.Is(err, ErrBadFCS) {
		t.Errorf("err = %v, want ErrBadFCS", err)
	}
}

func TestDecodeRejectsShort(t *testing.T) {
	if _, err := decodeBody([]byte{1, 2, 3}, Config{}); !errors.Is(err, errTooShort) {
		t.Errorf("err = %v, want ErrTooShort", err)
	}
	if _, err := decodeBody(nil, Config{}); !errors.Is(err, errTooShort) {
		t.Errorf("err = %v, want ErrTooShort", err)
	}
}

func TestDecodeRejectsWrongAddress(t *testing.T) {
	// Encode with MAPOS address 0x04, decode expecting 0x08.
	body := ReferenceEncodeBody(nil, &Frame{Address: 0x04, Protocol: ProtoIPv4}, Config{Address: 0x04})
	if _, err := decodeBody(body, Config{Address: 0x08}); !errors.Is(err, ErrBadAddress) {
		t.Errorf("err = %v, want ErrBadAddress", err)
	}
	// AnyAddress accepts it.
	if _, err := decodeBody(body, Config{Address: 0x08, AnyAddress: true}); err != nil {
		t.Errorf("AnyAddress: %v", err)
	}
	// All-stations always accepted.
	body2 := ReferenceEncodeBody(nil, &Frame{Protocol: ProtoIPv4}, Config{})
	if _, err := decodeBody(body2, Config{Address: 0x08}); err != nil {
		t.Errorf("all-stations: %v", err)
	}
}

func TestDecodeRejectsBadControl(t *testing.T) {
	body := ReferenceEncodeBody(nil, &Frame{Protocol: ProtoIPv4}, Config{})
	body[1] = 0x13                    // not UI
	body = body[:len(body)-4]         // strip stale FCS
	body = crc.FCS32Mode.Append(body) // re-seal
	if _, err := decodeBody(body, Config{}); !errors.Is(err, errBadControl) {
		t.Errorf("err = %v, want ErrBadControl", err)
	}
}

func TestDecodeRejectsBadProtocol(t *testing.T) {
	// Low protocol octet must be odd.
	raw := []byte{0xFF, 0x03, 0x00, 0x20}
	raw = crc.FCS32Mode.Append(raw)
	if _, err := decodeBody(raw, Config{}); !errors.Is(err, errBadProtocol) {
		t.Errorf("even low octet: err = %v", err)
	}
	// Single-octet protocol without PFC negotiated.
	raw2 := []byte{0xFF, 0x03, 0x21}
	raw2 = crc.FCS32Mode.Append(raw2)
	if _, err := decodeBody(raw2, Config{}); !errors.Is(err, errBadProtocol) {
		t.Errorf("PFC off: err = %v", err)
	}
}

func TestDecodeEnforcesMRU(t *testing.T) {
	big := make([]byte, 100)
	body := ReferenceEncodeBody(nil, &Frame{Protocol: ProtoIPv4, Payload: big}, Config{})
	if _, err := decodeBody(body, Config{MRU: 99}); !errors.Is(err, ErrTooLong) {
		t.Errorf("err = %v, want ErrTooLong", err)
	}
	if _, err := decodeBody(body, Config{MRU: 100}); err != nil {
		t.Errorf("exact MRU: %v", err)
	}
}

func TestWireRoundTripThroughTokenizer(t *testing.T) {
	cfg := Config{ACCM: hdlc.ACCMNone}
	frames := []*Frame{
		{Protocol: ProtoLCP, Payload: []byte{1, 1, 0, 4}},
		{Protocol: ProtoIPv4, Payload: []byte{0x7E, 0x7D, 0x7E, 0x7E}},
		{Protocol: ProtoIPv4, Payload: bytes.Repeat([]byte{0x7E}, 64)},
	}
	var wire []byte
	for _, f := range frames {
		wire = ReferenceEncode(wire, f, cfg, true)
	}
	var tk hdlc.Tokenizer
	toks := tk.Feed(nil, wire)
	if len(toks) != len(frames) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(frames))
	}
	for i, tok := range toks {
		if tok.Err != nil {
			t.Fatalf("token %d: %v", i, tok.Err)
		}
		got, err := decodeBody(tok.Body, cfg)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Protocol != frames[i].Protocol || !bytes.Equal(got.Payload, frames[i].Payload) {
			t.Errorf("frame %d mismatch: %v", i, got)
		}
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(payload []byte, pfc, acfc bool) bool {
		cfg := Config{PFC: pfc, ACFC: acfc, MRU: 65535}
		fr := &Frame{Protocol: ProtoIPv4, Payload: payload}
		wire := ReferenceEncode(nil, fr, cfg, false)
		var tk hdlc.Tokenizer
		toks := tk.Feed(nil, wire)
		if len(toks) != 1 || toks[0].Err != nil {
			return false
		}
		got, err := decodeBody(toks[0].Body, cfg)
		return err == nil && got.Protocol == ProtoIPv4 && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrameString(t *testing.T) {
	s := (&Frame{Address: 0xFF, Control: 3, Protocol: ProtoIPv4, Payload: []byte{1, 2}}).String()
	if s == "" || !bytes.Contains([]byte(s), []byte("0x0021")) {
		t.Errorf("String() = %q", s)
	}
}

func TestAppendFrameMatchesEncode(t *testing.T) {
	payloads := [][]byte{
		nil,
		{0x00},
		{0x7E, 0x7D, 0x03, 0x13},
		bytes.Repeat([]byte{0x7E}, 100),
		bytes.Repeat([]byte{0x42}, 1500),
	}
	for _, pfc := range []bool{false, true} {
		for _, acfc := range []bool{false, true} {
			for _, fcs := range []crc.Size{0, crc.FCS16Mode, crc.FCS32Mode} {
				for _, accm := range []hdlc.ACCM{hdlc.ACCMNone, hdlc.ACCMAll} {
					cfg := Config{PFC: pfc, ACFC: acfc, FCS: fcs, ACCM: accm}
					for _, proto := range []uint16{ProtoIPv4, ProtoLCP, ProtoVJC, 0x0057} {
						for _, p := range payloads {
							fr := &Frame{Protocol: proto, Payload: p}
							ref := ReferenceEncode(nil, fr, cfg, false)
							got := AppendFrame(nil, fr, cfg, false)
							if !bytes.Equal(ref, got) {
								t.Fatalf("pfc=%t acfc=%t fcs=%v accm=%#x proto=%#04x len=%d:\nref % x\ngot % x",
									pfc, acfc, fcs, accm, proto, len(p), ref, got)
							}
						}
					}
				}
			}
		}
	}
}

func TestAppendFrameSharedFlag(t *testing.T) {
	cfg := Config{ACCM: hdlc.ACCMNone}
	fr := &Frame{Protocol: ProtoIPv4, Payload: []byte{9, 9}}
	s := AppendFrame(nil, fr, cfg, false)
	shared := AppendFrame(s, fr, cfg, true)
	ref := ReferenceEncode(ReferenceEncode(nil, fr, cfg, false), fr, cfg, true)
	if !bytes.Equal(shared, ref) {
		t.Fatalf("shared-flag stream % x, want % x", shared, ref)
	}
}

// tailPayloads returns base extended by four octets chosen so that the
// FCS of the frame (f.Protocol, c) holds want in lane i, for every lane
// of the FCS field: the payloads that put a flag, an escape or a mapped
// control octet in each position of the tail Header.Append stores whole.
func tailPayloads(t *testing.T, c Config, proto uint16, base []byte, want byte) [][]byte {
	t.Helper()
	var out [][]byte
	fcsN := c.fcs().Bytes()
	for lane := 0; lane < fcsN; lane++ {
		p := append(bytes.Clone(base), 0, 0, 0, 0)
		found := false
		for ctr := uint32(0); ctr < 1<<16 && !found; ctr++ {
			binary.LittleEndian.PutUint32(p[len(base):], ctr*0x9E3779B1)
			body := ReferenceEncodeBody(nil, &Frame{Protocol: proto, Payload: p}, c)
			found = body[len(body)-fcsN+lane] == want
		}
		if !found {
			t.Fatalf("no payload puts %#02x in FCS lane %d", want, lane)
		}
		out = append(out, p)
	}
	return out
}

// TestHeaderAppendMatchesReference holds the three ways into the one
// encoder — a prepared Header, AppendFrame, and (through the body
// builder's own header) the byte-at-a-time ReferenceEncode — to the
// same wire image, over every head the config can produce and every
// tail the FCS can.
func TestHeaderAppendMatchesReference(t *testing.T) {
	corpus := [][]byte{
		nil,
		{0x00},
		{0x7E},
		{0x7D, 0x7D},
		{0x41, 0x7D},
		{0x7E, 0x7D, 0x03, 0x13, 0x11},
		bytes.Repeat([]byte{0x7E}, 100),
		bytes.Repeat([]byte{0x03, 0x7E}, 33),
		append(bytes.Repeat([]byte{0x42}, 63), 0x7D, 0x42, 0x7E),
		bytes.Repeat([]byte{0x55, 0x7E}, 750), // 50% escapes: the block path
	}
	sparse := bytes.Repeat(append(bytes.Repeat([]byte{0x55}, 49), 0x7E), 30) // 2%: the span path
	corpus = append(corpus, sparse[:40], sparse[:64], sparse)
	protos := []uint16{ProtoIPv4, ProtoIPv6, ProtoLCP, ProtoIPCP, ProtoVJC, 0x00FD}
	n := 0
	for mask := 0; mask < 16; mask++ {
		for _, accm := range []hdlc.ACCM{hdlc.ACCMNone, hdlc.ACCMAll, 1 << CtrlUI} {
			for _, proto := range protos {
				cfg := Config{ACFC: mask&1 != 0, PFC: mask&2 != 0, ACCM: accm}
				if mask&4 != 0 {
					cfg.Address = 0x0B // a MAPOS unicast address
				}
				if mask&8 != 0 {
					cfg.FCS = crc.FCS16Mode
				}
				payloads := corpus
				for _, want := range []byte{hdlc.Flag, hdlc.Escape, CtrlUI} {
					payloads = append(payloads, tailPayloads(t, cfg, proto, []byte{0x45, 0x00}, want)...)
				}
				hdr := cfg.Header(proto)
				for _, p := range payloads {
					fr := &Frame{Protocol: proto, Payload: p}
					for _, prior := range [][]byte{nil, {hdlc.Flag}, {0x55}} {
						for _, share := range []bool{false, true} {
							ref := ReferenceEncode(bytes.Clone(prior), fr, cfg, share)
							got := hdr.Append(bytes.Clone(prior), p, share)
							af := AppendFrame(bytes.Clone(prior), fr, cfg, share)
							if !bytes.Equal(ref, got) || !bytes.Equal(ref, af) {
								t.Fatalf("cfg=%+v proto=%#04x len=%d prior=% x share=%t:\nref    % x\nheader % x\nframe  % x",
									cfg, proto, len(p), prior, share, ref, got, af)
							}
							n++
						}
					}
				}
			}
		}
	}
	t.Logf("%d encodings compared", n)
}

// TestAppendFramedRawHead: the raw-head wrapper takes any head of up to
// four octets — numbered mode sends address and an I/S/U control octet,
// no protocol field — and refuses a longer one.
func TestAppendFramedRawHead(t *testing.T) {
	payload := []byte{0x7E, 1, 2, 3}
	for _, fcs := range []crc.Size{crc.FCS16Mode, crc.FCS32Mode} {
		for n := 0; n <= 4; n++ {
			hdr := []byte{0xFF, 0x7D, 0x13, 0x7E}[:n]
			body := fcs.Append(append(bytes.Clone(hdr), payload...))
			ref := hdlc.ReferenceEncode(nil, body, hdlc.ACCMAll, false)
			if got := AppendFramed(nil, hdr, payload, fcs, hdlc.ACCMAll, false); !bytes.Equal(got, ref) {
				t.Errorf("%v, %d-octet head:\nref % x\ngot % x", fcs, n, ref, got)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a five-octet head did not panic")
		}
	}()
	AppendFramed(nil, make([]byte, 5), payload, crc.FCS32Mode, hdlc.ACCMNone, false)
}

// TestFusedPathZeroAlloc pins the zero-allocation invariant of the
// steady-state encode and decode fast paths: once dst, the arena and
// the frame struct are warm, Header.Append, its two wrappers,
// Tokenizer.Feed and DecodeBodyInto must not allocate. From 64 octets
// the payloads are long enough for the wide FCS fold, whose stdlib
// dispatch makes whatever it is handed escape: the head the wrappers
// assemble, and the Header they prepare from it, live in their stack
// frames and must not reach it. Every fourth octet is a flag, so the
// FCS tail and the escaped-word path of stuffWord are exercised too.
func TestFusedPathZeroAlloc(t *testing.T) {
	cfg := Config{ACCM: hdlc.ACCMNone}
	var body []byte
	for _, n := range []int{40, 64, 1500} {
		payload := bytes.Repeat([]byte{0x17, 0x7E, 0x42, 0x55}, 375)[:n]
		fr := Frame{Protocol: ProtoIPv4, Payload: payload}
		dst := AppendFrame(nil, &fr, cfg, false) // size the buffer
		hdr := cfg.Header(ProtoIPv4)
		raw := []byte{AddrAllStations, CtrlUI, 0x00, ProtoIPv4}
		for _, enc := range []struct {
			name string
			f    func()
		}{
			{"Header.Append", func() { dst = hdr.Append(dst[:0], payload, false) }},
			{"AppendFrame", func() { dst = AppendFrame(dst[:0], &fr, cfg, false) }},
			{"AppendFramed", func() { dst = AppendFramed(dst[:0], raw, payload, crc.FCS32Mode, hdlc.ACCMAll, false) }},
		} {
			if allocs := testing.AllocsPerRun(100, enc.f); allocs != 0 {
				t.Errorf("%s, %d octets: %.1f allocs/op, want 0", enc.name, n, allocs)
			}
		}
		dst = AppendFrame(dst[:0], &fr, cfg, false)

		// One frame straddling two chunks: the frame check folds the
		// arena at the closing flag, in the second Feed.
		tk := hdlc.Tokenizer{FCS: cfg.fcs()}
		var toks []hdlc.Token
		feed := func() {
			toks = tk.Feed(toks[:0], dst[:len(dst)/2])
			toks = tk.Feed(toks, dst[len(dst)/2:])
		}
		feed() // grow the arena
		if allocs := testing.AllocsPerRun(100, feed); allocs != 0 {
			t.Errorf("Tokenizer.Feed, %d octets: %.1f allocs/op, want 0", n, allocs)
		}
		if len(toks) != 1 || toks[0].Err != nil || !toks[0].FCSOK {
			t.Fatalf("tokens = %+v", toks)
		}
		body = toks[0].Body
	}

	var out Frame
	if allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeBodyInto(&out, body, cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DecodeBodyInto: %.1f allocs/op, want 0", allocs)
	}
}
