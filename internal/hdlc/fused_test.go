package hdlc

import (
	"bytes"
	"testing"

	"repro/internal/crc"
)

func TestDelimiterSpan(t *testing.T) {
	cases := []struct {
		in   []byte
		want int
	}{
		{nil, 0},
		{[]byte{0x7E}, 0},
		{[]byte{0x7D}, 0},
		{[]byte{1, 2, 3}, 3},
		{[]byte{1, 2, 0x7E, 4}, 2},
		{[]byte{1, 2, 0x7D, 4}, 2},
		{append(bytes.Repeat([]byte{0x55}, 16), 0x7E), 16},
		{append(bytes.Repeat([]byte{0x55}, 11), 0x7D, 0x7E), 11},
		{bytes.Repeat([]byte{0x55}, 23), 23},
	}
	for _, c := range cases {
		if got := DelimiterSpan(c.in); got != c.want {
			t.Errorf("DelimiterSpan(% x) = %d, want %d", c.in, got, c.want)
		}
	}
	// Exhaustive single-delimiter positions across word boundaries.
	for pos := 0; pos < 40; pos++ {
		for _, d := range []byte{Flag, Escape} {
			in := bytes.Repeat([]byte{0xAA}, 40)
			in[pos] = d
			if got := DelimiterSpan(in); got != pos {
				t.Fatalf("DelimiterSpan with %#02x at %d = %d", d, pos, got)
			}
		}
	}
}

// TestTokenizerFusedFCS pins the fused frame-check verdict: intact frames
// carry FCSOK=true, any corruption or an unarmed tokenizer yields false,
// and nothing carries over across frames, aborts and chunk splits.
func TestTokenizerFusedFCS(t *testing.T) {
	for _, mode := range []crc.Size{crc.FCS16Mode, crc.FCS32Mode} {
		body := mode.Append([]byte{0xFF, 0x03, 0x00, 0x21, 0x7E, 0x7D, 9})
		wire := ReferenceEncode(nil, body, ACCMNone, false)

		tk := Tokenizer{FCS: mode}
		toks := tk.Feed(nil, wire)
		if len(toks) != 1 || toks[0].Err != nil {
			t.Fatalf("%v: got %+v", mode, toks)
		}
		if !toks[0].FCSOK {
			t.Fatalf("%v: intact frame has FCSOK=false", mode)
		}
		if !bytes.Equal(toks[0].Body, body) {
			t.Fatalf("%v: body % x, want % x", mode, toks[0].Body, body)
		}

		// Same wire bytes, byte-at-a-time chunks: the verdict must
		// survive arbitrary splits.
		tk = Tokenizer{FCS: mode}
		toks = toks[:0]
		for _, b := range wire {
			toks = tk.Feed(toks, []byte{b})
		}
		if len(toks) != 1 || !toks[0].FCSOK {
			t.Fatalf("%v: chunked feed lost the verdict: %+v", mode, toks)
		}

		// Corrupt one payload byte (avoiding delimiter octets).
		badBody := bytes.Clone(body)
		badBody[6] ^= 0x01
		bad := ReferenceEncode(nil, badBody, ACCMNone, false)
		tk = Tokenizer{FCS: mode}
		toks = tk.Feed(toks[:0], bad)
		if len(toks) != 1 || toks[0].Err != nil || toks[0].FCSOK {
			t.Fatalf("%v: corrupted frame not flagged: %+v", mode, toks)
		}

		// A bad frame must not poison the next frame's verdict: abort,
		// then the intact frame again.
		tk = Tokenizer{FCS: mode}
		stream := append([]byte{0x7E, 1, 2, 0x7D, 0x7E}, wire...)
		toks = tk.Feed(toks[:0], stream)
		if len(toks) != 2 || toks[0].Err != ErrAborted || toks[1].Err != nil || !toks[1].FCSOK {
			t.Fatalf("%v: verdict after abort wrong: %+v", mode, toks)
		}
	}

	// Frames long enough for the wide fold (≥ 64 octets): the verdict
	// is taken over the arena at the closing flag, so it must not care
	// how the stream was chunked — whole, an octet at a time, or cut
	// inside the FCS field — nor what the tokenizer discarded before
	// the frame (an oversize frame, an abort).
	payload := make([]byte, 1500)
	for i := range payload {
		payload[i] = byte(i * 7) // 0x7D/0x7E every 256 octets
	}
	for _, mode := range []crc.Size{crc.FCS16Mode, crc.FCS32Mode} {
		for _, n := range []int{64, 1500} {
			body := mode.Append(append([]byte{0xFF, 0x03, 0x00, 0x21}, payload[:n]...))
			wire := ReferenceEncode(nil, body, ACCMNone, false)
			perOctet := make([]int, len(wire))
			for i := range perOctet {
				perOctet[i] = i + 1
			}
			for name, cuts := range map[string][]int{
				"whole":      {len(wire)},
				"cut in FCS": {len(wire) - 1 - mode.Bytes()/2, len(wire)},
				"per octet":  perOctet,
			} {
				tk := Tokenizer{FCS: mode}
				var got []Token
				off := 0
				for _, c := range cuts {
					for _, tok := range tk.Feed(nil, wire[off:c]) {
						tok.Body = bytes.Clone(tok.Body)
						got = append(got, tok)
					}
					off = c
				}
				if len(got) != 1 || got[0].Err != nil || !got[0].FCSOK || !bytes.Equal(got[0].Body, body) {
					t.Fatalf("%v %d octets, %s: wrong token (%d tokens)", mode, n, name, len(got))
				}
			}

			bad := bytes.Clone(body)
			bad[len(bad)/2] ^= 0x01
			tk := Tokenizer{FCS: mode}
			if toks := tk.Feed(nil, ReferenceEncode(nil, bad, ACCMNone, false)); len(toks) != 1 || toks[0].Err != nil || toks[0].FCSOK {
				t.Fatalf("%v %d octets: corrupted frame not flagged", mode, n)
			}

			// Oversize, then abort, then the good frame on shared flags.
			tk = Tokenizer{FCS: mode, MaxFrame: len(body)}
			stream := ReferenceEncode(nil, append(bytes.Clone(body), 0), ACCMNone, false)
			stream = append(Stuff(stream, body[:len(body)-1], ACCMNone), Escape)
			stream = append(stream, wire...)
			toks := tk.Feed(nil, stream)
			if len(toks) != 3 || toks[0].Err != errOversize || toks[1].Err != ErrAborted ||
				toks[2].Err != nil || !toks[2].FCSOK || !bytes.Equal(toks[2].Body, body) {
				t.Fatalf("%v %d octets: after oversize and abort: %d tokens, errs %v %v", mode, n, len(toks), toks[0].Err, toks[1].Err)
			}
		}
	}

	// Unarmed tokenizer: verdict stays false, everything else unchanged.
	body := crc.FCS32Mode.Append([]byte{0xFF, 0x03, 0x00, 0x21, 9})
	var tk Tokenizer
	toks := tk.Feed(nil, ReferenceEncode(nil, body, ACCMNone, false))
	if len(toks) != 1 || toks[0].Err != nil || toks[0].FCSOK {
		t.Fatalf("unarmed tokenizer: %+v", toks)
	}
}
