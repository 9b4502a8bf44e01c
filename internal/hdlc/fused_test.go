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
// and the streaming register resets across frames, aborts and chunk
// splits.
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

		// Same wire bytes, byte-at-a-time chunks: the register must
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

		// A bad frame must not poison the next frame's register: abort,
		// then the intact frame again.
		tk = Tokenizer{FCS: mode}
		stream := append([]byte{0x7E, 1, 2, 0x7D, 0x7E}, wire...)
		toks = tk.Feed(toks[:0], stream)
		if len(toks) != 2 || toks[0].Err != ErrAborted || toks[1].Err != nil || !toks[1].FCSOK {
			t.Fatalf("%v: verdict after abort wrong: %+v", mode, toks)
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
