package hdlc

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crc"
)

// FuzzTokenizer feeds arbitrary line bytes; the tokenizer must never
// panic, and every token body must re-encode to a stream that yields
// the same body back.
func FuzzTokenizer(f *testing.F) {
	f.Add([]byte{0x7E, 1, 2, 3, 0x7E})
	f.Add([]byte{0x7E, 0x7D, 0x5E, 0x7E})
	f.Add([]byte{0x7D, 0x7E})
	f.Add(bytes.Repeat([]byte{0x7E}, 32))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		var tk Tokenizer
		toks := tk.Feed(nil, stream)
		for _, tok := range toks {
			if tok.Err != nil {
				continue
			}
			re := ReferenceEncode(nil, tok.Body, ACCMNone, false)
			var tk2 Tokenizer
			toks2 := tk2.Feed(nil, re)
			if len(toks2) != 1 || toks2[0].Err != nil || !bytes.Equal(toks2[0].Body, tok.Body) {
				t.Fatalf("re-encode mismatch for body % x", tok.Body)
			}
		}
	})
}

// FuzzFusedDecode is the receive-side differential fuzzer, the twin of
// ppp.FuzzFusedEncode: the block-kernel Tokenizer with its one wide FCS
// fold per frame and the retained byte-at-a-time ReferenceTokenizer with
// its per-octet check must produce identical
// token sequences — bodies, errors, FCS verdicts — and identical
// OAM counters for any wire bytes, any chunk split, and any FCS mode.
func FuzzFusedDecode(f *testing.F) {
	good := crc.FCS32Mode.Append([]byte{0xFF, 0x03, 0x00, 0x21, 1, 2, 3})
	f.Add(ReferenceEncode(nil, good, ACCMNone, false), 3, byte(2))
	f.Add(bytes.Repeat([]byte{0x7D}, 48), 1, byte(1))             // all-escape
	f.Add(bytes.Repeat([]byte{0x7E}, 48), 5, byte(2))             // flag-storm
	f.Add([]byte{0x7E, 0x7D, 0x7E, 0x7E, 0x01, 0x7E}, 2, byte(0)) // abort, runt
	f.Add([]byte{0x7E, 1, 2, 3}, 1, byte(3))                      // unterminated
	// Intact frames on both sides of the wide-fold threshold, cut where
	// the frame straddles chunks.
	for _, n := range []int{59, 60, 61, 1500} {
		long := crc.FCS32Mode.Append(bytes.Repeat([]byte{0x21, 0x7D, 0x45, 0x00}, n)[:n])
		f.Add(ReferenceEncode(nil, long, ACCMNone, false), 37, byte(2))
	}
	// Block edges, counted from the chunk start, where the block kernel
	// cuts: a delimiter as octet 63/64/65; 7D ending a block with 7D or
	// 7E opening the next (escaped escape, abort); a flag inside a
	// dirty block; a chunk boundary mid-block; an oversize frame crossing
	// a block; a dense block run that turns sparse.
	for _, at := range []int{63, 64, 65} {
		for _, d := range []byte{Flag, Escape} {
			s := bytes.Repeat([]byte{0x42}, 200)
			s[0], s[at], s[199] = Flag, d, Flag
			f.Add(s, 200, byte(0))
		}
	}
	for _, next := range []byte{Escape, Flag, 0x5E} {
		s := bytes.Repeat([]byte{0x42}, 200)
		s[0], s[63], s[64], s[199] = Flag, Escape, next, Flag
		f.Add(s, 200, byte(4))
		f.Add(s, 64, byte(4))
	}
	dirty := bytes.Repeat([]byte{0x42}, 300)
	dirty[0], dirty[10], dirty[20], dirty[30], dirty[40], dirty[299] = Flag, Escape, Flag, Escape, Flag, Flag
	f.Add(dirty, 100, byte(2))
	f.Add(dirty, 70, byte(8)) // MaxFrame 40 crosses the first block
	f.Add(ReferenceEncode(nil, bytes.Repeat([]byte{0x42}, 150), ACCMNone, false), 300, byte(8))
	dense := append(bytes.Repeat([]byte{Flag, Escape, 0x42}, 60), bytes.Repeat([]byte{0x42}, 200)...)
	f.Add(ReferenceEncode(nil, crc.FCS32Mode.Append(dense), ACCMNone, false), 500, byte(2))
	// A dense block that destuffs to exactly MaxFrame (40) with an escape
	// pending on its last octet: the octet it protects is the 41st, and
	// the flag after it must report errOversize.
	over := append([]byte{Flag}, bytes.Repeat([]byte{Escape, 0x5E}, 23)...)
	over = append(append(over, bytes.Repeat([]byte{0x42}, 17)...), Escape, 0x5E, Flag)
	f.Add(over, 67, byte(8))
	f.Add(over, 200, byte(8))
	f.Add(ReferenceEncode(nil, crc.FCS32Mode.Append(random2(1500, 1)), ACCMNone, false), 1600, byte(2))
	f.Add(ReferenceEncode(nil, crc.FCS32Mode.Append(random2(1500, 2)), ACCMNone, false), 777, byte(6))
	f.Fuzz(func(t *testing.T, stream []byte, chunk int, mode byte) {
		if chunk <= 0 {
			chunk = 1
		}
		var cfg Tokenizer
		switch mode & 3 {
		case 1:
			cfg.FCS = crc.FCS16Mode
		case 2, 3:
			cfg.FCS = crc.FCS32Mode
		}
		if mode&4 != 0 {
			cfg.MinFrame = 5
		}
		if mode&8 != 0 {
			cfg.MaxFrame = 40
		}
		fused := cfg
		ref := ReferenceTokenizer{Tokenizer: cfg}

		type rec struct {
			body  []byte
			err   error
			fcsOK bool
		}
		var got, want []rec
		var toks []Token
		// Fused tokenizer sees the fuzzer's chunking; the reference sees
		// the whole stream at once. Token sequences must not depend on
		// where chunks split (bodies are copied out before the arena is
		// recycled by the next Feed).
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			toks = fused.Feed(toks[:0], stream[off:end])
			for _, tok := range toks {
				got = append(got, rec{bytes.Clone(tok.Body), tok.Err, tok.FCSOK})
			}
		}
		for _, tok := range ref.Feed(nil, stream) {
			want = append(want, rec{bytes.Clone(tok.Body), tok.Err, tok.FCSOK})
		}

		if len(got) != len(want) {
			t.Fatalf("token count divergence: fused %d, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i].err != want[i].err || got[i].fcsOK != want[i].fcsOK ||
				!bytes.Equal(got[i].body, want[i].body) {
				t.Fatalf("token %d divergence: fused {% x %v %v}, reference {% x %v %v}",
					i, got[i].body, got[i].err, got[i].fcsOK,
					want[i].body, want[i].err, want[i].fcsOK)
			}
			if got[i].err == nil && cfg.FCS != 0 {
				// Not cfg.FCS.Check: that is the wide kernel the fused
				// verdict came from.
				if check := referenceCheck(cfg.FCS, got[i].body); check != got[i].fcsOK {
					t.Fatalf("token %d fused verdict %v contradicts the per-octet residue %v for % x",
						i, got[i].fcsOK, check, got[i].body)
				}
			}
		}
		if fused.Aborts != ref.Aborts || fused.Runts != ref.Runts || fused.Oversize != ref.Oversize {
			t.Fatalf("counter divergence: fused %d/%d/%d, reference %d/%d/%d",
				fused.Aborts, fused.Runts, fused.Oversize,
				ref.Aborts, ref.Runts, ref.Oversize)
		}
	})
}

// FuzzDestuffConsistency: the byte-serial destuff is the oracle for the
// block destuffer on any input, chunked anywhere.
func FuzzDestuffConsistency(f *testing.F) {
	f.Add([]byte{0x7D, 0x5E, 0x11}, 1)
	f.Add([]byte{0x7D}, 3)
	f.Add(bytes.Repeat([]byte{0x7D, 0x5D}, 9), 5)
	// Escapes at and across block and chunk edges.
	for _, at := range []int{63, 64, 65} {
		s := bytes.Repeat([]byte{0x42}, 130)
		s[at] = Escape
		f.Add(s, 64)
		f.Add(s, at)
	}
	f.Add(append(bytes.Repeat([]byte{0x42}, 63), Escape, Escape, 0x42), 64)
	f.Add(Stuff(nil, random2(1500, 3), ACCMNone), 100)
	f.Fuzz(func(t *testing.T, src []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		a, ea := destuff(nil, src, false)
		var b []byte
		eb := false
		for off := 0; off < len(src); off += chunk {
			end := off + chunk
			if end > len(src) {
				end = len(src)
			}
			b, eb = destuffBlock(b, src[off:end], eb)
		}
		if ea != eb || !bytes.Equal(a, b) {
			t.Fatalf("destuff divergence on % x (chunk %d)", src, chunk)
		}
	})
}

// random2 returns n octets of which 2 %, at positions drawn from seed,
// are flags or escapes: the link_mtu layout.
func random2(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	for i := range p {
		switch {
		case rng.Intn(50) == 0:
			p[i] = Flag - byte(rng.Intn(2))
		default:
			p[i] = byte(rng.Intn(0x7D))
		}
	}
	return p
}
