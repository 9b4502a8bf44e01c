package hdlc

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
)

// wordSorter is one word path: a transmit and a receive sorter.
type wordSorter struct {
	name    string
	stuff   func(dst, src []byte, m ACCM) int
	destuff func(dst, src []byte, pend uint64) (int, uint64)
}

// wordSorters are the word paths this build can run, each against the
// same input: the portable sorters always, and the SIMD sorter where
// the CPU has it (stuffBlock and destuffBlock then dispatch to it).
func wordSorters() []wordSorter {
	s := []wordSorter{{"go", stuffWords, destuffWords}}
	if sorter {
		s = append(s, wordSorter{"simd", sortStuff, sortDestuff})
	}
	return s
}

// TestSorterLanePatterns runs both sorters over every 8-lane pattern of
// octets to escape (transmit) and of 0x7D octets (receive, with an
// escape pending into the word or not), with the pattern in the low
// and the high half of a 16-octet load, in a lone last word and ahead
// of a sub-word tail, under an empty, a holed and a full map. Each
// must give what Stuff and destuff give, octet for octet, and so must
// stuffBlock and destuffBlock, which dispatch between them.
func TestSorterLanePatterns(t *testing.T) {
	if !sorter {
		t.Log("no SIMD sorter in this build or on this CPU: the portable sorters only")
	}
	const ctl = ACCM(0x000A0001) // NUL, DC1, DC3: a map with holes
	rng := rand.New(rand.NewSource(37))
	pick := func(set []byte) byte { return set[rng.Intn(len(set))] }
	word := func(e int, marked, plain []byte) []byte {
		w := make([]byte, 8)
		for i := range w {
			if w[i] = pick(plain); e>>i&1 != 0 {
				w[i] = pick(marked)
			}
		}
		return w
	}
	for _, m := range []ACCM{ACCMNone, ctl, ACCMAll} {
		var marked, plain []byte
		for c := 0; c < 256; c++ {
			if m.Escaped(byte(c)) {
				marked = append(marked, byte(c))
			} else {
				plain = append(plain, byte(c))
			}
		}
		for e := 0; e < 256; e++ {
			for trial := 0; trial < 4; trial++ {
				// e in the low half, its reverse in the high half, e in
				// a lone last word, and 0–7 tail octets.
				src := word(e, marked, plain)
				src = append(src, word(int(bits.Reverse8(uint8(e))), marked, plain)...)
				src = append(src, word(e, marked, plain)...)
				src = append(src, word(rng.Intn(256), marked, plain)[:trial*2]...)
				want := Stuff(nil, src, m)
				words := len(src) &^ 7
				wantWords := Stuff(nil, src[:words], m)
				for _, s := range wordSorters() {
					dst := make([]byte, 2*words)
					if n := s.stuff(dst, src[:words], m); !bytes.Equal(dst[:n], wantWords) {
						t.Fatalf("%s stuff(% x, %#x)\n got % x\nwant % x", s.name, src[:words], m, dst[:n], wantWords)
					}
				}
				if got := stuffBlock([]byte{Flag}, src, m); !bytes.Equal(got[1:], want) {
					t.Fatalf("stuffBlock(% x, %#x)\n got % x\nwant % x", src, m, got[1:], want)
				}
			}
		}
	}

	notEsc := []byte{0x00, 0x11, 0x20, 0x55, 0x5D, 0x5E, 0x7C, 0x7F, 0xFD, 0xFF}
	for e := 0; e < 256; e++ {
		for pin := 0; pin < 2; pin++ {
			for trial := 0; trial < 4; trial++ {
				src := word(e, []byte{Escape}, notEsc)
				src = append(src, word(int(bits.Reverse8(uint8(e))), []byte{Escape}, notEsc)...)
				src = append(src, word(e, []byte{Escape}, notEsc)...)
				src = append(src, word(rng.Intn(256), []byte{Escape}, notEsc)[:trial*2]...)
				want, wantEsc := destuff(nil, src, pin == 1)
				words := len(src) &^ 7
				wantWords, wantPend := destuff(nil, src[:words], pin == 1)
				for _, s := range wordSorters() {
					dst := make([]byte, words)
					n, pend := s.destuff(dst, src[:words], uint64(pin))
					if !bytes.Equal(dst[:n], wantWords) || (pend != 0) != wantPend || pend > 1 {
						t.Fatalf("%s destuff(% x, pending %d)\n got % x pending %d\nwant % x pending %t",
							s.name, src[:words], pin, dst[:n], pend, wantWords, wantPend)
					}
				}
				got, esc := destuffBlock([]byte{0x42}, src, pin == 1)
				if !bytes.Equal(got[1:], want) || esc != wantEsc {
					t.Fatalf("destuffBlock(% x, %t)\n got % x %t\nwant % x %t", src, pin == 1, got[1:], esc, want, wantEsc)
				}
			}
		}
	}
}

// TestSorterEscapeRuns holds the receive sorter to destuff on runs of
// 0x7D of every length 0…40, starting at every offset 0…23 of a 64-octet
// input, with and without an escape pending in, split into two calls at
// every point: a run's parity decides which of its octets are escapes,
// and the run crosses word, load and call boundaries.
func TestSorterEscapeRuns(t *testing.T) {
	src := make([]byte, 64)
	var got []byte
	for l := 0; l <= 40; l++ {
		for off := 0; off < 24; off++ {
			for i := range src {
				src[i] = 0x30 + byte(i)
				if i >= off && i < off+l {
					src[i] = Escape
				}
			}
			for pin := 0; pin < 2; pin++ {
				want, wantEsc := destuff(nil, src, pin == 1)
				for cut := 0; cut <= len(src); cut++ {
					var esc bool
					got, esc = destuffBlock(got[:0], src[:cut], pin == 1)
					got, esc = destuffBlock(got, src[cut:], esc)
					if !bytes.Equal(got, want) || esc != wantEsc {
						t.Fatalf("run of %d at %d, pending %d, cut at %d:\n got % x %t\nwant % x %t",
							l, off, pin, cut, got, esc, want, wantEsc)
					}
				}
				words := len(src) &^ 7
				for _, s := range wordSorters() {
					dst := make([]byte, words)
					n, pend := s.destuff(dst, src[:words], uint64(pin))
					w, wp := destuff(nil, src[:words], pin == 1)
					if !bytes.Equal(dst[:n], w) || (pend != 0) != wp {
						t.Fatalf("%s: run of %d at %d, pending %d: got % x %d, want % x %t", s.name, l, off, pin, dst[:n], pend, w, wp)
					}
				}
			}
		}
	}
}
