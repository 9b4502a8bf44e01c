package hdlc

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStuffPaperExample(t *testing.T) {
	// Paper §2: 0x31 0x33 0x7E 0x96 → 0x31 0x33 0x7D 0x5E 0x96.
	got := Stuff(nil, []byte{0x31, 0x33, 0x7E, 0x96}, ACCMNone)
	want := []byte{0x31, 0x33, 0x7D, 0x5E, 0x96}
	if !bytes.Equal(got, want) {
		t.Errorf("Stuff = % x, want % x", got, want)
	}
}

func TestStuffEscapesEscape(t *testing.T) {
	got := Stuff(nil, []byte{0x7D}, ACCMNone)
	want := []byte{0x7D, 0x5D}
	if !bytes.Equal(got, want) {
		t.Errorf("Stuff(7D) = % x, want % x", got, want)
	}
}

func TestACCMEscaped(t *testing.T) {
	if !ACCMNone.Escaped(Flag) || !ACCMNone.Escaped(Escape) {
		t.Error("flag/escape must always be escaped")
	}
	if ACCMNone.Escaped(0x03) {
		t.Error("ACCMNone must not escape control chars")
	}
	if !ACCMAll.Escaped(0x03) || !ACCMAll.Escaped(0x1F) {
		t.Error("ACCMAll must escape all control chars")
	}
	if ACCMAll.Escaped(0x20) {
		t.Error("0x20 is not a control char")
	}
	m := ACCM(1 << 0x11) // only XON-ish char 0x11
	if !m.Escaped(0x11) || m.Escaped(0x13) {
		t.Error("selective ACCM mapping wrong")
	}
}

func TestStuffDestuffRoundTrip(t *testing.T) {
	f := func(p []byte, m uint32) bool {
		accm := ACCM(m)
		enc := Stuff(nil, p, accm)
		dec, esc := destuff(nil, enc, false)
		return !esc && bytes.Equal(dec, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSWARMatchesByteAtATime(t *testing.T) {
	f := func(p []byte, m uint32) bool {
		accm := ACCM(m)
		want := Stuff(nil, p, accm)
		return bytes.Equal(want, stuffBlock(nil, p, accm))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendStuffedMatchesByteAtATime(t *testing.T) {
	// The block kernel against Stuff: every map shape, over payloads
	// from one octet short of a block to three blocks, with escapable
	// octets drawn from the neighbourhood of each value (the borrow
	// chains 7E 7F and 7D 7C among them) at densities that take both the
	// bit walk and the dense word path, appended after a prefix.
	rng := rand.New(rand.NewSource(5))
	alphabet := []byte{Flag, Escape, 0x7C, 0x7F, 0x00, 0x01, 0x11, 0x1F, 0x20, 0x5E}
	for trial := 0; trial < 3000; trial++ {
		accm := []ACCM{ACCMNone, ACCMAll, 0x000A0001}[trial%3]
		p := bytes.Repeat([]byte{0x55}, BlockOctets-1+rng.Intn(2*BlockOctets+2))
		for n := rng.Intn(1 + len(p)*rng.Intn(4)/8); n > 0; n-- {
			p[rng.Intn(len(p))] = alphabet[rng.Intn(len(alphabet))]
		}
		prefix := []byte{Flag, 0xFF}
		want := Stuff(bytes.Clone(prefix), p, accm)
		if got := AppendStuffed(bytes.Clone(prefix), p, accm); !bytes.Equal(got, want) {
			t.Fatalf("AppendStuffed(% x, %#x)\n got % x\nwant % x", p, accm, got, want)
		}
	}
}

func TestDestuffBlockMatches(t *testing.T) {
	f := func(p []byte) bool {
		enc := Stuff(nil, p, ACCMAll)
		a, ea := destuff(nil, enc, false)
		b, eb := destuffBlock(nil, enc, false)
		return ea == eb && bytes.Equal(a, b) && bytes.Equal(a, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestuffBlockChunked(t *testing.T) {
	// Streaming state must survive arbitrary chunk splits, including a
	// split straight through an escape sequence.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		p := make([]byte, 1+rng.Intn(200))
		for i := range p {
			// Bias toward escapes and flags.
			switch rng.Intn(3) {
			case 0:
				p[i] = Flag
			case 1:
				p[i] = Escape
			default:
				p[i] = byte(rng.Intn(256))
			}
		}
		enc := Stuff(nil, p, ACCMNone)
		var dec []byte
		esc := false
		for off := 0; off < len(enc); {
			n := 1 + rng.Intn(24)
			if off+n > len(enc) {
				n = len(enc) - off
			}
			dec, esc = destuffBlock(dec, enc[off:off+n], esc)
			off += n
		}
		if esc || !bytes.Equal(dec, p) {
			t.Fatalf("trial %d: chunked destuff mismatch", trial)
		}
	}
}

// TestLaneMasksExact pins the lane-mask contract the block kernels rely
// on: for every adjacent-octet pair, repeated across the word so each
// lane has the other octet below it, zeroLanes, matchLanes, delimLanes
// and escLanes mark exactly the matching lanes; and blockMaps, with the
// pair at every octet position of a block of filler, sets exactly the
// bits of the octets to escape. The borrowing form of the zero test
// fails here on 7E 7F, 7D 7C and 00 01.
func TestLaneMasksExact(t *testing.T) {
	const ctl = ACCM(0x000A0001) // NUL, DC1, DC3: a map with holes
	laneMask := func(w [8]byte, match func(byte) bool) (m uint64) {
		for i, b := range w {
			if match(b) {
				m |= 0x80 << (8 * uint(i))
			}
		}
		return m
	}
	for pair := 0; pair < 1<<16; pair++ {
		a, b := byte(pair), byte(pair>>8)
		w := [8]byte{a, b, a, b, b, a, b, a}
		x := binary.LittleEndian.Uint64(w[:])
		for _, tc := range []struct {
			name string
			got  uint64
			want func(byte) bool
		}{
			{"zeroLanes", zeroLanes(x), func(c byte) bool { return c == 0 }},
			{"matchLanes(Flag)", matchLanes(x, Flag), func(c byte) bool { return c == Flag }},
			{"matchLanes(Escape)", matchLanes(x, Escape), func(c byte) bool { return c == Escape }},
			{"delimLanes", delimLanes(x), ACCMNone.Escaped},
			{"escLanes(ACCMNone)", escLanes(x, ACCMNone), ACCMNone.Escaped},
			{"escLanes(ctl)", escLanes(x, ctl), ctl.Escaped},
		} {
			if want := laneMask(w, tc.want); tc.got != want {
				t.Fatalf("%s(% x) = %016x, want %016x", tc.name, w, tc.got, want)
			}
		}
	}

	var blk [BlockOctets]byte
	var maps [mapBlocks]uint64
	for i := range blk {
		blk[i] = 0x55
	}
	for pair := 0; pair < 1<<16; pair++ {
		a, b := byte(pair), byte(pair>>8)
		for pos := 0; pos+1 < BlockOctets; pos++ {
			blk[pos], blk[pos+1] = a, b
			for _, m := range []ACCM{ACCMNone, ctl} {
				var want uint64
				if m.Escaped(a) {
					want |= 1 << pos
				}
				if m.Escaped(b) {
					want |= 2 << pos
				}
				if blockMaps(&maps, blk[:], m); maps[0] != want {
					t.Fatalf("blockMaps(%02x %02x at %d, %#x) = %016x, want %016x", a, b, pos, m, maps[0], want)
				}
			}
			blk[pos], blk[pos+1] = 0x55, 0x55
		}
	}
}

// TestBlockMapsExact holds blockMaps to the byte-wise definition
// across blocks and alignments: every length 0…1100 (past mapBlocks
// whole blocks), at every start offset 0…15 inside a larger buffer, at
// a random density per input, under ACCMNone and a holed map. Every
// returned map must equal ACCM.Escaped octet by octet, the count must
// be min(whole blocks, mapBlocks) or the first dense block's index + 1,
// and no map past the count may be written.
func TestBlockMapsExact(t *testing.T) {
	const ctl = ACCM(0x000A0001) // NUL, DC1, DC3: a map with holes
	const sentinel = 0x5A5A5A5A5A5A5A5A
	marked := []byte{Flag, Escape, 0x7C, 0x7F, 0x00, 0x01, 0x11, 0x13, 0x5E, 0x5D}
	densities := []float64{0, 0.005, 0.02, 0.08, 0.12, 0.15, 0.3, 0.6}
	rng := rand.New(rand.NewSource(31))
	buf := make([]byte, 16+1100)
	var maps [mapBlocks]uint64
	for n := 0; n <= 1100; n++ {
		for align := 0; align < 16; align++ {
			src := buf[align : align+n]
			d := densities[rng.Intn(len(densities))]
			for i := range src {
				src[i] = byte(rng.Intn(256))
				if rng.Float64() < d {
					src[i] = marked[rng.Intn(len(marked))]
				}
			}
			for _, m := range []ACCM{ACCMNone, ctl} {
				for i := range maps {
					maps[i] = sentinel
				}
				got := blockMaps(&maps, src, m)
				want := min(n/BlockOctets, mapBlocks)
				for i := range want {
					var bm uint64
					for j, c := range src[i*BlockOctets : (i+1)*BlockOctets] {
						if m.Escaped(c) {
							bm |= 1 << j
						}
					}
					if maps[i] != bm {
						t.Fatalf("n=%d align=%d m=%#x: block %d map %016x, want %016x", n, align, m, i, maps[i], bm)
					}
					if bits.OnesCount64(bm) > denseBits {
						want = i + 1
						break
					}
				}
				if got != want {
					t.Fatalf("n=%d align=%d m=%#x: %d maps, want %d", n, align, m, got, want)
				}
				for i := got; i < mapBlocks; i++ {
					if maps[i] != sentinel {
						t.Fatalf("n=%d align=%d m=%#x: map %d past the count written", n, align, m, i)
					}
				}
			}
		}
	}
}

// TestFirstLaneExact is the sibling of TestLaneMasksExact for the span
// scanner, whose borrow-tolerant zero test (firstZero) promises only
// its lowest set lane: every adjacent-octet pair, placed at every lane
// position of a word of filler — so the pair that borrows (7E 7F,
// 7D 7C, 7D 7E) sits below, at and above the first real delimiter —
// must give the index the byte loop gives.
func TestFirstLaneExact(t *testing.T) {
	index := func(p []byte, match func(byte) bool) int {
		for i, b := range p {
			if match(b) {
				return i
			}
		}
		return -1
	}
	for pair := 0; pair < 1<<16; pair++ {
		a, b := byte(pair), byte(pair>>8)
		for lane := 0; lane < 8; lane++ {
			for _, fill := range []byte{0x00, 0x7F, 0x7C, 0xFF} {
				w := bytes.Repeat([]byte{fill}, 16)
				w[lane], w[lane+1] = a, b // lane 7 straddles the word boundary
				want := index(w, func(c byte) bool { return c == Flag || c == Escape })
				if want < 0 {
					want = len(w)
				}
				if got := DelimiterSpan(w); got != want {
					t.Fatalf("DelimiterSpan(% x) = %d, want %d", w, got, want)
				}
			}
		}
	}
}

func TestTokenizerBasic(t *testing.T) {
	var tk Tokenizer
	stream := ReferenceEncode(nil, []byte{1, 2, 3}, ACCMNone, false)
	stream = ReferenceEncode(stream, []byte{0x7E, 0x7D, 4}, ACCMNone, true)
	toks := tk.Feed(nil, stream)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens, want 2", len(toks))
	}
	if !bytes.Equal(toks[0].Body, []byte{1, 2, 3}) {
		t.Errorf("frame 0 = % x", toks[0].Body)
	}
	if !bytes.Equal(toks[1].Body, []byte{0x7E, 0x7D, 4}) {
		t.Errorf("frame 1 = % x", toks[1].Body)
	}
}

func TestTokenizerSplitAcrossFeeds(t *testing.T) {
	stream := ReferenceEncode(nil, bytes.Repeat([]byte{0x7E, 0x55}, 50), ACCMNone, false)
	for chunk := 1; chunk <= 7; chunk++ {
		var tk Tokenizer
		var toks []Token
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			toks = tk.Feed(toks, stream[off:end])
		}
		if len(toks) != 1 || toks[0].Err != nil {
			t.Fatalf("chunk %d: tokens %v", chunk, toks)
		}
		if !bytes.Equal(toks[0].Body, bytes.Repeat([]byte{0x7E, 0x55}, 50)) {
			t.Fatalf("chunk %d: body mismatch", chunk)
		}
	}
}

func TestTokenizerAbort(t *testing.T) {
	var tk Tokenizer
	stream := []byte{Flag, 1, 2, Escape, Flag, 3, 4, Flag}
	toks := tk.Feed(nil, stream)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens, want 2: %v", len(toks), toks)
	}
	if toks[0].Err != ErrAborted {
		t.Errorf("token 0 err = %v, want ErrAborted", toks[0].Err)
	}
	if toks[1].Err != nil || !bytes.Equal(toks[1].Body, []byte{3, 4}) {
		t.Errorf("token 1 = %+v", toks[1])
	}
	if tk.Aborts != 1 {
		t.Errorf("Aborts = %d", tk.Aborts)
	}
}

func TestTokenizerRunt(t *testing.T) {
	tk := Tokenizer{MinFrame: 5}
	toks := tk.Feed(nil, []byte{Flag, 1, 2, Flag, 1, 2, 3, 4, 5, Flag})
	if len(toks) != 2 || toks[0].Err != errRunt || toks[1].Err != nil {
		t.Fatalf("tokens = %+v", toks)
	}
	if tk.Runts != 1 {
		t.Errorf("Runts = %d", tk.Runts)
	}
}

func TestTokenizerOversize(t *testing.T) {
	tk := Tokenizer{MaxFrame: 10}
	body := bytes.Repeat([]byte{0x42}, 100)
	stream := ReferenceEncode(nil, body, ACCMNone, false)
	stream = ReferenceEncode(stream, []byte{1, 2, 3, 4, 5}, ACCMNone, true)
	toks := tk.Feed(nil, stream)
	if len(toks) != 2 || toks[0].Err != errOversize || toks[1].Err != nil {
		t.Fatalf("tokens = %+v", toks)
	}
	if tk.Oversize != 1 {
		t.Errorf("Oversize = %d", tk.Oversize)
	}
}

func TestTokenizerIgnoresInterFrameFill(t *testing.T) {
	var tk Tokenizer
	// Garbage before the first flag must be discarded silently.
	toks := tk.Feed(nil, []byte{0xAA, 0xBB, Flag, 1, 2, 3, Flag})
	if len(toks) != 1 || toks[0].Err != nil || !bytes.Equal(toks[0].Body, []byte{1, 2, 3}) {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestTokenizerBackToBackFlags(t *testing.T) {
	var tk Tokenizer
	toks := tk.Feed(nil, []byte{Flag, Flag, Flag, 1, 2, Flag, Flag})
	if len(toks) != 1 || !bytes.Equal(toks[0].Body, []byte{1, 2}) {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestEncodeSharedFlag(t *testing.T) {
	s := ReferenceEncode(nil, []byte{1}, ACCMNone, false)
	s2 := ReferenceEncode(s, []byte{2}, ACCMNone, true)
	// Shared flag: exactly one flag between the frames.
	want := []byte{Flag, 1, Flag, 2, Flag}
	if !bytes.Equal(s2, want) {
		t.Errorf("shared-flag stream = % x, want % x", s2, want)
	}
	s3 := ReferenceEncode(s, []byte{2}, ACCMNone, false)
	want3 := []byte{Flag, 1, Flag, Flag, 2, Flag}
	if !bytes.Equal(s3, want3) {
		t.Errorf("unshared stream = % x, want % x", s3, want3)
	}
}

func TestEncodeTokenizeRoundTripProperty(t *testing.T) {
	f := func(frames [][]byte, share bool) bool {
		var stream []byte
		var want [][]byte
		for _, fr := range frames {
			if len(fr) == 0 {
				continue // empty bodies produce no token
			}
			stream = ReferenceEncode(stream, fr, ACCMNone, share)
			want = append(want, fr)
		}
		var tk Tokenizer
		toks := tk.Feed(nil, stream)
		if len(toks) != len(want) {
			return false
		}
		for i := range toks {
			if toks[i].Err != nil || !bytes.Equal(toks[i].Body, want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func makePayload(n int, escFrac float64, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	for i := range p {
		if rng.Float64() < escFrac {
			if rng.Intn(2) == 0 {
				p[i] = Flag
			} else {
				p[i] = Escape
			}
		} else {
			p[i] = 0x20 + byte(rng.Intn(0x5D)) // never needs escaping
		}
	}
	return p
}

func BenchmarkStuffByte(b *testing.B) {
	p := makePayload(1500, 0.01, 1)
	dst := make([]byte, 0, 4096)
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		dst = Stuff(dst[:0], p, ACCMNone)
	}
}

func BenchmarkStuffBlock(b *testing.B) {
	p := makePayload(1500, 0.01, 1)
	dst := make([]byte, 0, 4096)
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		dst = stuffBlock(dst[:0], p, ACCMNone)
	}
}

// BenchmarkBlockMaps is the delimiter bitmap alone: 1536 clean octets,
// the 24 blocks of a link_mtu frame, mapped mapBlocks at a time as the
// block kernels map them.
func BenchmarkBlockMaps(b *testing.B) {
	p := makePayload(1536, 0, 1)
	var maps [mapBlocks]uint64
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		for s := p; len(s) >= BlockOctets; {
			s = s[blockMaps(&maps, s, ACCMNone)*BlockOctets:]
		}
	}
}

// BenchmarkSorter is the word path alone at 50 % density, per sorter
// this build can run, over the 24 blocks of BenchmarkBlockMaps: ns/op
// over 24 is its cost per 64-octet block, the row to set beside the
// bitmap's.
func BenchmarkSorter(b *testing.B) {
	p := makePayload(1536, 0.5, 1)
	enc := Stuff(nil, p, ACCMNone)[:len(p)]
	dst := make([]byte, 2*len(p))
	for _, s := range wordSorters() {
		b.Run("stuff/"+s.name, func(b *testing.B) {
			b.SetBytes(int64(len(p)))
			for i := 0; i < b.N; i++ {
				s.stuff(dst, p, ACCMNone)
			}
		})
		b.Run("destuff/"+s.name, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				s.destuff(dst, enc, 0)
			}
		})
	}
}
