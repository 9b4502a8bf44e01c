package hdlc

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Word-parallel stuffing. The hardware problem (paper §3, Figs 5 and 6) is
// that on a W-byte datapath a flag/escape can sit in any lane, so one
// input word can expand to up to 2W output bytes (stuffing) or collapse
// leaving bubbles (destuffing). In software the analog is SWAR, in two
// parts. Every lane of a word is tested for 0x7E/0x7D at once — sixteen
// per SSE2 compare on amd64 (delim_amd64.s), eight per 64-bit word in
// ALU operations elsewhere — into a 64-octet block's delimiter bitmap,
// whose set bits the block kernels walk. A dense block goes to the word
// path instead, the byte sorter proper: per 8-octet word, the lane mask
// picks a shuffle that opens (transmit) or closes (receive) the escape
// slots — one table-driven PSHUFB per word on amd64 with SSSE3
// (sorter_amd64.s, chosen by CPUID at init), a branch-free lane loop
// elsewhere (stuffWords, destuffWords).

const (
	lsbMask = 0x0101010101010101
	msbMask = 0x8080808080808080
)

// Lane-mask contract: zeroLanes, matchLanes, delimLanes and escLanes have
// bit 8i+7 set iff lane i matches and no other bit set, exactly, in every
// lane — the Go block folds OR all eight lanes of eight words. Held by
// TestLaneMasksExact over every adjacent-octet pair, and blockMaps by
// TestBlockMapsExact. The span scanner (DelimiterSpan) reads only the
// lowest set lane: firstZero, held by TestFirstLaneExact.

// zeroLanes returns a mask with bit 8i+7 set iff byte lane i of x is
// zero. The per-lane add cannot carry out of a lane: the top bit of
// each lane is masked off before 0x7F is added.
func zeroLanes(x uint64) uint64 {
	const low7 = ^uint64(msbMask)
	return ^((x&low7 + low7) | x | low7)
}

// matchLanes returns a mask with the MSB of each lane set iff that lane of
// x equals v.
func matchLanes(x uint64, v byte) uint64 {
	return zeroLanes(x ^ (lsbMask * uint64(v)))
}

// delimLanes returns the exact lane mask of the Flag and Escape octets
// of x in six operations where two matchLanes take thirteen: with its
// top bit masked off, a lane plus 3 sets bit 7 iff it was at least
// 0x7D and plus 1 iff it was 0x7F, and neither add can carry out of the
// lane; a lane whose top bit was set is neither octet.
func delimLanes(x uint64) uint64 {
	a := x &^ msbMask
	return (a + lsbMask*3) &^ (a + lsbMask | x) & msbMask
}

// firstZero is the borrow-tolerant zero test: zero iff x has no zero
// lane, else its lowest set bit is bit 8i+7 of the first zero lane i.
// The subtraction borrows out of a zero lane into those above (0x7F
// after 0x7E reads as a match), so only the lowest set lane counts.
func firstZero(x uint64) uint64 {
	return (x - lsbMask) &^ x & msbMask
}

// escLanes returns the per-lane match mask for octets needing escape under
// map m: flags, escapes, and (if the map is non-zero) mapped control
// characters. Control characters are found via an unsigned < 0x20 lane
// compare, then filtered through the map lane by lane only when the cheap
// test fires.
func escLanes(x uint64, m ACCM) uint64 {
	lanes := delimLanes(x)
	if m == 0 {
		return lanes
	}
	// Lane-parallel compare x[i] < 0x20: a lane is a control character
	// iff its top three bits are all zero.
	lt := zeroLanes(x & (lsbMask * 0xE0))
	if lt == 0 {
		return lanes
	}
	for i := 0; i < 8; i++ {
		if lt>>(8*uint(i)+7)&1 != 0 {
			b := byte(x >> (8 * uint(i)))
			if m.Escaped(b) {
				lanes |= 0x80 << (8 * uint(i))
			}
		}
	}
	return lanes
}

// DelimiterSpan returns the length of the maximal prefix of src
// containing neither a Flag nor an Escape octet, scanning eight lanes
// per step. No codec path calls it: it is the benchmark ladder's
// span-length census (hdlc.short_span_share).
func DelimiterSpan(src []byte) int {
	off := 0
	for len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		if lanes := firstZero(x^lsbMask*Flag) | firstZero(x^lsbMask*Escape); lanes != 0 {
			return off + bits.TrailingZeros64(lanes)/8
		}
		src = src[8:]
		off += 8
	}
	for i, b := range src {
		if b == Flag || b == Escape {
			return off + i
		}
	}
	return off + len(src)
}

// BlockOctets is the unit of both block kernels (AppendStuffed,
// Tokenizer.Feed): one delimiter bitmap per 64 octets and one
// fixed-width segment store per set bit. Input shorter than a block
// takes the word path (stuffBlock, destuffBlock).
const BlockOctets = 64

// denseBits is the popcount above which a block takes the word path
// instead of the bit walk. The walk pays a 64-octet segment store and
// two octet stores per set bit, about 2 ns; the SIMD sorter pays a flat
// 9 ns (transmit) to 15 ns (receive) per block, plus a call, and drags
// each following block that opens dirty along with it. The crossover
// is therefore near four to six bits, and the sweep over 0…16 (E39)
// reads flat from 4 to 16 on link_mtu within its spread, 2.5–5 % worse
// at 2 and 13–20 % worse at 1 and 0; 8 sits inside the flat range.
// (Against the Go
// sorters, 100–200 ns a dense block, 8 was reasoned the same way, E30.)
// It is a property of the input the kernel observes, not a knob.
const denseBits = 8

// The dense policy, one for both kernels: a block whose bitmap isDense
// takes the word path, and so does each whole block after it while
// opensDirty holds; the next block that does not returns to the bitmap.

// isDense reports whether a block with delimiter bitmap bm takes the
// word path.
func isDense(bm uint64) bool { return bits.OnesCount64(bm) > denseBits }

// mapBlocks is how many blocks one blockMaps pass maps ahead of a walk.
const mapBlocks = 16

// blockMaps fills maps with the delimiter bitmaps of the whole blocks at
// the head of src, at most mapBlocks and up to the first dense one (the
// word path does not need the blocks after it mapped), and returns how
// many. Bit i of a block's map is set iff its octet i needs escaping
// under map m (under m = 0: iff it is a Flag or an Escape, the receive
// kernel's question too). Under m = 0 (SONET/SDH links, and every
// receive) that is delimMaps: the SSE2 kernel on amd64, the Go fold
// elsewhere. Under a non-empty map mappedLanes folds the lanes and
// transpose reorders them. Mapping ahead in a loop of its own keeps the
// lane tests free of the walk's state.
func blockMaps(maps *[mapBlocks]uint64, src []byte, m ACCM) int {
	if m == 0 {
		return delimMaps(maps, src)
	}
	k := min(len(src)/BlockOctets, mapBlocks)
	for i := range k {
		t := mappedLanes((*[BlockOctets]byte)(src[i*BlockOctets:]), m)
		if maps[i] = transpose(t); isDense(maps[i]) {
			return i + 1
		}
	}
	return k
}

// transpose moves bit 8i+w of a block's lane fold (lane i of word w) to
// octet order, bit 8w+i: three delta swaps of the 8×8 bit matrix
// (Hacker's Delight §7-3).
func transpose(t uint64) uint64 {
	d := (t ^ t>>7) & 0x00AA00AA00AA00AA
	t ^= d ^ d<<7
	d = (t ^ t>>14) & 0x0000CCCC0000CCCC
	t ^= d ^ d<<14
	d = (t ^ t>>28) & 0x00000000F0F0F0F0
	return t ^ d ^ d<<28
}

// mappedLanes is the lane fold under a non-empty map: word w's escLanes
// mask, which filters control characters lane by lane, on bit 8i+w.
func mappedLanes(blk *[BlockOctets]byte, m ACCM) (t uint64) {
	for w := 0; w < 8; w++ {
		t |= escLanes(binary.LittleEndian.Uint64(blk[8*w:]), m) >> (7 - w)
	}
	return t
}

// opensDirty reports whether src holds a whole block at its head and
// that block opens with an octet to escape in its first word.
func opensDirty(src []byte, m ACCM) bool {
	return len(src) >= BlockOctets && escLanes(binary.LittleEndian.Uint64(src), m) != 0
}

// copyBlock copies a block as four 16-octet loads and stores, each a
// move the compiler keeps inline (a 64-octet array assignment would be
// a memmove call). The block kernels store every segment of a dirty
// block this way — at most a block long, at a cost that does not
// depend on its length, the octets past its end landing in reserved
// slack to be overwritten or trimmed — except within a block of the
// end of their input, where they copy exactly.
func copyBlock(d, s *[BlockOctets]byte) {
	*(*[16]byte)(d[0:16]) = *(*[16]byte)(s[0:16])
	*(*[16]byte)(d[16:32]) = *(*[16]byte)(s[16:32])
	*(*[16]byte)(d[32:48]) = *(*[16]byte)(s[32:48])
	*(*[16]byte)(d[48:64]) = *(*[16]byte)(s[48:64])
}

// AppendStuffed appends the octet-stuffed encoding of src under map m
// to dst: the transmit block kernel, the software Escape Generate
// sorter (paper Fig 5) at block width. A clean block extends the clean
// run, which leaves through one memmove when a dirty block or the end
// arrives. A dirty block walks its bitmap: each segment is one
// fixed-width store into reserved slack and each escaped octet two
// stores, so its cost does not depend on where the escapes fall. A
// dense block (popcount above denseBits) and the sub-block tail take
// the word path, stuffBlock. Under a non-empty map, where the SIMD
// sorter classifies mapped control octets itself, all of src takes
// it: a programmed ACCM costs what an empty one does (the bitmap under
// a map is the Go lane fold, mappedLanes). Output is byte-identical to
// Stuff.
func AppendStuffed(dst, src []byte, m ACCM) []byte {
	if sorter && m != 0 {
		return stuffBlock(dst, src, m)
	}
	j := len(dst)
	out := slices.Grow(dst, 2*len(src)+BlockOctets)
	out = out[:cap(out)]
	run, b := 0, 0 // src[run:b] is the clean run not yet stored
	for b+BlockOctets <= len(src) {
		var maps [mapBlocks]uint64
		k := blockMaps(&maps, src[b:], m)
		for _, bm := range maps[:k] {
			if bm != 0 {
				if run < b {
					j += copy(out[j:], src[run:b])
				}
				run = b + BlockOctets
				if isDense(bm) {
					// A dense block is the last one mapped: it and the
					// blocks after it that open dirty take the word path,
					// in one call.
					for opensDirty(src[run:], m) {
						run += BlockOctets
					}
					j = len(stuffBlock(out[:j], src[b:run], m))
					b = run
					break
				}
				for prev := b; ; bm &= bm - 1 {
					p := run // the segment after the last escape ends the block
					if bm != 0 {
						p = b + bits.TrailingZeros64(bm)
					}
					if len(src)-prev >= BlockOctets {
						copyBlock((*[BlockOctets]byte)(out[j:]), (*[BlockOctets]byte)(src[prev:]))
						j += p - prev
					} else {
						j += copy(out[j:], src[prev:p])
					}
					if bm == 0 {
						break
					}
					out[j], out[j+1] = Escape, src[p]^XorBit
					j += 2
					prev = p + 1
				}
			}
			b += BlockOctets
		}
	}
	if run < b {
		j += copy(out[j:], src[run:b])
	}
	return stuffBlock(out[:j], src[b:], m)
}

// stuffBlock appends the octet-stuffed encoding of src to dst at a
// cost that does not depend on where the escapes fall: the word path
// of the transmit kernel, the Escape Generate sorter (paper Fig 5) one
// 8-octet word at a time. Room for the worst case is reserved up front;
// every whole word goes through the SSSE3 sorter (sortStuff,
// sorter_amd64.s) where the CPU has it and through stuffWords
// otherwise, and the sub-word tail through Stuff. Output is
// byte-identical to Stuff.
func stuffBlock(dst, src []byte, m ACCM) []byte {
	j := len(dst)
	dst = slices.Grow(dst, 2*len(src))[:j+2*len(src)]
	n := len(src) &^ 7
	if sorter {
		j += sortStuff(dst[j:], src[:n], m)
	} else {
		j += stuffWords(dst[j:], src[:n], m)
	}
	return Stuff(dst[:j], src[n:], m)
}

// stuffWords stores the stuffed encoding of the whole words of src at
// the head of dst, which has room for twice len(src), and returns its
// length: the portable sorter. Each lane stores Escape, stores its
// octet over it or after it, and advances by one or two, with no branch
// on the data; a word with nothing to escape is stored whole.
func stuffWords(dst, src []byte, m ACCM) int {
	j := 0
	for ; len(src) >= 8; src = src[8:] {
		x := binary.LittleEndian.Uint64(src)
		var lanes uint64
		if m == 0 {
			lanes = delimLanes(x) // inline: escLanes is a call
		} else {
			lanes = escLanes(x, m)
		}
		if lanes >>= 7; lanes == 0 {
			binary.LittleEndian.PutUint64(dst[j:], x)
			j += 8
			continue
		}
		for i := 0; i < 8; i++ {
			e := int(lanes & 1)
			dst[j] = Escape
			dst[j+e] = byte(x) ^ byte(e*XorBit)
			j += 1 + e
			x >>= 8
			lanes >>= 8
		}
	}
	return j
}

// destuffBlock appends the decoded form of the flag-free stuffed
// sequence src to dst, threading the escape-pending state exactly as
// destuff does: the word path of the receive kernel, the Escape Detect
// sorter (paper Fig 6). Every whole word goes through the SSSE3 sorter
// (sortDestuff) where the CPU has it and through destuffWords
// otherwise, and the sub-word tail through destuff.
func destuffBlock(dst, src []byte, esc bool) ([]byte, bool) {
	j := len(dst)
	dst = slices.Grow(dst, len(src))[:j+len(src)]
	var pend uint64 // 1 while the previous octet was an escape
	if esc {
		pend = 1
	}
	n, k := len(src)&^7, 0
	if sorter {
		k, pend = sortDestuff(dst[j:], src[:n], pend)
	} else {
		k, pend = destuffWords(dst[j:], src[:n], pend)
	}
	return destuff(dst[:j+k], src[n:], pend != 0)
}

// destuffWords stores the decoded form of the whole words of src at the
// head of dst, which has room for len(src), threading the pending
// escape, and returns its length and the escape pending after it: the
// portable sorter. Each lane is stored xored by the previous lane's
// escape bit and the write position advances only past lanes that are
// not themselves an escape, so an escape octet is overwritten by its
// successor; again no branch on the data, and a word without escapes is
// stored whole.
func destuffWords(dst, src []byte, pend uint64) (int, uint64) {
	j := 0
	for ; len(src) >= 8; src = src[8:] {
		x := binary.LittleEndian.Uint64(src)
		lanes := matchLanes(x, Escape) >> 7
		if lanes|pend == 0 {
			binary.LittleEndian.PutUint64(dst[j:], x)
			j += 8
			continue
		}
		for i := 0; i < 8; i++ {
			dst[j] = byte(x) ^ byte(pend*XorBit)
			pend = lanes & 1 &^ pend // an escaped 0x7D is data
			j += int(1 - pend)
			x >>= 8
			lanes >>= 8
		}
	}
	return j, pend
}
