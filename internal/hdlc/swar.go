package hdlc

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Word-parallel stuffing. The hardware problem (paper §3, Figs 5 and 6) is
// that on a W-byte datapath a flag/escape can sit in any lane, so one
// input word can expand to up to 2W output bytes (stuffing) or collapse
// leaving bubbles (destuffing). In software the analog is SWAR scanning:
// all eight lanes of a 64-bit word are tested for 0x7E/0x7D in a handful
// of ALU operations, and escape-free spans are copied in bulk.

const (
	lsbMask = 0x0101010101010101
	msbMask = 0x8080808080808080
)

// Lane-mask contract: zeroLanes, matchLanes and escLanes have bit 8i+7
// set iff lane i matches and no other bit set, exactly, in every lane —
// the block kernels read all eight. TestLaneMasksExact pins that over
// every adjacent-octet pair. The span scanners (DelimiterSpan,
// findFlag) only read the lowest set lane and take the shorter
// firstZero, which TestFirstLaneExact holds to the byte loop.

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
	lanes := matchLanes(x, Flag) | matchLanes(x, Escape)
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

// EscapeSpan returns the length of the maximal prefix of src containing
// no octet that needs escaping under map m, scanning eight lanes per
// step. The transmit kernel (ppp.Header.Append) alternates EscapeSpan with
// a single escaped octet or, where spans come back short, a StuffBlock.
// Under the empty map (the SONET/SDH default) only Flag and Escape
// count, which is DelimiterSpan's question: its lane test is inlined,
// where escLanes is a call per word.
func EscapeSpan(src []byte, m ACCM) int {
	if m == 0 {
		return DelimiterSpan(src)
	}
	off := 0
	for len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		if lanes := escLanes(x, m); lanes != 0 {
			return off + bits.TrailingZeros64(lanes)/8
		}
		src = src[8:]
		off += 8
	}
	for i, b := range src {
		if m.Escaped(b) {
			return off + i
		}
	}
	return off + len(src)
}

// DelimiterSpan returns the length of the maximal prefix of src
// containing neither a Flag nor an Escape octet, scanning eight lanes
// per step — the receive-side twin of EscapeSpan. Tokenizer.Feed
// alternates DelimiterSpan with single-octet
// delimiter handling (or a block, where spans come back short), so
// runs of ordinary line bytes are bulk-copied into the arena with one
// copy instead of a per-byte loop.
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

// BlockOctets bounds one step of the block kernels. Their callers —
// the fused transmit and receive kernels — enter a block only when the
// span scanner comes back with less than a word, and scan again after
// it, so a payload that turns clean is back on the memmove path within
// 64 octets and a dense one pays the scanner once per block instead
// of once per escape.
const BlockOctets = 64

// StuffBlock appends the octet-stuffed encoding of src to dst at a
// cost that does not depend on where the escapes fall — the software
// Escape Generate sorter (paper Fig 5). Room for the worst case is
// reserved up front; each lane then stores Escape, stores its octet
// over it or after it, and advances by one or two, with no branch on
// the data. A word with nothing to escape is stored whole. Output is
// byte-identical to Stuff.
func StuffBlock(dst, src []byte, m ACCM) []byte {
	j := len(dst)
	dst = slices.Grow(dst, 2*len(src))[:j+2*len(src)]
	for len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		src = src[8:]
		lanes := escLanes(x, m) >> 7
		if lanes == 0 {
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
	return Stuff(dst[:j], src, m)
}

// destuffBlock appends the decoded form of the flag-free stuffed
// sequence src to dst, threading the escape-pending state exactly as
// Destuff does — the software Escape Detect sorter (paper Fig 6).
// Each lane is stored xored by the previous lane's escape bit and the
// write position advances only past lanes that are not themselves an
// escape, so an escape octet is overwritten by its successor; again no
// branch on the data, and a word without escapes is stored whole.
func destuffBlock(dst, src []byte, esc bool) ([]byte, bool) {
	j := len(dst)
	dst = slices.Grow(dst, len(src))[:j+len(src)]
	var pend uint64 // 1 while the previous lane was an escape octet
	if esc {
		pend = 1
	}
	for len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		src = src[8:]
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
	return Destuff(dst[:j], src, pend != 0)
}

// findFlag returns the index of the first Flag octet in p, or -1 —
// the word-parallel flag hunt used for frame delineation.
func findFlag(p []byte) int {
	off := 0
	for len(p) >= 8 {
		x := binary.LittleEndian.Uint64(p)
		if lanes := firstZero(x ^ lsbMask*Flag); lanes != 0 {
			return off + bits.TrailingZeros64(lanes)/8
		}
		p = p[8:]
		off += 8
	}
	for i, b := range p {
		if b == Flag {
			return off + i
		}
	}
	return -1
}
