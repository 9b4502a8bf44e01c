package hdlc

import "math/bits"

// The byte sorter at SIMD width (sorter_amd64.s): the word paths of
// both kernels, eight lanes per table-driven PSHUFB. PSHUFB is SSSE3,
// past the amd64 baseline, so one CPUID probe at init decides; a CPU
// without it runs the portable sorters (stuffWords, destuffWords).

// sorter reports whether the CPU has SSSE3: CPUID leaf 1, ECX bit 9.
var sorter = cpuidECX(1)&(1<<9) != 0

// cpuidECX returns ECX of CPUID leaf (sub-leaf 0).
func cpuidECX(leaf uint32) uint32

// stuffSorted stores the stuffed encoding of the whole words of src at
// dst, which has room for twice len(src), and returns its length. nib is
// nil under an empty map, else the map's nibble table (accmNibbles).
//
//go:noescape
func stuffSorted(dst *byte, src []byte, nib *[16]byte) int

// destuffSorted stores the decoded form of the whole words of src at
// dst, which has room for len(src), threading the pending escape (0 or
// 1), and returns its length and the escape pending after it.
//
//go:noescape
func destuffSorted(dst *byte, src []byte, pend uint64) (int, uint64)

// sortStuff is stuffWords through the SSSE3 sorter.
func sortStuff(dst, src []byte, m ACCM) int {
	if len(src) == 0 {
		return 0
	}
	if m == 0 {
		return stuffSorted(&dst[0], src, nil)
	}
	nib := accmNibbles(m)
	return stuffSorted(&dst[0], src, &nib)
}

// sortDestuff is destuffWords through the SSSE3 sorter.
func sortDestuff(dst, src []byte, pend uint64) (int, uint64) {
	if len(src) == 0 {
		return 0, pend
	}
	return destuffSorted(&dst[0], src, pend)
}

// accmNibbles is map m as a PSHUFB table over an octet's low nibble:
// bit 0 of entry n is m's bit for control character n, bit 1 its bit for
// 0x10+n. The kernel ANDs it with the high nibble's row bit
// (accmRows) and compares: a lane equals its row bit iff it is a mapped
// control character.
func accmNibbles(m ACCM) (t [16]byte) {
	for n := range t {
		t[n] = byte(m>>n&1) | byte(m>>(16+n)&1)<<1
	}
	return t
}

// accmRows is the high-nibble table: row bit 1 for octets 0x00–0x0F, 2
// for 0x10–0x1F, and 0x80, a bit accmNibbles never sets, for the rest.
var accmRows = [16]byte{1, 2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}

// The sorter's tables, derived at init from the lane rules they encode.
var (
	// stuffShuf[e] spreads an 8-octet word whose escape lanes are e:
	// lane i's octet moves past the escapes below it and an escape lane
	// is preceded by an index into the register's upper half, which
	// holds Escape in every lane — the same index opens the slot and
	// fills it. 8 + popcount(e) octets of the 16 are the output.
	stuffShuf [256][16]byte
	// destuffRun[e|p<<8] holds, in its low octet, the real escapes r of
	// a word whose 0x7D lanes are e, with an escape pending into lane 0
	// iff p: a 0x7D lane is an escape unless the lane below is one, so
	// runs like 7D 7D, and runs that cross a word, resolve exactly; bit
	// 7 of r is the escape pending out of the word. Its high octet is
	// the write position's advance, 8 − popcount(r).
	destuffRun [512]uint16
	// destuffXor[e|p<<8] is the word to xor into the same word: XorBit in
	// each lane after a real escape.
	destuffXor [512]uint64
	// packShuf[r] left-packs the lanes not in r, dropping the escapes.
	packShuf [256]uint64
	// popcount8[e] is the number of lanes set in e: the transmit write
	// position advances by 8 + it.
	popcount8 [256]uint8
)

func init() {
	for e := range 256 {
		popcount8[e] = uint8(bits.OnesCount8(uint8(e)))
		k := 0
		for i := range 8 {
			if e>>i&1 != 0 {
				stuffShuf[e][k] = 8 // an upper lane: Escape
				k++
			}
			stuffShuf[e][k] = byte(i)
			k++
		}
		for ; k < 16; k++ {
			stuffShuf[e][k] = 0x80 // past the output: zero
		}
		var shuf [8]byte
		k = 0
		for i := range 8 {
			if e>>i&1 == 0 {
				shuf[k] = byte(i)
				k++
			}
		}
		for ; k < 8; k++ {
			shuf[k] = 0x80
		}
		for i := range 8 {
			packShuf[e] |= uint64(shuf[i]) << (8 * i)
		}
	}
	for idx := range 512 {
		e, p := idx&0xFF, idx>>8
		var r uint16
		var x uint64
		for i := range 8 {
			if p != 0 {
				x |= XorBit << (8 * i)
				p = 0
			} else if e>>i&1 != 0 {
				r |= 1 << i
				p = 1
			}
		}
		destuffRun[idx] = r | uint16(8-bits.OnesCount16(r))<<8
		destuffXor[idx] = x
	}
}
