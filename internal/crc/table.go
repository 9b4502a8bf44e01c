package crc

import "encoding/binary"

// Sarwate byte-at-a-time tables, built once at package init from the
// bitwise reference. These are the software mirror of a classic 8-bit
// serial-in CRC unit: one table lookup consumes 8 input bits per step.

var (
	table16 [256]uint16
	table32 [256]uint32

	// slice32 holds slicing-by-8 tables: slice32[0] is the plain Sarwate
	// table, slice32[k][b] is the CRC contribution of byte b placed k
	// bytes earlier in the stream.
	slice32 [8][256]uint32
	slice16 [2][256]uint16
)

func init() {
	for i := 0; i < 256; i++ {
		c := uint16(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = (c >> 1) ^ poly16
			} else {
				c >>= 1
			}
		}
		table16[i] = c
	}
	for i := 0; i < 256; i++ {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = (c >> 1) ^ poly32
			} else {
				c >>= 1
			}
		}
		table32[i] = c
	}
	slice32[0] = table32
	for k := 1; k < 8; k++ {
		for i := 0; i < 256; i++ {
			c := slice32[k-1][i]
			slice32[k][i] = (c >> 8) ^ table32[byte(c)]
		}
	}
	slice16[0] = table16
	for i := 0; i < 256; i++ {
		c := slice16[0][i]
		slice16[1][i] = (c >> 8) ^ table16[byte(c)]
	}
}

// tableByte16 advances a 16-bit FCS by one byte using the Sarwate table.
func tableByte16(fcs uint16, b byte) uint16 {
	return (fcs >> 8) ^ table16[byte(fcs)^b]
}

// tableByte32 advances a 32-bit FCS by one byte using the Sarwate table.
func tableByte32(fcs uint32, b byte) uint32 {
	return (fcs >> 8) ^ table32[byte(fcs)^b]
}

// Table16 runs the Sarwate engine over p.
func Table16(fcs uint16, p []byte) uint16 {
	for _, b := range p {
		fcs = tableByte16(fcs, b)
	}
	return fcs
}

// Table32 runs the Sarwate engine over p.
func Table32(fcs uint32, p []byte) uint32 {
	for _, b := range p {
		fcs = tableByte32(fcs, b)
	}
	return fcs
}

// slicing32 runs slicing-by-8 over p: eight input bytes are folded into
// the register per step, the bulk software analog of the paper's
// parallel-CRC datapath widened to the machine word.
func slicing32(fcs uint32, p []byte) uint32 {
	for len(p) >= 8 {
		q := binary.LittleEndian.Uint64(p)
		lo := fcs ^ uint32(q)
		hi := uint32(q >> 32)
		fcs = slice32[7][byte(lo)] ^
			slice32[6][byte(lo>>8)] ^
			slice32[5][byte(lo>>16)] ^
			slice32[4][byte(lo>>24)] ^
			slice32[3][byte(hi)] ^
			slice32[2][byte(hi>>8)] ^
			slice32[1][byte(hi>>16)] ^
			slice32[0][byte(hi>>24)]
		p = p[8:]
	}
	if len(p) >= 4 {
		fcs ^= uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
		fcs = slice32[3][byte(fcs)] ^
			slice32[2][byte(fcs>>8)] ^
			slice32[1][byte(fcs>>16)] ^
			slice32[0][byte(fcs>>24)]
		p = p[4:]
	}
	return Table32(fcs, p)
}

// slicing16 runs slicing-by-2 over p.
func slicing16(fcs uint16, p []byte) uint16 {
	for len(p) >= 2 {
		fcs ^= uint16(p[0]) | uint16(p[1])<<8
		fcs = slice16[1][byte(fcs)] ^ slice16[0][byte(fcs>>8)]
		p = p[2:]
	}
	return Table16(fcs, p)
}
