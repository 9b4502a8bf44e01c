package crc

import "math/bits"

// Matrix-parallel CRC, after T.-B. Pei and C. Zukowski, "High-speed
// parallel CRC circuits in VLSI", IEEE Trans. Comm. 40(4), 1992 — the
// reference the paper cites for its CRC core.
//
// Pushing W input bits through the LFSR is a linear map over GF(2):
//
//	next = Mstate · state  ⊕  Mdata · data
//
// where Mstate is 32×32 and Mdata is 32×W. In hardware each output bit is
// one XOR tree over the state and data bits whose matrix column is set —
// the "8 x 32-bit parallel matrix" (8-bit P5) and "32 x 32-bit parallel
// matrix" (32-bit P5) of the paper. Here the matrices are the definition:
// the synthesis-cost model reads them (each row's population count sizes
// its XOR tree) and the tests evaluate them column by column. Step, the
// per-clock operation of the simulated CRC unit, evaluates the same map
// eight input bits at a time through tables derived from the columns.

// Matrix32 is a GF(2) linear map into 32-bit vectors, stored column-major:
// Cols[i] is the 32-bit output contribution of input bit i: the product
// with an input vector XORs the columns its set bits select.
type Matrix32 struct {
	Cols []uint32
}

// Row returns row r as a bitmask over the input bits: bit i is set iff
// input bit i feeds output bit r. This is the fan-in set of the XOR tree
// that computes output bit r in hardware.
func (m Matrix32) Row(r int) uint64 {
	var row uint64
	for i, c := range m.Cols {
		if c>>uint(r)&1 != 0 {
			row |= 1 << uint(i)
		}
	}
	return row
}

// sliceTables derives the byte-sliced evaluation of a column-major GF(2)
// matrix: t[k][v] is the XOR of the columns 8k+i selected by the set bits
// i of v, so M·x = ⊕ₖ t[k][byte k of x]. A last table shorter than eight
// columns ignores the index bits it has no column for.
func sliceTables[T uint16 | uint32](cols []T) [][256]T {
	t := make([][256]T, (len(cols)+7)/8)
	for k := range t {
		for v := 1; v < 256; v++ {
			var c T
			if i := 8*k + bits.TrailingZeros8(uint8(v)); i < len(cols) {
				c = cols[i]
			}
			t[k][v] = t[k][v&(v-1)] ^ c
		}
	}
	return t
}

// Parallel32 computes a 32-bit FCS W data bits at a time. It is immutable
// once built, so one engine may serve any number of CRC units.
type Parallel32 struct {
	w      int      // data bits consumed per step
	mstate Matrix32 // 32 columns
	mdata  Matrix32 // w columns

	ts *[4][256]uint32 // sliceTables(mstate)
	td [][256]uint32   // sliceTables(mdata): ⌈w/8⌉ tables
}

func (p *Parallel32) buildTables() {
	p.ts = (*[4][256]uint32)(sliceTables(p.mstate.Cols))
	p.td = sliceTables(p.mdata.Cols)
}

// NewParallel32 builds the W-bit-per-step parallel engine for the FCS-32
// polynomial. W must be a multiple of 8 between 8 and 64. The matrices are
// derived by probing the serial reference with unit vectors, so they are
// correct by construction for any polynomial change.
func NewParallel32(w int) *Parallel32 {
	if w < 1 || w > 64 || (w%8 != 0 && 8%w != 0) {
		panic("crc: parallel width out of range")
	}
	p := &Parallel32{w: w}
	// step runs the serial LFSR for w bits of data over a given state.
	step := func(state uint32, data uint64) uint32 {
		for i := 0; i < w; i++ {
			state = updateBit32(state, uint32(data>>uint(i))&1)
		}
		return state
	}
	p.mstate.Cols = make([]uint32, 32)
	for i := 0; i < 32; i++ {
		p.mstate.Cols[i] = step(1<<uint(i), 0)
	}
	p.mdata.Cols = make([]uint32, w)
	for j := 0; j < w; j++ {
		p.mdata.Cols[j] = step(0, 1<<uint(j))
	}
	p.buildTables()
	return p
}

// Step advances the FCS by one datapath word: next = Mstate·fcs ⊕
// Mdata·data, evaluated through the byte-sliced tables. Only the low
// w bits of data (the width NewParallel32 was given) are consumed.
// This is the single-clock-cycle operation of the hardware CRC core.
func (p *Parallel32) Step(fcs uint32, data uint64) uint32 {
	next := p.ts[0][byte(fcs)] ^ p.ts[1][byte(fcs>>8)] ^
		p.ts[2][byte(fcs>>16)] ^ p.ts[3][fcs>>24]
	for k := range p.td {
		next ^= p.td[k][byte(data>>(8*uint(k)))]
	}
	return next
}

// Update runs the engine over p, consuming w/8 bytes per step and
// falling back to the Sarwate table for any tail shorter than one word.
// Bytes are packed little-endian into the data word, matching LSB-first
// serial transmission order.
func (p *Parallel32) Update(fcs uint32, buf []byte) uint32 {
	if p.w%8 != 0 {
		// Sub-byte widths step the matrix engine bit by bit.
		for _, b := range buf {
			for i := 0; i < 8; i += p.w {
				fcs = p.Step(fcs, uint64(b>>uint(i)))
			}
		}
		return fcs
	}
	nb := p.w / 8
	for len(buf) >= nb {
		var word uint64
		for k := 0; k < nb; k++ {
			word |= uint64(buf[k]) << uint(8*k)
		}
		fcs = p.Step(fcs, word)
		buf = buf[nb:]
	}
	return Table32(fcs, buf)
}

// StateMatrix returns the state-transition matrix (for inspection and for
// the synthesis cost model).
func (p *Parallel32) StateMatrix() Matrix32 { return p.mstate }

// DataMatrix returns the data-injection matrix.
func (p *Parallel32) DataMatrix() Matrix32 { return p.mdata }

// Parallel16 is the 16-bit-FCS counterpart of Parallel32.
type Parallel16 struct {
	w      int
	mstate []uint16
	mdata  []uint16

	ts *[2][256]uint16 // sliceTables(mstate)
	td [][256]uint16   // sliceTables(mdata)
}

// NewParallel16 builds the W-bit-per-step parallel engine for the FCS-16
// polynomial.
func NewParallel16(w int) *Parallel16 {
	if w < 1 || w > 64 || (w%8 != 0 && 8%w != 0) {
		panic("crc: parallel width out of range")
	}
	p := &Parallel16{w: w}
	step := func(state uint16, data uint64) uint16 {
		for i := 0; i < w; i++ {
			state = updateBit16(state, uint16(data>>uint(i))&1)
		}
		return state
	}
	p.mstate = make([]uint16, 16)
	for i := 0; i < 16; i++ {
		p.mstate[i] = step(1<<uint(i), 0)
	}
	p.mdata = make([]uint16, w)
	for j := 0; j < w; j++ {
		p.mdata[j] = step(0, 1<<uint(j))
	}
	p.ts = (*[2][256]uint16)(sliceTables(p.mstate))
	p.td = sliceTables(p.mdata)
	return p
}

// Step advances the FCS by one datapath word.
func (p *Parallel16) Step(fcs uint16, data uint64) uint16 {
	next := p.ts[0][byte(fcs)] ^ p.ts[1][fcs>>8]
	for k := range p.td {
		next ^= p.td[k][byte(data>>(8*uint(k)))]
	}
	return next
}

// Update runs the engine over buf with a Sarwate tail.
func (p *Parallel16) Update(fcs uint16, buf []byte) uint16 {
	if p.w%8 != 0 {
		for _, b := range buf {
			for i := 0; i < 8; i += p.w {
				fcs = p.Step(fcs, uint64(b>>uint(i)))
			}
		}
		return fcs
	}
	nb := p.w / 8
	for len(buf) >= nb {
		var word uint64
		for k := 0; k < nb; k++ {
			word |= uint64(buf[k]) << uint(8*k)
		}
		fcs = p.Step(fcs, word)
		buf = buf[nb:]
	}
	return Table16(fcs, buf)
}
