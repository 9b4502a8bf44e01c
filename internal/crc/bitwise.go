package crc

// PPP uses "reflected" CRCs: bits are shifted out least-significant first,
// matching serial HDLC transmission order. All engines in this package use
// the reflected convention throughout, so no bit reversal is ever needed at
// the interfaces.

// Polynomials in reflected form.
const (
	// poly16 is the reflected CRC-16/X.25 polynomial x^16+x^12+x^5+1
	// used by the PPP 16-bit FCS (RFC 1662 §C.2).
	poly16 = 0x8408
	// poly32 is the reflected CRC-32/ISO-HDLC (a.k.a. IEEE 802.3)
	// polynomial used by the PPP 32-bit FCS (RFC 1662 §C.3).
	poly32 = 0xEDB88320
)

// Initial register values ("all ones", RFC 1662).
const (
	Init16 = uint16(0xFFFF)
	Init32 = uint32(0xFFFFFFFF)
)

// Good final register values. When a receiver runs the CRC over a frame
// including its (complemented) FCS field, the register ends at this magic
// residue iff the frame is intact.
const (
	Good16 = uint16(0xF0B8)
	Good32 = uint32(0xDEBB20E3)
)

// updateBit16 advances a 16-bit FCS register by a single input bit
// (0 or 1). This is the serial LFSR ground truth every other engine is
// verified against.
func updateBit16(fcs uint16, bit uint16) uint16 {
	if (fcs^bit)&1 != 0 {
		return (fcs >> 1) ^ poly16
	}
	return fcs >> 1
}

// updateBit32 advances a 32-bit FCS register by a single input bit.
func updateBit32(fcs uint32, bit uint32) uint32 {
	if (fcs^bit)&1 != 0 {
		return (fcs >> 1) ^ poly32
	}
	return fcs >> 1
}

// bitwiseByte16 advances a 16-bit FCS by one data byte, LSB first.
func bitwiseByte16(fcs uint16, b byte) uint16 {
	for i := 0; i < 8; i++ {
		fcs = updateBit16(fcs, uint16(b>>i)&1)
	}
	return fcs
}

// bitwiseByte32 advances a 32-bit FCS by one data byte, LSB first.
func bitwiseByte32(fcs uint32, b byte) uint32 {
	for i := 0; i < 8; i++ {
		fcs = updateBit32(fcs, uint32(b>>i)&1)
	}
	return fcs
}

// Bitwise16 runs the serial reference over p starting from fcs.
func Bitwise16(fcs uint16, p []byte) uint16 {
	for _, b := range p {
		fcs = bitwiseByte16(fcs, b)
	}
	return fcs
}

// Bitwise32 runs the serial reference over p starting from fcs.
func Bitwise32(fcs uint32, p []byte) uint32 {
	for _, b := range p {
		fcs = bitwiseByte32(fcs, b)
	}
	return fcs
}
