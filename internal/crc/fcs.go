package crc

// PPP frame-check-sequence helpers (RFC 1662 appendix C). The FCS is
// computed over address, control, protocol and information fields (after
// any header compression, before any byte stuffing), transmitted
// complemented, least-significant byte first. Every helper here goes
// through Size.Update: one production kernel per size.

// Size is the FCS mode used on a link.
type Size int

// FCS modes negotiable on a PPP link. The paper's P5 "incorporates 32-bit
// CRC checking" but the OAM register map keeps the mode programmable.
const (
	FCS16Mode Size = 2 // 16-bit FCS, 2 octets on the wire
	FCS32Mode Size = 4 // 32-bit FCS, 4 octets on the wire
)

// Bytes returns the on-the-wire size of the FCS field in octets.
func (s Size) Bytes() int { return int(s) }

// Init returns the initial register value for streaming computation in
// this mode, widened to 32 bits (the FCS16 register lives in the low
// half). Thread the value through Update and finish with Finish.
func (s Size) Init() uint32 {
	if s == FCS16Mode {
		return uint32(Init16)
	}
	return Init32
}

// Slicing folds p through the in-package slicing tables whatever its
// length. It never lets p escape to the heap — off amd64 Update does,
// since hash/crc32 dispatches through a function variable — so it is
// the fold for a few octets in a caller's stack buffer: a frame header.
func (s Size) Slicing(fcs uint32, p []byte) uint32 {
	if s == FCS16Mode {
		return uint32(slicing16(uint16(fcs), p))
	}
	return slicing32(fcs, p)
}

// Finish complements a streaming register into the on-the-wire FCS
// field value (append LSB first).
func (s Size) Finish(fcs uint32) uint32 {
	if s == FCS16Mode {
		return uint32(uint16(fcs) ^ 0xFFFF)
	}
	return fcs ^ 0xFFFFFFFF
}

// Append appends the FCS of the selected size to p.
func (s Size) Append(p []byte) []byte {
	v := s.Finish(s.Update(s.Init(), p))
	if s == FCS16Mode {
		return append(p, byte(v), byte(v>>8))
	}
	return append(p, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Check verifies a frame body (including trailing FCS) in the selected
// mode: one fold through Update, so that a short frame — the tokenizer
// checks every one — takes the same kernel as a long one.
func (s Size) Check(p []byte) bool {
	if s == FCS16Mode {
		return len(p) >= 2 && s.Update(uint32(Init16), p) == uint32(Good16)
	}
	return len(p) >= 4 && s.Update(Init32, p) == Good32
}

func (s Size) String() string {
	if s == FCS16Mode {
		return "FCS-16"
	}
	return "FCS-32"
}
