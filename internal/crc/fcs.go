package crc

import "hash/crc32"

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

// wide is the input length from which FCS-32 is folded at datapath
// width by hash/crc32 — carry-less multiply on amd64, the CRC32
// instructions on arm64, slicing-by-8 elsewhere. The stdlib's own wide
// kernel needs as much; shorter inputs would only pay its dispatch.
const wide = 64

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

// Update folds p into a streaming register started by Init — the one
// production kernel of each size. hash/crc32 speaks the checksum
// convention (register complemented going in and coming out); the
// complement on both sides turns it back into the raw register, from
// any starting value. FCS-16 has no hardware kernel: it and short
// inputs take the in-package slicing tables, one call from here.
func (s Size) Update(fcs uint32, p []byte) uint32 {
	if s == FCS16Mode {
		return uint32(slicing16(uint16(fcs), p))
	}
	if len(p) >= wide {
		return ^crc32.Update(^fcs, crc32.IEEETable, p)
	}
	return slicing32(fcs, p)
}

// Slicing folds p through the in-package slicing tables whatever its
// length. Unlike Update it does not let p escape to the heap (the
// stdlib dispatches through a function variable), so it is the fold
// for a few octets in a caller's stack buffer — a frame header.
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
// mode. It dispatches like Update, so that a short frame — the
// tokenizer checks every one — is one call from its fold.
func (s Size) Check(p []byte) bool {
	if s == FCS16Mode {
		return len(p) >= 2 && slicing16(Init16, p) == Good16
	}
	if len(p) >= wide {
		return s.Update(Init32, p) == Good32
	}
	return len(p) >= 4 && slicing32(Init32, p) == Good32
}

func (s Size) String() string {
	if s == FCS16Mode {
		return "FCS-16"
	}
	return "FCS-32"
}
