//go:build !amd64

package crc

import "hash/crc32"

// wide is the input length from which FCS-32 is folded at datapath
// width by hash/crc32 — the CRC32 instructions on arm64, slicing-by-8
// elsewhere. The stdlib's own wide kernel needs as much; shorter inputs
// would only pay its dispatch.
const wide = 64

// Update folds p into a streaming register started by Init — the one
// production kernel of each size. hash/crc32 speaks the checksum
// convention (register complemented going in and coming out); the
// complement on both sides turns it back into the raw register, from
// any starting value. Off amd64 FCS-16 has no wide kernel: it and short
// inputs take the in-package slicing tables, one call from here.
func (s Size) Update(fcs uint32, p []byte) uint32 {
	if s == FCS32Mode && len(p) >= wide {
		return ^crc32.Update(^fcs, crc32.IEEETable, p)
	}
	return s.Slicing(fcs, p)
}
