package ppp

import (
	"repro/internal/crc"
	"repro/internal/hdlc"
)

// This file is the transmit oracle: the two-pass encoder — build the
// body, checksum it, then stuff it, each a byte at a time — that the
// fused kernel in fused.go replaced. It shares neither the header
// builder nor any word-parallel code with Header.Append, so the
// differential tests (FuzzFusedEncode, the RTL equivalence tests)
// compare two independent implementations. Tests only: no production
// code may name a Reference* symbol (TestOracleStaysAnOracle).

// ReferenceEncodeBody appends the frame body — address, control,
// protocol, payload and FCS, but no flags or stuffing — to dst. This is
// the byte sequence the P5 transmitter's CRC unit sees.
func ReferenceEncodeBody(dst []byte, f *Frame, c Config) []byte {
	start := len(dst)
	compressAC := c.ACFC && f.Protocol != ProtoLCP
	if !compressAC {
		addr := f.Address
		if addr == 0 {
			addr = c.address()
		}
		ctrl := f.Control
		if ctrl == 0 {
			ctrl = CtrlUI
		}
		dst = append(dst, addr, ctrl)
	}
	if c.PFC && f.Protocol < 0x100 && f.Protocol&1 == 1 && f.Protocol != ProtoLCP {
		dst = append(dst, byte(f.Protocol))
	} else {
		dst = append(dst, byte(f.Protocol>>8), byte(f.Protocol))
	}
	dst = append(dst, f.Payload...)
	// The per-octet table CRC, not the slicing kernel the fused path
	// folds spans with.
	if c.fcs() == crc.FCS16Mode {
		v := ^crc.Table16(crc.Init16, dst[start:])
		dst = append(dst, byte(v), byte(v>>8))
	} else {
		v := ^crc.Table32(crc.Init32, dst[start:])
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

// ReferenceEncode appends the complete on-the-wire encoding of f —
// flags, stuffed body, FCS — to dst: what c.Header(f.Protocol) then
// Append put on the wire for f.Payload, shareFlag included. A zero
// Address or Control takes the configured address or CtrlUI.
func ReferenceEncode(dst []byte, f *Frame, c Config, shareFlag bool) []byte {
	return hdlc.ReferenceEncode(dst, ReferenceEncodeBody(nil, f, c), c.ACCM, shareFlag)
}
