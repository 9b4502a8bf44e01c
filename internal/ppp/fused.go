package ppp

import (
	"repro/internal/crc"
	"repro/internal/hdlc"
)

// This file is the frame codec every production frame takes. Transmit
// folds the FCS once over the whole frame at datapath width, then
// walks it once more to stuff it onto the line — the software mirror of
// the paper's pipelined CRC → Escape Generate transmitter stages, a CRC
// core as wide as the bus ahead of the byte sorter. Tests hold it
// byte-for-byte equal to the two-pass, byte-at-a-time ReferenceEncode
// (reference.go; FuzzFusedEncode), which no production code calls.

// stuff appends the stuffed encoding of src to dst: escape-free spans
// located by the SWAR scanner and copied in bulk. Where the scanner
// comes back with less than a word the input is dense in escapes, and
// the next block goes through the branch-free block stuffer instead, so
// the cost per octet does not depend on where the escapes fall.
func stuff(dst, src []byte, m hdlc.ACCM) []byte {
	for len(src) > 0 {
		n := hdlc.EscapeSpan(src, m)
		if n < 8 && n < len(src) {
			n = min(len(src), hdlc.BlockOctets)
			dst = hdlc.StuffBlock(dst, src[:n], m)
		} else {
			dst = append(dst, src[:n]...)
			if n < len(src) {
				dst = append(dst, hdlc.Escape, src[n]^hdlc.XorBit)
				n++
			}
		}
		src = src[n:]
	}
	return dst
}

// AppendFramed appends one complete wire frame — flag, stuffed
// hdr‖payload‖FCS(hdr‖payload), flag — to dst, allocating nothing
// beyond dst growth. hdr is the unstuffed frame head
// (address/control/protocol octets, already compressed as negotiated);
// the FCS of the selected size covers hdr then payload: the frame is
// the unit of the fold, one crc.Size.Update over the contiguous payload
// whatever escapes it holds. hdr goes through the in-package tables —
// it is a few octets, usually in the caller's stack frame, and must
// not escape. shareFlag elides the opening flag after a previous
// closing flag.
func AppendFramed(dst, hdr, payload []byte, s crc.Size, m hdlc.ACCM, shareFlag bool) []byte {
	if s == 0 {
		s = crc.FCS32Mode
	}
	if !shareFlag || len(dst) == 0 || dst[len(dst)-1] != hdlc.Flag {
		dst = append(dst, hdlc.Flag)
	}
	v := s.Finish(s.Update(s.Slicing(s.Init(), hdr), payload))
	dst = stuff(dst, hdr, m)
	dst = stuff(dst, payload, m)
	var tail [4]byte
	for i := 0; i < s.Bytes(); i++ {
		tail[i] = byte(v >> (8 * uint(i)))
	}
	dst = hdlc.Stuff(dst, tail[:s.Bytes()], m) // stuffed, not self-covered
	return append(dst, hdlc.Flag)
}

// AppendFrame appends the complete on-the-wire encoding of f — flags,
// stuffed header, payload and FCS — to dst with no intermediate body
// buffer. Zero Address and Control fields take the configured address
// and CtrlUI. shareFlag is as for AppendFramed.
func AppendFrame(dst []byte, f *Frame, c Config, shareFlag bool) []byte {
	var hdr [4]byte
	n := 0
	if !(c.ACFC && f.Protocol != ProtoLCP) {
		addr := f.Address
		if addr == 0 {
			addr = c.address()
		}
		ctrl := f.Control
		if ctrl == 0 {
			ctrl = CtrlUI
		}
		hdr[0], hdr[1] = addr, ctrl
		n = 2
	}
	if c.PFC && f.Protocol < 0x100 && f.Protocol&1 == 1 && f.Protocol != ProtoLCP {
		hdr[n] = byte(f.Protocol)
		n++
	} else {
		hdr[n], hdr[n+1] = byte(f.Protocol>>8), byte(f.Protocol)
		n += 2
	}
	return AppendFramed(dst, hdr[:n], f.Payload, c.fcs(), c.ACCM, shareFlag)
}

// DecodeBodyInto parses a destuffed frame body (as produced by the
// hdlc Tokenizer: address through FCS) into *f without allocating — the
// receive-side twin of AppendFrame. It verifies the FCS, polices the
// address and MRU, and understands compressed headers when the
// corresponding Config option is on. f.Payload aliases body.
func DecodeBodyInto(f *Frame, body []byte, c Config) error {
	fcsN := c.fcs().Bytes()
	if len(body) < fcsN+1 {
		return ErrTooShort
	}
	if !c.fcs().Check(body) {
		return ErrBadFCS
	}
	return decodeChecked(f, body[:len(body)-fcsN], c)
}

// DecodeVerifiedBodyInto parses a destuffed frame body whose FCS has
// already been verified upstream — by the tokenizer, which folds the
// frame check at the closing flag (hdlc.Token.FCSOK) — so the body is
// not traversed again here. Callers must only pass bodies with a true
// verdict; semantics otherwise match DecodeBodyInto.
func DecodeVerifiedBodyInto(f *Frame, body []byte, c Config) error {
	fcsN := c.fcs().Bytes()
	if len(body) < fcsN+1 {
		return ErrTooShort
	}
	return decodeChecked(f, body[:len(body)-fcsN], c)
}

// decodeChecked parses the header and payload of p, a frame body with
// the FCS field already verified and stripped.
func decodeChecked(f *Frame, p []byte, c Config) error {
	// Address/control, possibly compressed away (ACFC). A compressed
	// frame cannot begin with 0xFF: that would be ambiguous with the
	// address octet, so 0xFF always means "uncompressed header".
	if len(p) >= 2 && p[0] == AddrAllStations || !c.ACFC {
		if len(p) < 2 {
			return ErrTooShort
		}
		f.Address = p[0]
		f.Control = p[1]
		if !c.AnyAddress && f.Address != AddrAllStations && f.Address != c.address() {
			return ErrBadAddress
		}
		if f.Control != CtrlUI {
			return ErrBadControl
		}
		p = p[2:]
	} else {
		f.Address = c.address()
		f.Control = CtrlUI
	}
	// Protocol field: 2 octets, or 1 if PFC and the first octet is odd
	// (all protocol numbers have an odd low octet and even high octet,
	// RFC 1661 §2).
	if len(p) == 0 {
		return ErrBadProtocol
	}
	if p[0]&1 == 1 {
		if !c.PFC {
			return ErrBadProtocol
		}
		f.Protocol = uint16(p[0])
		p = p[1:]
	} else {
		if len(p) < 2 || p[1]&1 == 0 {
			return ErrBadProtocol
		}
		f.Protocol = uint16(p[0])<<8 | uint16(p[1])
		p = p[2:]
	}
	if len(p) > c.mru() {
		return ErrTooLong
	}
	f.Payload = p
	return nil
}
