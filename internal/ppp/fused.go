package ppp

import (
	"encoding/binary"
	"slices"

	"repro/internal/crc"
	"repro/internal/hdlc"
)

// This file is the frame codec every production frame takes. Transmit
// is one encoder, (*Header).Append: what every frame of a link shares —
// the address/control/protocol head — is prepared once, as the P5 takes
// it from the OAM register file, and a frame then costs one FCS fold at
// datapath width and one stuffing walk: the software mirror of the
// paper's pipelined CRC → Escape Generate transmitter stages, a CRC
// core as wide as the bus ahead of the byte sorter. Tests hold it
// byte-for-byte equal to the two-pass, byte-at-a-time ReferenceEncode
// (reference.go; FuzzFusedEncode), which no production code calls.

// Header is the constant part of every frame of one protocol under one
// framing configuration: the head octets as they go on the wire and the
// FCS register as it stands after them. Prepare one (Config.Header) and
// Append it to a batch of payloads; do not keep it across a renegotiation.
type Header struct {
	head uint64 // stuffed head octets, the first on the wire in the low lane
	n    int    // how many: at most 8, four octets all escaped
	reg  uint32 // FCS register folded over the unstuffed head
	fcs  crc.Size
	accm hdlc.ACCM
}

// Header prepares the head of protocol proto's frames under c: address,
// CtrlUI and protocol number, compressed as negotiated (never for LCP).
func (c Config) Header(proto uint16) (h Header) {
	x, n := c.head(0, 0, proto)
	h.prepare(x, n, c.fcs(), c.ACCM)
	return h
}

// head assembles an unstuffed frame head as a little-endian word and its
// length: the fold loads it whole, and that stalls behind octet stores.
// A zero addr or ctrl takes the configured address or CtrlUI.
func (c Config) head(addr, ctrl byte, proto uint16) (x uint32, n int) {
	if !c.ACFC || proto == ProtoLCP {
		if addr == 0 {
			addr = c.address()
		}
		if ctrl == 0 {
			ctrl = CtrlUI
		}
		x, n = uint32(addr)|uint32(ctrl)<<8, 2
	}
	if c.PFC && proto < 0x100 && proto&1 == 1 { // never LCP, 0xC021
		return x | uint32(proto)<<(8*n), n + 1
	}
	return x | uint32(proto>>8)<<(8*n) | uint32(proto&0xFF)<<(8*n+8), n + 2
}

// prepare fills h for the n (at most 4) unstuffed head octets in x,
// folded through the in-package tables from a stack word that must not
// escape. In place, field by field — a Header copied whole between
// prepare and Append stalls on its narrow stores.
func (h *Header) prepare(x uint32, n int, s crc.Size, m hdlc.ACCM) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], x)
	h.reg, h.fcs, h.accm = s.Slicing(s.Init(), b[:n]), s, m
	h.head, h.n = stuffWord(x, n, m)
}

// stuffWord returns the stuffed encoding of the low n (at most 4)
// octets of x as a little-endian word, and its length. Nothing to
// escape — a SONET link's head, nearly every FCS — costs one lane test:
// no Flag, no Escape and, under a non-empty map, no control character,
// mapped or not. The zero test borrows across lanes, which can only
// flag a lane above a true match: exact for "is there any".
func stuffWord(x uint32, n int, m hdlc.ACCM) (uint64, int) {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	w := uint64(x) | ^uint64(0)<<(8*uint(n)) // lanes past n read 0xFF: never escaped
	f, e := w^lsb*hdlc.Flag, w^lsb*hdlc.Escape
	hit := (f-lsb)&^f | (e-lsb)&^e
	if m != 0 {
		c := w & (lsb * 0xE0) // a lane under 0x20 has its top three bits clear
		hit |= (c - lsb) &^ c
	}
	if hit&msb == 0 {
		return uint64(x), n
	}
	var b [12]byte // eight octets of room, then the source
	binary.LittleEndian.PutUint32(b[8:], x)
	n = len(hdlc.Stuff(b[:0], b[8:8+n], m))
	return binary.LittleEndian.Uint64(b[:]), n
}

// Append appends one complete wire frame — flag, the prepared head,
// stuffed payload, stuffed FCS(head‖payload), flag — to dst, allocating
// nothing beyond dst growth: the worst case is reserved once and every
// octet stored by index. The frame is the unit of the fold, one
// crc.Size.Update over the contiguous payload from the Header's
// register. The payload goes out through the block kernel
// (hdlc.AppendStuffed): clean runs by memmove, escapes by a walk over
// each 64-octet block's delimiter bitmap, so the cost per octet does
// not depend on where the escapes fall. shareFlag elides the opening
// flag after a previous closing flag.
func (h *Header) Append(dst, payload []byte, shareFlag bool) []byte {
	j := len(dst)
	// Flag, head and FCS stored as whole words (8 + 8), 2 per octet and
	// the block kernel's slack, flag: reserved once.
	dst = slices.Grow(dst, 2*len(payload)+hdlc.BlockOctets+18)[:j+9]
	if !shareFlag || j == 0 || dst[j-1] != hdlc.Flag {
		dst[j] = hdlc.Flag
		j++
	}
	binary.LittleEndian.PutUint64(dst[j:], h.head)
	v := h.fcs.Finish(h.fcs.Update(h.reg, payload))
	dst = hdlc.AppendStuffed(dst[:j+h.n], payload, h.accm)
	j = len(dst)
	tail, n := stuffWord(v, h.fcs.Bytes(), h.accm) // stuffed, not self-covered
	dst = dst[:j+9]
	binary.LittleEndian.PutUint64(dst[j:], tail)
	dst[j+n] = hdlc.Flag
	return dst[:j+n+1]
}

// AppendFramed appends one complete wire frame to dst from a raw head:
// hdr is the unstuffed address/control/protocol octets, compressed as
// negotiated; the FCS of the selected size covers hdr then payload. It
// prepares hdr per frame — a word-wide step — and ends in Header.Append.
func AppendFramed(dst, hdr, payload []byte, s crc.Size, m hdlc.ACCM, shareFlag bool) []byte {
	if s == 0 {
		s = crc.FCS32Mode
	}
	if len(hdr) > 4 {
		panic("ppp: frame head longer than four octets")
	}
	var x uint32
	for i, b := range hdr {
		x |= uint32(b) << (8 * i)
	}
	var h Header
	h.prepare(x, len(hdr), s, m)
	return h.Append(dst, payload, shareFlag)
}

// AppendFrame appends the complete on-the-wire encoding of f — flags,
// stuffed header, payload and FCS — to dst with no intermediate body
// buffer. Zero Address and Control fields take the configured address
// and CtrlUI. It ends in Header.Append, shareFlag included.
func AppendFrame(dst []byte, f *Frame, c Config, shareFlag bool) []byte {
	var h Header
	x, n := c.head(f.Address, f.Control, f.Protocol)
	h.prepare(x, n, c.fcs(), c.ACCM)
	return h.Append(dst, f.Payload, shareFlag)
}

// DecodeBodyInto parses a destuffed frame body (as produced by the
// hdlc Tokenizer: address through FCS) into *f without allocating — the
// receive-side twin of AppendFrame. It verifies the FCS, polices the
// address and MRU, and understands compressed headers when the
// corresponding Config option is on. f.Payload aliases body.
func DecodeBodyInto(f *Frame, body []byte, c Config) error {
	if s := c.fcs(); len(body) > s.Bytes() && !s.Check(body) {
		return ErrBadFCS
	}
	return decodeChecked(f, body, &c)
}

// DecodeVerifiedBodyInto parses a destuffed frame body whose FCS has
// already been verified upstream — by the tokenizer, which folds the
// frame check at the closing flag (hdlc.Token.FCSOK) — so the body is
// not traversed again here. Callers must only pass bodies with a true
// verdict; semantics otherwise match DecodeBodyInto. It inlines: the
// caller is one call from the parse.
func DecodeVerifiedBodyInto(f *Frame, body []byte, c Config) error {
	return decodeChecked(f, body, &c)
}

// decodeChecked parses the header and payload of body, a frame body
// whose FCS field the caller has verified; it is stripped here.
func decodeChecked(f *Frame, body []byte, c *Config) error {
	n := len(body) - c.fcs().Bytes()
	if n < 1 {
		return errTooShort
	}
	p := body[:n]
	// Address/control, possibly compressed away (ACFC). A compressed
	// frame cannot begin with 0xFF: that would be ambiguous with the
	// address octet, so 0xFF always means "uncompressed header".
	if len(p) >= 2 && p[0] == AddrAllStations || !c.ACFC {
		if len(p) < 2 {
			return errTooShort
		}
		f.Address = p[0]
		f.Control = p[1]
		if !c.AnyAddress && f.Address != AddrAllStations && f.Address != c.address() {
			return ErrBadAddress
		}
		if f.Control != CtrlUI {
			return errBadControl
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
		return errBadProtocol
	}
	if p[0]&1 == 1 {
		if !c.PFC {
			return errBadProtocol
		}
		f.Protocol = uint16(p[0])
		p = p[1:]
	} else {
		if len(p) < 2 || p[1]&1 == 0 {
			return errBadProtocol
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
