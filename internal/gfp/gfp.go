// Package gfp implements the core of the Generic Framing Procedure
// (ITU-T G.7041), the length/HEC-delineated alternative to HDLC
// flag/stuffing framing. The paper's authors' follow-up work
// ("Investigation into Programmability for Layer 2 Protocol Frame
// Delineation Architectures") compares exactly these two delineation
// families: HDLC's per-octet stuffing makes line overhead depend on
// payload content (up to 2×), while GFP pays a fixed 8-octet header
// whatever the payload — the trade quantified in experiment E15.
//
// Implemented: the 4-octet core header (16-bit PLI + CRC-16 cHEC), the
// type header with tHEC, idle frames, the HUNT→PRESYNC→SYNC delineation
// state machine of G.7041 §6.3, and single-bit error correction of the
// core header in SYNC state. The x^43+1 payload self-synchronous
// scrambler is omitted (it exists to break long payload runs on optical
// links and does not affect delineation behaviour, which is what the
// comparison needs); the omission is noted in DESIGN.md.
package gfp

import "errors"

// crc16CCITT computes the GFP HEC: CRC-16 with generator
// x^16+x^12+x^5+1, MSB first, zero init, no complement (G.7041 §6.1.2).
func crc16CCITT(p []byte) uint16 {
	var c uint16
	for _, b := range p {
		c ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if c&0x8000 != 0 {
				c = c<<1 ^ 0x1021
			} else {
				c <<= 1
			}
		}
	}
	return c
}

// coreScramble is the Barker-like word XORed over the core header
// (G.7041 §6.1.2.2): it decorrelates the header from payload content so
// the HEC hunt cannot lock onto in-band data — notably the type header,
// which uses the same CRC and would otherwise alias perfectly.
var coreScramble = [4]byte{0xB6, 0xAB, 0x31, 0xE0}

// Header sizes.
const (
	coreHeaderLen = 4 // PLI(2) + cHEC(2)
	typeHeaderLen = 4 // type(2) + tHEC(2)
)

// maxPayload bounds the payload (PLI covers type header + payload).
const maxPayload = 65535 - typeHeaderLen

// typeClientData is the payload type field value (simplified: client
// data is the only type carried).
const typeClientData = 0x1000

// Errors.
var (
	errTooLong = errors.New("gfp: payload exceeds PLI range")
)

// Encode appends one GFP client-data frame carrying payload to dst.
func Encode(dst, payload []byte) ([]byte, error) {
	if len(payload) > maxPayload {
		return dst, errTooLong
	}
	pli := uint16(len(payload) + typeHeaderLen)
	hdr := [4]byte{byte(pli >> 8), byte(pli)}
	chec := crc16CCITT(hdr[:2])
	hdr[2], hdr[3] = byte(chec>>8), byte(chec)
	for i := range hdr {
		hdr[i] ^= coreScramble[i]
	}
	dst = append(dst, hdr[:]...)
	dst = append(dst, byte(typeClientData>>8), byte(typeClientData&0xFF))
	thec := crc16CCITT(dst[len(dst)-2:])
	dst = append(dst, byte(thec>>8), byte(thec))
	return append(dst, payload...), nil
}

// Delineation states (G.7041 §6.3.1).
type state int

// The three delineation states.
const (
	hunt state = iota
	presync
	sync
)

func (s state) String() string {
	switch s {
	case hunt:
		return "HUNT"
	case presync:
		return "PRESYNC"
	default:
		return "SYNC"
	}
}

// delta is the number of consecutive correct core headers required to
// move from PRESYNC to SYNC.
const delta = 1

// deframer is the streaming GFP delineator.
type deframer struct {
	// Deliver receives each client-data payload.
	Deliver func([]byte)

	state   state
	buf     []byte
	confirm int // correct headers seen in PRESYNC

	// Counters.
	Frames, Idles, Corrected, HECErrors, Hunts uint64
}

// delineation reports the delineation state.
func (d *deframer) delineation() state { return d.state }

// feed consumes received octets.
func (d *deframer) feed(p []byte) {
	d.buf = append(d.buf, p...)
	for d.step() {
	}
}

// step tries to make progress; reports whether more may be possible.
func (d *deframer) step() bool {
	switch d.state {
	case hunt:
		// Slide octet by octet until a core header's cHEC matches.
		for len(d.buf) >= coreHeaderLen {
			if d.coreHeaderOK(false) {
				d.state = presync
				d.confirm = 0
				return true
			}
			d.buf = d.buf[1:]
		}
		return false
	case presync, sync:
		if len(d.buf) < coreHeaderLen {
			return false
		}
		correctable := d.state == sync
		if !d.coreHeaderOK(correctable) {
			// Lost delineation.
			d.HECErrors++
			d.state = hunt
			d.Hunts++
			d.buf = d.buf[1:]
			return true
		}
		pli := int(d.buf[0]^coreScramble[0])<<8 | int(d.buf[1]^coreScramble[1])
		if pli == 0 {
			// Idle frame.
			d.buf = d.buf[coreHeaderLen:]
			d.Idles++
			d.advanceSync()
			return true
		}
		if len(d.buf) < coreHeaderLen+pli {
			return false // frame body still arriving
		}
		body := d.buf[coreHeaderLen : coreHeaderLen+pli]
		d.buf = d.buf[coreHeaderLen+pli:]
		d.advanceSync()
		d.frame(body)
		return true
	}
	return false
}

func (d *deframer) advanceSync() {
	if d.state == presync {
		d.confirm++
		if d.confirm >= delta {
			d.state = sync
		}
	}
}

// coreHeaderOK verifies (and in SYNC state, single-bit-corrects) the
// descrambled core header at the front of the buffer.
func (d *deframer) coreHeaderOK(correct bool) bool {
	var h [4]byte
	for i := range h {
		h[i] = d.buf[i] ^ coreScramble[i]
	}
	consistent := func() bool {
		return uint16(h[2])<<8|uint16(h[3]) == crc16CCITT(h[:2])
	}
	if consistent() {
		return true
	}
	if !correct {
		return false
	}
	// Single-bit correction: the syndrome of a 1-bit error in the
	// 32-bit header is unique; try all 32 flips (a hardware
	// implementation uses a syndrome LUT — same mathematics).
	for bit := 0; bit < 32; bit++ {
		h[bit/8] ^= 0x80 >> uint(bit%8)
		if consistent() {
			d.buf[bit/8] ^= 0x80 >> uint(bit%8) // repair in place
			d.Corrected++
			return true
		}
		h[bit/8] ^= 0x80 >> uint(bit%8)
	}
	return false
}

// frame validates the type header and delivers client data.
func (d *deframer) frame(body []byte) {
	if len(body) < typeHeaderLen {
		d.HECErrors++
		return
	}
	thec := uint16(body[2])<<8 | uint16(body[3])
	if thec != crc16CCITT(body[:2]) {
		d.HECErrors++
		return
	}
	ptype := int(body[0])<<8 | int(body[1])
	d.Frames++
	if ptype == typeClientData && d.Deliver != nil {
		d.Deliver(body[typeHeaderLen:])
	}
}
