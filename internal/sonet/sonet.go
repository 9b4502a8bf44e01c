// Package sonet is the SDH/SONET physical-layer substrate: a simplified
// but structurally faithful STM-N framer and deframer carrying the
// byte-synchronous HDLC/PPP payload mapping of RFC 1619/2615 — the
// "PHY" blocks on either side of the P5 in the paper's Figure 2.
//
// A transport frame is 9 rows by 270·N columns repeated every 125 µs.
// The model implements the overhead actually needed to exercise the
// datapath: A1/A2 frame alignment, B1/B3 BIP-8 parity monitoring, the
// C2 path-signal label for PPP, the x^7+x^6+1 frame-synchronous
// scrambler, and a concatenated payload area. Pointers are fixed
// (concatenation with zero offset), which matches the byte-synchronous
// mapping the paper assumes.
package sonet

import (
	"crypto/subtle"
	"encoding/binary"
)

// Level is the STM level N (STM-1, STM-4, STM-16...). OC-3N equivalent.
type Level int

// Common levels and their line rates.
const (
	STM1  Level = 1  // OC-3,  155.52 Mb/s
	STM4  Level = 4  // OC-12, 622.08 Mb/s
	STM16 Level = 16 // OC-48, 2488.32 Mb/s — the paper's 2.5 Gb/s target
	STM64 Level = 64 // OC-192, 9953.28 Mb/s — the scaling study's ceiling
)

// Geometry constants (per STM-1).
const (
	rows        = 9
	colsPerSTM1 = 270
	sohCols     = 9 // section+line overhead columns per STM-1
	// framesPerSecond is the 125 µs frame cadence.
	framesPerSecond = 8000
)

// FrameBytes returns the transport frame size in octets.
func (n Level) FrameBytes() int { return rows * colsPerSTM1 * int(n) }

// LineRate returns the gross line rate in bits per second.
func (n Level) LineRate() float64 {
	return float64(n.FrameBytes()) * 8 * framesPerSecond
}

// rowBytes is the octets per row of the transport frame.
func (n Level) rowBytes() int { return colsPerSTM1 * int(n) }

// sohBytes is the section/line overhead octets at the head of each row.
func (n Level) sohBytes() int { return sohCols * int(n) }

// rowPayload is the HDLC octets carried per row: everything after the
// overhead columns except the single path-overhead octet. The payload
// area is concatenated (one VC-4-Nc), so there is one POH column per
// frame, not one per STM-1.
func (n Level) rowPayload() int { return n.rowBytes() - n.sohBytes() - 1 }

// PayloadBytes returns the octets per frame available to the HDLC
// stream, 9·(261·N − 1): the payload area minus the one path-overhead
// column. It is exactly what Framer.NextFrame pulls and what the
// Deframer emits per frame.
func (n Level) PayloadBytes() int { return rows * n.rowPayload() }

// Overhead byte values.
const (
	a1 = 0xF6 // frame alignment, first half
	a2 = 0x28 // frame alignment, second half
	// c2ppp is the path signal label for PPP/HDLC payload (RFC 2615).
	c2ppp = 0x16
)

// scrambler is the frame-synchronous SDH scrambler, generator
// 1 + x^6 + x^7, reset to all ones at the first payload-scrambled byte
// of every frame. Scrambling is an XOR stream, so the same operation
// descrambles.
type scrambler struct {
	state byte
}

// reset re-seeds the scrambler (start of frame).
func (s *scrambler) reset() { s.state = 0x7F }

// next returns the next scrambler byte (eight successive LFSR bits).
func (s *scrambler) next() byte {
	var out byte
	st := s.state // 7-bit state
	for i := 7; i >= 0; i-- {
		bit := (st >> 6) & 1 // x^7 tap
		out |= bit << uint(i)
		fb := ((st >> 6) ^ (st >> 5)) & 1 // x^7 + x^6
		st = (st<<1 | fb) & 0x7F
	}
	s.state = st
	return out
}

// scramblerPeriod is the octet period of the scrambler stream: the
// 127-bit maximal-length sequence realigns with octet boundaries after
// 127 octets, and because 8 and 127 are coprime those 127 octet phases
// visit every non-zero LFSR state exactly once.
const scramblerPeriod = 127

// scramblerTile is how many periods one word-wide XOR covers.
const scramblerTile = 32

// scramblerStream is the scrambler stream as a table, derived once from
// scrambler.next (the reference definition): scramblerTile+1
// back-to-back periods of stream octets, so scramblerTile periods
// starting at any phase are one contiguous slice.
var scramblerStream [(scramblerTile + 1) * scramblerPeriod]byte

func init() {
	var s scrambler
	s.reset()
	for i := 0; i < scramblerPeriod; i++ {
		scramblerStream[i] = s.next()
	}
	for at := scramblerPeriod; at < len(scramblerStream); at += scramblerPeriod {
		copy(scramblerStream[at:], scramblerStream[:scramblerPeriod])
	}
}

// xorStream sets dst[i] = src[i] ^ stream[phase+i], scramblerTile
// periods per word-wide XOR, and returns the phase after the last
// octet. dst and src are the same length and either the same slice or
// disjoint. Phase 0 is the frame-synchronous reset point.
func xorStream(dst, src []byte, phase int) int {
	for len(src) > 0 {
		n := subtle.XORBytes(dst, src, scramblerStream[phase:phase+scramblerTile*scramblerPeriod])
		dst, src = dst[n:], src[n:]
		phase = (phase + n) % scramblerPeriod
	}
	return phase
}

// bip8 computes even byte-interleaved parity over p, folding eight
// octets per step.
func bip8(p []byte) byte {
	var w uint64
	for len(p) >= 32 {
		w ^= binary.LittleEndian.Uint64(p) ^ binary.LittleEndian.Uint64(p[8:]) ^
			binary.LittleEndian.Uint64(p[16:]) ^ binary.LittleEndian.Uint64(p[24:])
		p = p[32:]
	}
	for len(p) >= 8 {
		w ^= binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	w ^= w >> 32
	w ^= w >> 16
	w ^= w >> 8
	b := byte(w)
	for _, x := range p {
		b ^= x
	}
	return b
}

// lineStart returns the octet offset of the line-overhead rows within a
// transport frame: B2 parity coverage starts here (the section overhead
// rows above are excluded, per the B2 definition).
func lineStart(n Level) int { return 3 * n.rowBytes() }

// apsRow is the frame row carrying B2/K1/K2 (row 5 of the standard's
// 1-indexed layout).
const apsRow = 4

// pathBIP is the B3 coverage of a clear (descrambled) frame: BIP-8 over
// the path-overhead octet and payload of every row.
func pathBIP(frame []byte, n Level) byte {
	row, soh := n.rowBytes(), n.sohBytes()
	var b byte
	for r := 0; r < rows; r++ {
		b ^= bip8(frame[r*row+soh : (r+1)*row])
	}
	return b
}
