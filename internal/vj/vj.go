// Package vj implements Van Jacobson TCP/IP header compression
// (RFC 1144), the compression PPP negotiates for protocol 0x002D —
// part of the dial-up/low-speed deployment context the paper's
// introduction describes. A 40-octet TCP/IP header pair compresses to
// 3-16 octets by sending only the deltas against per-connection state
// kept in a small slot table at both ends.
//
// The implementation covers the full RFC 1144 A.2/A.3 algorithm for
// option-less headers: the C/I/P/S/A/W/U change mask, the two special
// encodings for echoed interactive traffic and unidirectional data
// transfer, 1-or-3-octet delta encoding, slot recycling, and the "toss"
// error-recovery rule on the decompressor.
package vj

import (
	"encoding/binary"
	"errors"
)

// Packet types on the wire (carried in the PPP protocol field in real
// deployments: TypeIP → 0x0021, TypeUncompressed → 0x002F,
// TypeCompressed → 0x002D).
type Type byte

// The three packet classes of RFC 1144.
const (
	// typeIP is an unmodified IP datagram (not TCP, or not
	// compressible).
	typeIP Type = iota
	// TypeUncompressed is a TCP datagram whose IP protocol field has
	// been replaced with the connection slot number; it installs
	// state.
	TypeUncompressed
	// TypeCompressed carries only the change mask and deltas.
	TypeCompressed
)

// Change-mask bits (RFC 1144 A.3).
const (
	newC = 0x40
	newI = 0x20
	newP = 0x10 // TCP PSH copied directly
	newS = 0x08
	newA = 0x04
	newW = 0x02
	newU = 0x01

	specialsMask = newS | newA | newW | newU
	// specialI: echoed interactive traffic (ack and seq both advance
	// by the amount of user data in the previous packet).
	specialI = newS | newW | newU
	// specialD: unidirectional data transfer (seq advances by the
	// previous packet's data, ack unchanged).
	specialD = newS | newA | newW | newU
)

// maxSlots is the connection-state table size of both ends (RFC 1144:
// 16).
const maxSlots = 16

// Header layout offsets within the 40-octet IP+TCP header block.
const (
	ipVerIHL = 0
	ipTotLen = 2
	ipID     = 4
	ipTTL    = 8
	ipProto  = 9
	ipCksum  = 10
	ipSrc    = 12
	ipDst    = 16
	tcpOff   = 20 // start of TCP header
	tcpSport = 20
	tcpDport = 22
	tcpSeq   = 24
	tcpAck   = 28
	tcpOffFl = 32 // data offset / reserved
	tcpFlags = 33
	tcpWin   = 34
	tcpCksum = 36
	tcpUrg   = 38
	hdrLen   = 40
	protoTCP = 6
)

// TCP flag bits.
const (
	flFIN = 0x01
	flSYN = 0x02
	flRST = 0x04
	flPSH = 0x08
	flACK = 0x10
	flURG = 0x20
)

// slot is one connection's saved header.
type slot struct {
	used bool
	hdr  [hdrLen]byte
	// age for LRU recycling.
	age uint64
}

func (s *slot) u16(off int) uint16 { return binary.BigEndian.Uint16(s.hdr[off:]) }
func (s *slot) u32(off int) uint32 { return binary.BigEndian.Uint32(s.hdr[off:]) }

// dataLen returns the TCP payload length recorded in the saved header.
func (s *slot) dataLen() int {
	return int(s.u16(ipTotLen)) - hdrLen
}

// connKey identifies a TCP connection.
type connKey struct {
	src, dst     uint32
	sport, dport uint16
}

func keyOf(p []byte) connKey {
	return connKey{
		src:   binary.BigEndian.Uint32(p[ipSrc:]),
		dst:   binary.BigEndian.Uint32(p[ipDst:]),
		sport: binary.BigEndian.Uint16(p[tcpSport:]),
		dport: binary.BigEndian.Uint16(p[tcpDport:]),
	}
}

// compressible reports whether p is an option-less, unfragmented TCP
// datagram long enough to carry both headers.
func compressible(p []byte) bool {
	if len(p) < hdrLen || p[ipVerIHL] != 0x45 || p[ipProto] != protoTCP {
		return false
	}
	if binary.BigEndian.Uint16(p[6:])&0x3FFF != 0 { // MF or fragment offset
		return false
	}
	if p[tcpOffFl]>>4 != 5 { // TCP options present
		return false
	}
	if int(binary.BigEndian.Uint16(p[ipTotLen:])) != len(p) {
		return false
	}
	return true
}

// appendDelta encodes a 16-bit delta: 1 octet for 1-255, else 0 + two
// octets (RFC 1144 A.2).
func appendDelta(dst []byte, d uint16) []byte {
	if d >= 1 && d <= 255 {
		return append(dst, byte(d))
	}
	return append(dst, 0, byte(d>>8), byte(d))
}

// readDelta decodes one delta field.
func readDelta(b []byte) (d uint16, n int, err error) {
	if len(b) < 1 {
		return 0, 0, errTruncated
	}
	if b[0] != 0 {
		return uint16(b[0]), 1, nil
	}
	if len(b) < 3 {
		return 0, 0, errTruncated
	}
	return binary.BigEndian.Uint16(b[1:]), 3, nil
}

var (
	errTruncated = errors.New("vj: truncated compressed header")
	// errBadSlot reports a compressed packet naming an uninstalled
	// connection; the decompressor tosses until the next uncompressed
	// packet.
	errBadSlot = errors.New("vj: reference to uninstalled connection state")
	// errTossed reports packets discarded while resynchronising.
	errTossed = errors.New("vj: tossed awaiting uncompressed packet")
)
