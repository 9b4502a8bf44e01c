// Package ppp implements the PPP encapsulation of RFC 1661 atop the HDLC
// framing of package hdlc: the Flag/Address/Control/Protocol/Payload/FCS
// frame of the paper's Figure 1, with the negotiable variations the P5
// register map exposes — programmable address (MAPOS), protocol-field
// compression, address-and-control-field compression, and 16- or 32-bit
// FCS.
package ppp

import (
	"errors"
	"fmt"

	"repro/internal/crc"
	"repro/internal/hdlc"
)

// Standard field values (RFC 1662 §3.1).
const (
	// AddrAllStations is the default HDLC address: all stations accept.
	AddrAllStations = 0xFF
	// CtrlUI is the control value for unnumbered information frames,
	// the normal PPP operating mode.
	CtrlUI = 0x03
)

// Well-known protocol numbers (RFC 1661 §2; assigned numbers).
const (
	ProtoIPv4 = 0x0021
	ProtoIPv6 = 0x0057
	ProtoVJC  = 0x002D // Van Jacobson compressed TCP/IP
	ProtoVJU  = 0x002F // Van Jacobson uncompressed TCP/IP
	ProtoIPCP = 0x8021
	ProtoLCP  = 0xC021
	ProtoPAP  = 0xC023
	ProtoLQR  = 0xC025 // link quality report (RFC 1333)
	ProtoCHAP = 0xC223
)

// DefaultMRU is the maximum-receive-unit every implementation must accept
// until a different value is negotiated (RFC 1661 §6.1).
const DefaultMRU = 1500

// Decode errors.
var (
	errTooShort    = errors.New("ppp: frame too short")
	ErrBadAddress  = errors.New("ppp: unexpected address field")
	errBadControl  = errors.New("ppp: unexpected control field")
	errBadProtocol = errors.New("ppp: malformed protocol field")
	ErrTooLong     = errors.New("ppp: payload exceeds MRU")
)

// Frame is one PPP frame between the flags, before stuffing.
type Frame struct {
	// Address is the HDLC address octet. The paper makes this
	// programmable for MAPOS compatibility; it defaults to
	// AddrAllStations.
	Address byte
	// Control is the HDLC control octet, CtrlUI unless numbered mode
	// (RFC 1663) is negotiated.
	Control byte
	// Protocol identifies the payload (ProtoIPv4, ProtoLCP, ...).
	Protocol uint16
	// Payload is the information field, excluding padding.
	Payload []byte
}

// Config is the per-link framing configuration — the software image of the
// P5 OAM control registers.
type Config struct {
	// Address is the expected/emitted address octet; zero means
	// AddrAllStations. The receiver rejects frames whose address
	// matches neither this value nor AddrAllStations unless
	// AnyAddress is set.
	Address byte
	// AnyAddress accepts every address octet on receive (promiscuous
	// MAPOS monitoring).
	AnyAddress bool
	// PFC enables protocol-field compression: protocols < 0x100 (which
	// are all odd) are sent as one octet.
	PFC bool
	// ACFC enables address-and-control-field compression: the FF 03
	// prefix is omitted for network-layer protocols. LCP frames are
	// always sent uncompressed (RFC 1661 §6.6).
	ACFC bool
	// FCS selects the frame-check-sequence size; the zero value means
	// crc.FCS32Mode, the mode the paper's P5 implements.
	FCS crc.Size
	// MRU bounds the information field on receive; zero means
	// DefaultMRU.
	MRU int
	// ACCM is the transmit async-control-character map.
	ACCM hdlc.ACCM
}

func (c Config) address() byte {
	if c.Address == 0 {
		return AddrAllStations
	}
	return c.Address
}

func (c Config) fcs() crc.Size {
	if c.FCS == 0 {
		return crc.FCS32Mode
	}
	return c.FCS
}

func (c Config) mru() int {
	if c.MRU == 0 {
		return DefaultMRU
	}
	return c.MRU
}

// String implements fmt.Stringer for log-friendly frame dumps.
func (f *Frame) String() string {
	return fmt.Sprintf("PPP{addr=%#02x ctrl=%#02x proto=%#04x len=%d}",
		f.Address, f.Control, f.Protocol, len(f.Payload))
}
