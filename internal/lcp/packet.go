// Package lcp implements the PPP Link Control Protocol of RFC 1661: the
// control-packet codec, the full option-negotiation finite state machine
// (the "well-defined finite state machine" the P5 Transmitter/Receiver
// control units execute commands from), and the standard LCP
// configuration options (MRU, ACCM, magic number, PFC, ACFC).
//
// The state machine (Automaton) is protocol-agnostic — package ipcp
// reuses it with a different option policy, exactly as RFC 1661 intends
// the NCP family to.
package lcp

import (
	"errors"
	"fmt"
)

// Code is an LCP/NCP control packet code (RFC 1661 §5).
type Code byte

// Control packet codes.
const (
	ConfigureRequest Code = 1
	ConfigureAck     Code = 2
	configureNak     Code = 3
	ConfigureReject  Code = 4
	terminateRequest Code = 5
	terminateAck     Code = 6
	codeReject       Code = 7
	protocolReject   Code = 8
	EchoRequest      Code = 9
	echoReply        Code = 10
	discardRequest   Code = 11
)

var codeNames = map[Code]string{
	ConfigureRequest: "Configure-Request",
	ConfigureAck:     "Configure-Ack",
	configureNak:     "Configure-Nak",
	ConfigureReject:  "Configure-Reject",
	terminateRequest: "Terminate-Request",
	terminateAck:     "Terminate-Ack",
	codeReject:       "Code-Reject",
	protocolReject:   "Protocol-Reject",
	EchoRequest:      "Echo-Request",
	echoReply:        "Echo-Reply",
	discardRequest:   "Discard-Request",
}

func (c Code) String() string {
	if s, ok := codeNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Code(%d)", byte(c))
}

// Packet is one LCP/NCP control packet: code, identifier, and the data
// field (options, terminate reason, magic+data, ...).
type Packet struct {
	Code Code
	ID   byte
	Data []byte
}

// Codec errors.
var (
	errPacketShort  = errors.New("lcp: packet shorter than header")
	errPacketLength = errors.New("lcp: length field exceeds packet")
	errOptionFormat = errors.New("lcp: malformed option")
)

// Marshal appends the wire encoding of p (code, id, 16-bit length, data)
// to dst.
func (p *Packet) Marshal(dst []byte) []byte {
	n := 4 + len(p.Data)
	dst = append(dst, byte(p.Code), p.ID, byte(n>>8), byte(n))
	return append(dst, p.Data...)
}

// ParsePacket decodes a control packet from the PPP information field.
// Octets beyond the length field are padding and are discarded (RFC 1661
// §5).
func ParsePacket(b []byte) (*Packet, error) {
	if len(b) < 4 {
		return nil, errPacketShort
	}
	n := int(b[2])<<8 | int(b[3])
	if n < 4 || n > len(b) {
		return nil, errPacketLength
	}
	return &Packet{Code: Code(b[0]), ID: b[1], Data: b[4:n]}, nil
}

// Option is one TLV configuration option.
type Option struct {
	Type byte
	Data []byte
}

// marshal appends the option encoding (type, length-including-header,
// data) to dst.
func (o Option) marshal(dst []byte) []byte {
	dst = append(dst, o.Type, byte(2+len(o.Data)))
	return append(dst, o.Data...)
}

// MarshalOptions appends every option in order.
func MarshalOptions(dst []byte, opts []Option) []byte {
	for _, o := range opts {
		dst = o.marshal(dst)
	}
	return dst
}

// ParseOptions decodes a TLV option list.
func ParseOptions(b []byte) ([]Option, error) {
	var opts []Option
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, errOptionFormat
		}
		n := int(b[1])
		if n < 2 || n > len(b) {
			return nil, errOptionFormat
		}
		opts = append(opts, Option{Type: b[0], Data: append([]byte(nil), b[2:n]...)})
		b = b[n:]
	}
	return opts, nil
}

// optionsEqual reports whether two option lists are identical byte for
// byte — the test a Configure-Ack must pass (RFC 1661 §5.2).
func optionsEqual(a, b []Option) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}
