// Package ipcp implements the IP Control Protocol (RFC 1332), the NCP
// that configures IPv4 over an opened PPP link. It reuses the generic
// RFC 1661 automaton from package lcp with an IPCP option policy —
// demonstrating the "family of Network Control Protocols" structure
// the paper's Protocol OAM block mediates.
package ipcp

import "repro/internal/lcp"

// IPCP configuration option types (RFC 1332).
const (
	OptIPAddresses   = 1 // deprecated pairwise form; always rejected
	optIPCompression = 2 // Van Jacobson; rejected (not implemented)
	optIPAddress     = 3
)

// Addr is an IPv4 address in host-independent 4-byte form.
type Addr [4]byte

// isZero reports whether the address is 0.0.0.0.
func (a Addr) isZero() bool { return a == Addr{} }

func (a Addr) String() string {
	var b []byte
	for i, o := range a {
		if i > 0 {
			b = append(b, '.')
		}
		b = appendUint(b, o)
	}
	return string(b)
}

func appendUint(b []byte, v byte) []byte {
	if v >= 100 {
		b = append(b, '0'+v/100)
	}
	if v >= 10 {
		b = append(b, '0'+v/10%10)
	}
	return append(b, '0'+v%10)
}

// Policy is the IPCP option policy. WantAddr is the address we request
// for ourselves (zero asks the peer to assign one); AssignPeer, when
// non-zero, is the address we insist the peer uses if it proposes none
// (or proposes one we must override).
type Policy struct {
	WantAddr   Addr
	AssignPeer Addr

	// WantVJ requests Van Jacobson TCP/IP header compression for our
	// receive direction (RFC 1332 §4); AllowVJ grants it to the peer.
	WantVJ  bool
	AllowVJ bool

	// Negotiated results.
	LocalAddr Addr // our address, acknowledged by the peer
	PeerAddr  Addr // the peer's address, acknowledged by us
	// VJToPeer means we may send VJ-compressed packets to the peer.
	VJToPeer bool

	rejected map[byte]bool
}

// vjProto is the compression-protocol identifier for VJ (RFC 1332 §4).
const vjProto = 0x002D

// vjMaxSlotID is the max-slot-id we advertise: 16 slots, RFC 1144's
// number.
const vjMaxSlotID = 15

func (p *Policy) vjOption() lcp.Option {
	// proto(2) max-slot-id(1) comp-slot-id(1).
	return lcp.Option{Type: optIPCompression,
		Data: []byte{byte(vjProto >> 8), byte(vjProto), vjMaxSlotID, 0}}
}

// NewPolicy returns an IPCP policy requesting the given local address.
func NewPolicy(want Addr) *Policy {
	return &Policy{WantAddr: want}
}

// LocalOptions implements lcp.Policy.
func (p *Policy) LocalOptions() []lcp.Option {
	var opts []lcp.Option
	if p.WantVJ && !p.rejected[optIPCompression] {
		opts = append(opts, p.vjOption())
	}
	if !p.rejected[optIPAddress] {
		opts = append(opts, lcp.Option{Type: optIPAddress, Data: append([]byte(nil), p.WantAddr[:]...)})
	}
	return opts
}

// CheckRequest implements lcp.Policy.
func (p *Policy) CheckRequest(opts []lcp.Option) (naks, rejs []lcp.Option) {
	for _, o := range opts {
		switch o.Type {
		case optIPCompression:
			if !p.AllowVJ || len(o.Data) != 4 ||
				o.Data[0] != byte(vjProto>>8) || o.Data[1] != byte(vjProto) {
				rejs = append(rejs, o)
			}
		case optIPAddress:
			if len(o.Data) != 4 {
				rejs = append(rejs, o)
				continue
			}
			var a Addr
			copy(a[:], o.Data)
			if a.isZero() {
				if p.AssignPeer.isZero() {
					// Peer wants an assignment but we have none to
					// give: reject the option.
					rejs = append(rejs, o)
				} else {
					naks = append(naks, lcp.Option{Type: optIPAddress, Data: append([]byte(nil), p.AssignPeer[:]...)})
				}
			}
		default:
			rejs = append(rejs, o)
		}
	}
	return naks, rejs
}

// ApplyPeer implements lcp.Policy.
func (p *Policy) ApplyPeer(opts []lcp.Option) {
	for _, o := range opts {
		switch o.Type {
		case optIPAddress:
			if len(o.Data) == 4 {
				copy(p.PeerAddr[:], o.Data)
			}
		case optIPCompression:
			// The peer asked to receive compressed packets: we may
			// compress toward it.
			p.VJToPeer = true
		}
	}
}

// PeerAcked implements lcp.Policy.
func (p *Policy) PeerAcked(opts []lcp.Option) {
	for _, o := range opts {
		switch o.Type {
		case optIPAddress:
			if len(o.Data) == 4 {
				copy(p.LocalAddr[:], o.Data)
			}
		}
	}
}

// HandleNak implements lcp.Policy: adopt the address the peer assigns.
func (p *Policy) HandleNak(opts []lcp.Option) {
	for _, o := range opts {
		if o.Type == optIPAddress && len(o.Data) == 4 {
			copy(p.WantAddr[:], o.Data)
		}
	}
}

// HandleReject implements lcp.Policy.
func (p *Policy) HandleReject(opts []lcp.Option) {
	if p.rejected == nil {
		p.rejected = make(map[byte]bool)
	}
	for _, o := range opts {
		p.rejected[o.Type] = true
	}
}
