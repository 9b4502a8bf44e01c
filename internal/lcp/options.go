package lcp

import (
	"encoding/binary"

	"repro/internal/hdlc"
	"repro/internal/ppp"
)

// LCP configuration option types (RFC 1661 §6, RFC 1662 §7).
const (
	optMRU         = 1
	optACCM        = 2
	optAuthProto   = 3
	OptQualityProt = 4
	optMagic       = 5
	OptPFC         = 7
	OptACFC        = 8
)

// minMRU is the smallest MRU this implementation will agree to operate
// with; smaller peer proposals are naked up to it.
const minMRU = 128

// LinkParams is one direction's negotiated parameter set.
type LinkParams struct {
	MRU   int
	ACCM  hdlc.ACCM
	Magic uint32
	PFC   bool
	ACFC  bool
}

// defaultLinkParams are the RFC defaults in force before negotiation.
func defaultLinkParams() LinkParams {
	return LinkParams{MRU: ppp.DefaultMRU, ACCM: hdlc.ACCMAll}
}

// LCPPolicy is the standard LCP option Policy. Configure the Want*
// fields before opening; after the automaton reaches Opened, Local holds
// the parameters the peer granted us and Peer holds the parameters we
// granted the peer.
type LCPPolicy struct {
	// WantMRU requests a non-default MRU (0 = don't request).
	WantMRU int
	// WantACCM requests a transmit ACCM; meaningful on octet-
	// synchronous links (SONET) where it is negotiated down to 0.
	// RequestACCM gates it since the zero value is a real request.
	WantACCM    hdlc.ACCM
	RequestACCM bool
	// WantMagic requests magic-number loopback detection with this
	// non-zero magic.
	WantMagic uint32
	// WantPFC/WantACFC request header compression.
	WantPFC  bool
	WantACFC bool
	// AllowPFC/AllowACFC accept the peer requesting compression toward
	// us.
	AllowPFC  bool
	AllowACFC bool
	// RequireAuth, when non-zero, demands the peer authenticate with
	// this protocol (0xC023 PAP or 0xC223 CHAP/MD5) before the network
	// phase — the authenticator side of RFC 1661 §3.5.
	RequireAuth uint16
	// CanAuth lists the authentication protocols this node is able to
	// answer when the peer demands one; others are naked toward a
	// supported protocol or rejected.
	CanAuth map[uint16]bool

	// Local and Peer are the negotiated results (valid once Opened).
	Local LinkParams
	Peer  LinkParams

	// AuthDemanded records the authentication protocol the peer's
	// acknowledged Configure-Request requires of us (0 = none).
	AuthDemanded uint16

	// LoopbackSuspected counts magic-number collisions seen in peer
	// requests — the RFC 1661 looped-link telltale.
	LoopbackSuspected int

	// Rand, when set, supplies fresh magic numbers after a collision.
	// Without it a deterministic perturbation is used, which is correct
	// for a genuinely looped link (negotiation must not converge there)
	// but cannot break the tie between two distinct peers that chose
	// the same magic by accident. gigapos.Link always sets it to a
	// runtime-seeded source.
	Rand func() uint32

	rejected map[byte]bool
}

func (p *LCPPolicy) newMagic(old uint32) uint32 {
	if p.Rand != nil {
		return p.Rand()
	}
	return old*0x9E3779B1 + 1
}

// NewLCPPolicy returns a policy with defaults suitable for PPP over
// SONET/SDH (RFC 1619): ACCM negotiated to zero, 1500 MRU.
func NewLCPPolicy(magic uint32) *LCPPolicy {
	return &LCPPolicy{
		RequestACCM: true,
		WantACCM:    hdlc.ACCMNone,
		WantMagic:   magic,
		Local:       defaultLinkParams(),
		Peer:        defaultLinkParams(),
	}
}

func u16opt(t byte, v uint16) Option {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	return Option{Type: t, Data: b[:]}
}

func u32opt(t byte, v uint32) Option {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return Option{Type: t, Data: b[:]}
}

// LocalOptions implements Policy.
func (p *LCPPolicy) LocalOptions() []Option {
	var opts []Option
	add := func(t byte, o Option) {
		if p.rejected[t] {
			return
		}
		opts = append(opts, o)
	}
	if p.WantMRU != 0 && p.WantMRU != ppp.DefaultMRU {
		add(optMRU, u16opt(optMRU, uint16(p.WantMRU)))
	}
	if p.RequestACCM {
		add(optACCM, u32opt(optACCM, uint32(p.WantACCM)))
	}
	if p.WantMagic != 0 {
		add(optMagic, u32opt(optMagic, p.WantMagic))
	}
	if p.RequireAuth != 0 {
		add(optAuthProto, authOption(p.RequireAuth))
	}
	if p.WantPFC {
		add(OptPFC, Option{Type: OptPFC})
	}
	if p.WantACFC {
		add(OptACFC, Option{Type: OptACFC})
	}
	return opts
}

// CheckRequest implements Policy: vet the peer's proposed options.
func (p *LCPPolicy) CheckRequest(opts []Option) (naks, rejs []Option) {
	for _, o := range opts {
		switch o.Type {
		case optMRU:
			if len(o.Data) != 2 {
				rejs = append(rejs, o)
				continue
			}
			if v := binary.BigEndian.Uint16(o.Data); v < minMRU {
				naks = append(naks, u16opt(optMRU, minMRU))
			}
		case optACCM:
			if len(o.Data) != 4 {
				rejs = append(rejs, o)
			}
			// Any map the peer wants us to honour on transmit is fine.
		case optMagic:
			if len(o.Data) != 4 {
				rejs = append(rejs, o)
				continue
			}
			v := binary.BigEndian.Uint32(o.Data)
			if v != 0 && v == p.WantMagic {
				// Same magic both ways: looped link. Nak with a
				// perturbed value so the peer picks a new one.
				p.LoopbackSuspected++
				naks = append(naks, u32opt(optMagic, p.newMagic(v)))
			}
		case OptPFC:
			if !p.AllowPFC {
				rejs = append(rejs, o)
			}
		case OptACFC:
			if !p.AllowACFC {
				rejs = append(rejs, o)
			}
		case optAuthProto:
			proto, ok := parseAuthOption(o)
			if ok && p.CanAuth[proto] {
				break // acceptable demand
			}
			// Counter-propose a protocol we can answer; with none,
			// reject (the peer may then terminate, per RFC 1661).
			naked := false
			for _, cand := range []uint16{0xC223, 0xC023} {
				if p.CanAuth[cand] {
					naks = append(naks, authOption(cand))
					naked = true
					break
				}
			}
			if !naked {
				rejs = append(rejs, o)
			}
		default:
			// Authentication, quality monitoring and anything else we
			// do not implement: Configure-Reject (RFC 1661 §5.4).
			rejs = append(rejs, o)
		}
	}
	return naks, rejs
}

// ApplyPeer implements Policy: the peer's request was acked, so its
// options govern what the peer may send to us (and what we must accept).
func (p *LCPPolicy) ApplyPeer(opts []Option) {
	res := defaultLinkParams()
	for _, o := range opts {
		switch o.Type {
		case optMRU:
			res.MRU = int(binary.BigEndian.Uint16(o.Data))
		case optACCM:
			res.ACCM = hdlc.ACCM(binary.BigEndian.Uint32(o.Data))
		case optMagic:
			res.Magic = binary.BigEndian.Uint32(o.Data)
		case OptPFC:
			res.PFC = true
		case OptACFC:
			res.ACFC = true
		case optAuthProto:
			if proto, ok := parseAuthOption(o); ok {
				p.AuthDemanded = proto
			}
		}
	}
	p.Peer = res
}

// PeerAcked implements Policy: our request was acked, so these options
// govern our transmit direction.
func (p *LCPPolicy) PeerAcked(opts []Option) {
	res := defaultLinkParams()
	for _, o := range opts {
		switch o.Type {
		case optMRU:
			res.MRU = int(binary.BigEndian.Uint16(o.Data))
		case optACCM:
			res.ACCM = hdlc.ACCM(binary.BigEndian.Uint32(o.Data))
		case optMagic:
			res.Magic = binary.BigEndian.Uint32(o.Data)
		case OptPFC:
			res.PFC = true
		case OptACFC:
			res.ACFC = true
		}
	}
	p.Local = res
}

// HandleNak implements Policy: adopt the peer's counter-proposals.
func (p *LCPPolicy) HandleNak(opts []Option) {
	for _, o := range opts {
		switch o.Type {
		case optMRU:
			if len(o.Data) == 2 {
				p.WantMRU = int(binary.BigEndian.Uint16(o.Data))
			}
		case optACCM:
			if len(o.Data) == 4 {
				// Take the union: escape everything either side wants.
				p.WantACCM |= hdlc.ACCM(binary.BigEndian.Uint32(o.Data))
			}
		case optMagic:
			if len(o.Data) == 4 {
				// Prefer a locally random magic when available; the
				// peer's suggestion is only a tie-break hint.
				p.WantMagic = p.newMagic(binary.BigEndian.Uint32(o.Data))
			}
		case OptPFC:
			p.WantPFC = false
		case OptACFC:
			p.WantACFC = false
		case optAuthProto:
			// Adopt the peer's counter-proposal when we can answer it.
			if proto, ok := parseAuthOption(o); ok && proto != p.RequireAuth {
				p.RequireAuth = proto
			}
		}
	}
}

// HandleReject implements Policy: stop requesting rejected options.
func (p *LCPPolicy) HandleReject(opts []Option) {
	if p.rejected == nil {
		p.rejected = make(map[byte]bool)
	}
	for _, o := range opts {
		p.rejected[o.Type] = true
	}
}

// TxConfig is the ppp.Config this node must use when transmitting.
// An option in a Configure-Request describes what its sender can receive
// (RFC 1661 §6), so our transmit direction is governed by the options the
// peer requested and we acknowledged.
func (p *LCPPolicy) TxConfig() ppp.Config {
	return ppp.Config{
		PFC:  p.Peer.PFC,
		ACFC: p.Peer.ACFC,
		MRU:  p.Peer.MRU,
		ACCM: p.Peer.ACCM,
	}
}

// RxConfig is the ppp.Config this node must use when receiving: governed
// by the options we requested and the peer acknowledged.
func (p *LCPPolicy) RxConfig() ppp.Config {
	return ppp.Config{
		PFC:  p.Local.PFC,
		ACFC: p.Local.ACFC,
		MRU:  p.Local.MRU,
		ACCM: p.Local.ACCM,
	}
}

// chapMD5 is the algorithm octet of the one CHAP algorithm in RFC 1994.
const chapMD5 = 5

// authOption encodes the authentication-protocol option: the protocol
// number, plus the MD5 algorithm octet for CHAP (RFC 1994 §3).
func authOption(proto uint16) Option {
	data := []byte{byte(proto >> 8), byte(proto)}
	if proto == 0xC223 {
		data = append(data, chapMD5)
	}
	return Option{Type: optAuthProto, Data: data}
}

// parseAuthOption decodes the option, accepting only CHAP/MD5 and PAP.
func parseAuthOption(o Option) (uint16, bool) {
	if len(o.Data) < 2 {
		return 0, false
	}
	proto := uint16(o.Data[0])<<8 | uint16(o.Data[1])
	switch proto {
	case 0xC023:
		return proto, len(o.Data) == 2
	case 0xC223:
		return proto, len(o.Data) == 3 && o.Data[2] == chapMD5
	}
	return 0, false
}
