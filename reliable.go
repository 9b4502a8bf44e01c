package gigapos

import (
	"repro/internal/lcp"
	"repro/internal/ppp"
	"repro/internal/reliable"
)

// This file holds the Link extensions beyond basic RFC 1661 operation:
// numbered mode (RFC 1663 reliable transmission) and Protocol-Reject
// generation — the optional capabilities the paper attributes to the
// programmable control field and the Protocol OAM. Line quality is
// judged below PPP, by section parity: B1/B2 errors raise DefSD/DefSF,
// which drive APS and the supervisor (NotifyDefects).

// initReliable wires a numbered-mode station into the link.
func (l *Link) initReliable() {
	l.station = &reliable.Station{
		Line: l.lcpA.Line,
		Out: func(f reliable.Frame) {
			l.out = l.encodeNumbered(l.out, f)
		},
		// The information field is a protocol number and its packet:
		// the same network-layer dispatch as a plain frame's.
		Deliver: func(info []byte) {
			if len(info) < 2 {
				return
			}
			l.network(&ppp.Frame{Protocol: uint16(info[0])<<8 | uint16(info[1]), Payload: info[2:]})
		},
		// Acknowledged (or reset-dropped) information buffers return to
		// the free list Link.Send draws from — the numbered-mode path's
		// zero-allocation loop.
		Release: func(buf []byte) {
			l.relFree = append(l.relFree, buf)
		},
	}
}

// ReliableStats exposes the numbered-mode counters (retransmits,
// rejects, resets) for diagnostics.
func (l *Link) ReliableStats() (txI, rxI, retransmits, rejects uint64) {
	if l.station == nil {
		return
	}
	return l.station.TxI, l.station.RxI, l.station.Retransmits, l.station.RxREJ
}

// encodeNumbered puts a numbered-mode frame on the wire: address, the
// I/S/U control octet, the information field, FCS — stuffed under the
// negotiated ACCM and flagged like every other data frame.
func (l *Link) encodeNumbered(dst []byte, f reliable.Frame) []byte {
	c := l.dataTxConfig()
	hdr := [2]byte{ppp.AddrAllStations, f.Ctrl}
	return ppp.AppendFramed(dst, hdr[:], f.Payload, c.FCS, c.ACCM, true)
}

// decodeNumbered handles a frame whose control octet is not UI: it
// belongs to the numbered-mode station. fcsOK is the tokenizer's fused
// frame-check verdict. Returns false if the frame is not a valid
// numbered frame (caller counts the error).
func (l *Link) decodeNumbered(body []byte, fcsOK bool) bool {
	fcsN := l.cfg.fcs().Bytes()
	if len(body) < 2+fcsN || !fcsOK {
		return false
	}
	ctrl := body[1]
	info := body[2 : len(body)-fcsN]
	l.station.Receive(reliable.Frame{Ctrl: ctrl, Payload: info})
	return true
}

// protocolReject answers an unknown protocol with an LCP
// Protocol-Reject (RFC 1661 §5.7): the rejected protocol number
// followed by a copy of the offending information field.
func (l *Link) protocolReject(f *ppp.Frame) {
	if !l.Opened() {
		return
	}
	l.protoRejID++
	data := []byte{byte(f.Protocol >> 8), byte(f.Protocol)}
	data = append(data, f.Payload...)
	l.sendControl(ppp.ProtoLCP, &lcp.Packet{Code: 8 /* Protocol-Reject */, ID: l.protoRejID, Data: data})
	l.ProtocolRejects++
}
