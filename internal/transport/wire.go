package transport

import "errors"

// The socket transports frame every chunk with a fixed 36-octet header
// so the receiver can reject foreign traffic (magic), resynchronise
// after a peer restart (epoch), discard duplicated or reordered
// datagrams before they scramble the HDLC byte stream (seq), and
// measure cross-process latency (tick, wall):
//
//	octets 0..3   magic  "P5LT" (0x50354C54), big endian
//	octet  4      version (wireVersion)
//	octet  5      type: TypeData | TypeKeepalive | TypeKeepaliveReply | TypeFreeze
//	octets 6..7   payload length, big endian
//	octets 8..11  epoch — random per transport instance
//	octets 12..19 seq — per-instance monotonic datagram counter
//	octets 20..27 tick — sender's virtual clock at transmit (signed)
//	octets 28..35 wall — sampled transmit wall clock, ns (0 = unsampled)
//
// Over UDP each datagram is one header plus payload; over TCP the same
// records are concatenated on the stream and the magic doubles as a
// desync detector (a mid-stream magic mismatch resets the connection).
//
// Version 2 added the tick/wall trailer and the keepalive-reply and
// freeze types. The header carries no compatibility machinery on
// purpose: a v1 peer's datagrams fail DecodeHeader with ErrBadVersion,
// the receiver counts them in Stats.RxBadVersion and never marks the
// line alive, so a version-skewed deployment looks like a dead peer —
// detected by keepalive supervision, visible in transport_up and
// transport_rx_bad_version_total — instead of a corrupted byte stream.

// Wire header constants.
const (
	magic = 0x50354C54 // "P5LT"
	// wireVersion is the protocol version this build speaks; the
	// transport_wire_version series carries it to the p5stat board's
	// version-skew check.
	wireVersion = 2
	// headerLen is the fixed wire header size in octets.
	headerLen = 36
)

// Wire datagram types.
const (
	// typeData carries a chunk of HDLC wire octets.
	typeData = 0
	// typeKeepalive is a liveness probe; its header tick/wall double as
	// the NTP-style t1 origin stamp.
	typeKeepalive = 1
	// typeKeepaliveReply answers a probe with the three timestamps the
	// initiator needs for offset/RTT estimation (see the payload codec
	// below).
	typeKeepaliveReply = 2
	// typeFreeze asks the peer to dump its flight recorder under a
	// shared incident ID (see AppendFreezePayload).
	typeFreeze = 3
)

// keepaliveReplyLen is the TypeKeepaliveReply payload size: t1 (echoed
// origin wall ns), t2 (receive wall ns), t3 (transmit wall ns), each
// i64 big endian.
const keepaliveReplyLen = 24

// header is one decoded wire header.
type header struct {
	Version byte
	Type    byte
	Len     int
	Epoch   uint32
	Seq     uint64
	// Tick is the sender's virtual clock at transmit.
	Tick int64
	// Wall is the sampled transmit wall clock in ns, 0 when the sender
	// did not stamp this datagram.
	Wall int64
}

// Wire header decode errors.
var (
	errShortHeader = errors.New("transport: short wire header")
	errBadMagic    = errors.New("transport: bad wire magic")
	errBadVersion  = errors.New("transport: unsupported wire version")
	errBadType     = errors.New("transport: unknown wire datagram type")
	errBadLength   = errors.New("transport: wire length exceeds datagram")
)

// appendHeader appends the encoded header for a payload of length n to
// dst and returns it. tick is the sender's virtual clock; wall is the
// sampled transmit wall stamp in ns (pass 0 on unsampled datagrams).
func appendHeader(dst []byte, typ byte, n int, epoch uint32, seq uint64, tick, wall int64) []byte {
	return append(dst,
		byte(magic>>24), byte(magic>>16&0xFF), byte(magic>>8&0xFF), byte(magic&0xFF),
		wireVersion, typ,
		byte(n>>8), byte(n),
		byte(epoch>>24), byte(epoch>>16), byte(epoch>>8), byte(epoch),
		byte(seq>>56), byte(seq>>48), byte(seq>>40), byte(seq>>32),
		byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq),
		byte(tick>>56), byte(tick>>48), byte(tick>>40), byte(tick>>32),
		byte(tick>>24), byte(tick>>16), byte(tick>>8), byte(tick),
		byte(wall>>56), byte(wall>>48), byte(wall>>40), byte(wall>>32),
		byte(wall>>24), byte(wall>>16), byte(wall>>8), byte(wall))
}

// decodeHeader parses the wire header at the front of p. For UDP the
// remainder of the datagram must hold exactly the declared payload; for
// TCP the caller reads the declared length off the stream, so only the
// header octets are required here.
func decodeHeader(p []byte) (header, error) {
	var h header
	if len(p) < headerLen {
		return h, errShortHeader
	}
	if uint32(p[0])<<24|uint32(p[1])<<16|uint32(p[2])<<8|uint32(p[3]) != magic {
		return h, errBadMagic
	}
	h.Version = p[4]
	if h.Version != wireVersion {
		return h, errBadVersion
	}
	h.Type = p[5]
	if h.Type > typeFreeze {
		return h, errBadType
	}
	h.Len = int(p[6])<<8 | int(p[7])
	h.Epoch = uint32(p[8])<<24 | uint32(p[9])<<16 | uint32(p[10])<<8 | uint32(p[11])
	h.Seq = uint64(p[12])<<56 | uint64(p[13])<<48 | uint64(p[14])<<40 | uint64(p[15])<<32 |
		uint64(p[16])<<24 | uint64(p[17])<<16 | uint64(p[18])<<8 | uint64(p[19])
	h.Tick = int64(be64(p[20:]))
	h.Wall = int64(be64(p[28:]))
	return h, nil
}

func be64(p []byte) uint64 {
	return uint64(p[0])<<56 | uint64(p[1])<<48 | uint64(p[2])<<40 | uint64(p[3])<<32 |
		uint64(p[4])<<24 | uint64(p[5])<<16 | uint64(p[6])<<8 | uint64(p[7])
}

func appendBE64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// decodeDatagram parses one complete datagram (header plus payload, the
// UDP shape) and returns the header and the payload span within p.
func decodeDatagram(p []byte) (header, []byte, error) {
	h, err := decodeHeader(p)
	if err != nil {
		return h, nil, err
	}
	if h.Len > len(p)-headerLen {
		return h, nil, errBadLength
	}
	return h, p[headerLen : headerLen+h.Len], nil
}

// appendKeepaliveReplyPayload appends the TypeKeepaliveReply payload:
// t1 is the probe's echoed origin wall stamp, t2 the wall clock when
// the probe arrived, t3 the wall clock when the reply left.
func appendKeepaliveReplyPayload(dst []byte, t1, t2, t3 int64) []byte {
	dst = appendBE64(dst, uint64(t1))
	dst = appendBE64(dst, uint64(t2))
	return appendBE64(dst, uint64(t3))
}

// decodeKeepaliveReply parses a TypeKeepaliveReply payload.
func decodeKeepaliveReply(p []byte) (t1, t2, t3 int64, err error) {
	if len(p) < keepaliveReplyLen {
		return 0, 0, 0, errShortHeader
	}
	return int64(be64(p)), int64(be64(p[8:])), int64(be64(p[16:])), nil
}

// freezeReasonMax bounds the reason string carried in a TypeFreeze
// payload; longer reasons are truncated on encode.
const freezeReasonMax = 32

// appendFreezePayload appends the TypeFreeze payload: the shared
// incident ID, the triggering end's virtual tick and wall clock at the
// trigger, and a short reason tag.
func appendFreezePayload(dst []byte, incident uint64, trigTick, trigWall int64, reason string) []byte {
	if len(reason) > freezeReasonMax {
		reason = reason[:freezeReasonMax]
	}
	dst = appendBE64(dst, incident)
	dst = appendBE64(dst, uint64(trigTick))
	dst = appendBE64(dst, uint64(trigWall))
	dst = append(dst, byte(len(reason)))
	return append(dst, reason...)
}

// decodeFreeze parses a TypeFreeze payload.
func decodeFreeze(p []byte) (incident uint64, trigTick, trigWall int64, reason string, err error) {
	if len(p) < 25 {
		return 0, 0, 0, "", errShortHeader
	}
	n := int(p[24])
	if n > freezeReasonMax || len(p) < 25+n {
		return 0, 0, 0, "", errBadLength
	}
	return be64(p), int64(be64(p[8:])), int64(be64(p[16:])), string(p[25 : 25+n]), nil
}
