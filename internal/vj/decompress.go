package vj

import "encoding/binary"

// Decompressor is the receive side: it mirrors the compressor's slot
// table and reconstructs full headers.
type Decompressor struct {
	table    []slot
	lastSlot int
	toss     bool // discard compressed packets until resync

	// Tossed counts packets discarded: malformed, or compressed while
	// the connection state is out of sync.
	Tossed uint64
}

// NewDecompressor returns a decompressor with maxSlots slots, the
// compressor's.
func NewDecompressor() *Decompressor {
	return &Decompressor{table: make([]slot, maxSlots), lastSlot: 255}
}

// Decompress reverses Compress for one packet.
func (d *Decompressor) Decompress(t Type, p []byte) ([]byte, error) {
	switch t {
	case typeIP:
		return append([]byte(nil), p...), nil
	case TypeUncompressed:
		return d.uncompressed(p)
	default:
		return d.compressed(p)
	}
}

func (d *Decompressor) uncompressed(p []byte) ([]byte, error) {
	if len(p) < hdrLen {
		d.Tossed++
		return nil, errTruncated
	}
	idx := int(p[ipProto])
	if idx >= len(d.table) {
		d.toss = true
		d.Tossed++
		return nil, errBadSlot
	}
	out := append([]byte(nil), p...)
	out[ipProto] = protoTCP
	fixIPChecksum(out)
	s := &d.table[idx]
	copy(s.hdr[:], out[:hdrLen])
	s.used = true
	d.lastSlot = idx
	d.toss = false
	return out, nil
}

func (d *Decompressor) compressed(p []byte) ([]byte, error) {
	if len(p) < 3 {
		d.Tossed++
		return nil, errTruncated
	}
	changes := p[0]
	pos := 1
	idx := d.lastSlot
	if changes&newC != 0 {
		idx = int(p[pos])
		pos++
	}
	if d.toss {
		// Resynchronising: only an uncompressed packet re-arms the
		// connection state (RFC 1144 §4).
		d.Tossed++
		return nil, errTossed
	}
	if idx >= len(d.table) || !d.table[idx].used {
		d.toss = true
		d.Tossed++
		return nil, errBadSlot
	}
	d.lastSlot = idx
	s := &d.table[idx]

	if len(p) < pos+2 {
		d.Tossed++
		return nil, errTruncated
	}
	cksum := binary.BigEndian.Uint16(p[pos:])
	pos += 2

	seq := s.u32(tcpSeq)
	ack := s.u32(tcpAck)
	win := s.u16(tcpWin)
	urg := uint16(0)
	prevData := uint32(s.dataLen())

	switch changes & specialsMask {
	case specialI:
		seq += prevData
		ack += prevData
	case specialD:
		seq += prevData
	default:
		if changes&newU != 0 {
			v, n, err := readDelta(p[pos:])
			if err != nil {
				d.tossNow()
				return nil, err
			}
			urg = v
			pos += n
		}
		if changes&newW != 0 {
			v, n, err := readDelta(p[pos:])
			if err != nil {
				d.tossNow()
				return nil, err
			}
			win += v
			pos += n
		}
		if changes&newA != 0 {
			v, n, err := readDelta(p[pos:])
			if err != nil {
				d.tossNow()
				return nil, err
			}
			ack += uint32(v)
			pos += n
		}
		if changes&newS != 0 {
			v, n, err := readDelta(p[pos:])
			if err != nil {
				d.tossNow()
				return nil, err
			}
			seq += uint32(v)
			pos += n
		}
	}

	id := s.u16(ipID)
	if changes&newI != 0 {
		v, n, err := readDelta(p[pos:])
		if err != nil {
			d.tossNow()
			return nil, err
		}
		id += v
		pos += n
	} else {
		id++
	}

	data := p[pos:]
	out := make([]byte, hdrLen+len(data))
	copy(out, s.hdr[:])
	binary.BigEndian.PutUint16(out[ipTotLen:], uint16(hdrLen+len(data)))
	binary.BigEndian.PutUint16(out[ipID:], id)
	binary.BigEndian.PutUint32(out[tcpSeq:], seq)
	binary.BigEndian.PutUint32(out[tcpAck:], ack)
	binary.BigEndian.PutUint16(out[tcpWin:], win)
	binary.BigEndian.PutUint16(out[tcpCksum:], cksum)
	// Only PSH travels in the change mask; every other flag (URG
	// included) is frozen in the saved header. The urgent pointer is
	// refreshed when the U bit was literal (normal encoding).
	if changes&specialsMask != specialI && changes&specialsMask != specialD && changes&newU != 0 {
		binary.BigEndian.PutUint16(out[tcpUrg:], urg)
	}
	if changes&newP != 0 {
		out[tcpFlags] |= flPSH
	} else {
		out[tcpFlags] &^= flPSH
	}
	copy(out[hdrLen:], data)
	fixIPChecksum(out)
	copy(s.hdr[:], out[:hdrLen])
	return out, nil
}

func (d *Decompressor) tossNow() {
	d.toss = true
	d.Tossed++
}

// fixIPChecksum recomputes the IPv4 header checksum in place.
func fixIPChecksum(p []byte) {
	p[ipCksum] = 0
	p[ipCksum+1] = 0
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(p[i])<<8 | uint32(p[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	binary.BigEndian.PutUint16(p[ipCksum:], ^uint16(sum))
}

// Toss puts the decompressor into the discard state, as a driver does
// when the host TCP reports a checksum failure on a reconstructed
// packet (RFC 1144 §4: the decompressor itself cannot detect the
// damage — the end-to-end TCP checksum does).
func (d *Decompressor) Toss() { d.toss = true }
