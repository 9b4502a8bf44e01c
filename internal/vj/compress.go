package vj

import "encoding/binary"

// Compressor is the transmit side: it owns the slot table and the
// last-transmitted-slot optimisation (the C bit).
type Compressor struct {
	table    []slot // the connection table: maxSlots slots
	byKey    map[connKey]int
	lastSlot int
	clock    uint64

	// Counters.
	OutIP, OutUncompressed, OutCompressed uint64
	SavedOctets                           uint64
}

// NewCompressor returns a compressor with maxSlots slots.
func NewCompressor() *Compressor {
	return &Compressor{
		table:    make([]slot, maxSlots),
		byKey:    make(map[connKey]int, maxSlots),
		lastSlot: 255,
	}
}

// Compress classifies and (when possible) compresses one IP datagram.
// The returned slice aliases freshly allocated memory; the input is
// never modified.
func (c *Compressor) Compress(p []byte) (Type, []byte) {
	if !compressible(p) {
		c.OutIP++
		return typeIP, append([]byte(nil), p...)
	}
	flags := p[tcpFlags]
	if flags&(flSYN|flRST) != 0 {
		// Connection state changing: send as plain IP (RFC 1144 A.2
		// sends SYN/RST uncompressed without installing state).
		c.OutIP++
		return typeIP, append([]byte(nil), p...)
	}
	key := keyOf(p)
	c.clock++
	idx, ok := c.byKey[key]
	if !ok {
		idx = c.recycle(key)
		return c.uncompressed(idx, p)
	}
	s := &c.table[idx]
	s.age = c.clock

	// Fields assumed constant between packets of a connection: any
	// change — TTL, ToS, or any TCP flag other than PSH — forces an
	// uncompressed refresh (only PSH travels in the change mask).
	if s.hdr[ipTTL] != p[ipTTL] || s.hdr[1] != p[1] ||
		(flags^s.hdr[tcpFlags])&^flPSH != 0 ||
		(flags&flURG == 0 && s.u16(tcpUrg) != binary.BigEndian.Uint16(p[tcpUrg:])) {
		return c.uncompressed(idx, p)
	}

	deltaS := binary.BigEndian.Uint32(p[tcpSeq:]) - s.u32(tcpSeq)
	deltaA := binary.BigEndian.Uint32(p[tcpAck:]) - s.u32(tcpAck)
	if deltaS >= 1<<16 || deltaA >= 1<<16 {
		return c.uncompressed(idx, p)
	}

	var changes byte
	var deltas []byte
	if flags&flURG != 0 {
		changes |= newU
		deltas = appendDelta(deltas, binary.BigEndian.Uint16(p[tcpUrg:]))
	}
	if dW := binary.BigEndian.Uint16(p[tcpWin:]) - s.u16(tcpWin); dW != 0 {
		changes |= newW
		deltas = appendDelta(deltas, dW)
	}
	if deltaA != 0 {
		changes |= newA
		deltas = appendDelta(deltas, uint16(deltaA))
	}
	if deltaS != 0 {
		changes |= newS
		deltas = appendDelta(deltas, uint16(deltaS))
	}

	// Special-case encodings (RFC 1144 A.2 step 6). A natural change
	// pattern that collides with a special encoding must be refreshed
	// uncompressed instead.
	prevData := uint32(s.dataLen())
	switch changes {
	case specialI, specialD:
		return c.uncompressed(idx, p)
	case newS | newA:
		if deltaS == deltaA && deltaS == prevData {
			changes = specialI
			deltas = nil
		}
	case newS:
		if deltaS == prevData {
			changes = specialD
			deltas = nil
		}
	case 0:
		// Nothing changed: only a retransmission or a pure-ACK
		// duplicate makes sense compressed; RFC sends it uncompressed
		// if it carries data.
		if len(p) > hdrLen {
			return c.uncompressed(idx, p)
		}
	}

	deltaI := binary.BigEndian.Uint16(p[ipID:]) - s.u16(ipID)
	if deltaI != 1 {
		changes |= newI
		deltas = appendDelta(deltas, deltaI)
	}
	if flags&flPSH != 0 {
		changes |= newP
	}

	out := make([]byte, 0, 16+len(p)-hdrLen)
	if idx != c.lastSlot {
		changes |= newC
		out = append(out, changes, byte(idx))
		c.lastSlot = idx
	} else {
		out = append(out, changes)
	}
	// TCP checksum travels uncompressed: end-to-end protection.
	out = append(out, p[tcpCksum], p[tcpCksum+1])
	out = append(out, deltas...)
	out = append(out, p[hdrLen:]...)

	copy(s.hdr[:], p[:hdrLen])
	c.OutCompressed++
	c.SavedOctets += uint64(len(p) - len(out))
	return TypeCompressed, out
}

// uncompressed installs/refreshes state and emits the packet with the
// protocol field replaced by the slot number.
func (c *Compressor) uncompressed(idx int, p []byte) (Type, []byte) {
	s := &c.table[idx]
	copy(s.hdr[:], p[:hdrLen])
	s.used = true
	s.age = c.clock
	out := append([]byte(nil), p...)
	out[ipProto] = byte(idx)
	c.lastSlot = idx
	c.OutUncompressed++
	return TypeUncompressed, out
}

// recycle returns the slot for a new connection, evicting the least
// recently used if full.
func (c *Compressor) recycle(key connKey) int {
	best, bestAge := 0, ^uint64(0)
	for i := range c.table {
		if !c.table[i].used {
			best = i
			bestAge = 0
			break
		}
		if c.table[i].age < bestAge {
			best, bestAge = i, c.table[i].age
		}
	}
	// Drop any stale key pointing at the recycled slot.
	for k, v := range c.byKey {
		if v == best {
			delete(c.byKey, k)
		}
	}
	c.byKey[key] = best
	return best
}
