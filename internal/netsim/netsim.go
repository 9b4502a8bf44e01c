// Package netsim generates the synthetic IP workloads the evaluation
// runs over: IPv4 datagrams with valid headers and checksums, classic
// IMIX size mixes, and payloads with a controlled density of
// flag/escape octets — the one traffic property the P5 datapath is
// sensitive to. All generation is deterministic from a caller seed.
package netsim

import "encoding/binary"

// Rand is a small deterministic xorshift64* generator, so workloads are
// reproducible without importing math/rand state semantics.
type Rand struct{ s uint64 }

// NewRand seeds a generator (seed 0 is remapped).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// next returns the next raw value.
func (r *Rand) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Byte returns a random octet.
func (r *Rand) Byte() byte { return byte(r.next()) }

// IPv4Header is a minimal IPv4 header (no options).
type IPv4Header struct {
	TotalLen uint16
	ID       uint16
	TTL      byte
	Protocol byte
	Src, Dst [4]byte
}

// headerLen is the size of an option-less IPv4 header.
const headerLen = 20

// protoUDP is the IP protocol number the generators use.
const protoUDP = 17

// marshal appends the 20-byte header with a valid checksum.
func (h *IPv4Header) marshal(dst []byte) []byte {
	var b [headerLen]byte
	b[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	b[8] = h.TTL
	b[9] = h.Protocol
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(b[10:], checksum(b[:]))
	return append(dst, b[:]...)
}

// ParseIPv4 decodes a datagram's header; ok is false on malformed input
// or checksum failure.
func ParseIPv4(p []byte) (h IPv4Header, ok bool) {
	if len(p) < headerLen || p[0] != 0x45 {
		return h, false
	}
	if checksum(p[:headerLen]) != 0 {
		return h, false
	}
	h.TotalLen = binary.BigEndian.Uint16(p[2:])
	h.ID = binary.BigEndian.Uint16(p[4:])
	h.TTL = p[8]
	h.Protocol = p[9]
	copy(h.Src[:], p[12:16])
	copy(h.Dst[:], p[16:20])
	return h, int(h.TotalLen) <= len(p)
}

// checksum computes the Internet checksum (RFC 1071) over p. Computing
// it over a header whose checksum field is correct yields zero.
func checksum(p []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(p); i += 2 {
		sum += uint32(p[i])<<8 | uint32(p[i+1])
	}
	if len(p)%2 == 1 {
		sum += uint32(p[len(p)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// SizeDist selects datagram sizes.
type SizeDist interface {
	// Next returns the next datagram size in octets (≥ headerLen).
	Next(r *Rand) int
}

// Fixed is a constant-size distribution.
type Fixed int

// Next implements SizeDist.
func (f Fixed) Next(*Rand) int {
	if int(f) < headerLen {
		return headerLen
	}
	return int(f)
}

// IMIX is the classic simple-IMIX mix: 7×40 B, 4×576 B, 1×1500 B.
type IMIX struct{}

// Next implements SizeDist.
func (IMIX) Next(r *Rand) int {
	switch v := r.Intn(12); {
	case v < 7:
		return 40
	case v < 11:
		return 576
	default:
		return 1500
	}
}

// Uniform picks sizes uniformly in [Min, Max].
type Uniform struct{ Min, Max int }

// Next implements SizeDist.
func (u Uniform) Next(r *Rand) int {
	lo := u.Min
	if lo < headerLen {
		lo = headerLen
	}
	hi := u.Max
	if hi < lo {
		hi = lo
	}
	return lo + r.Intn(hi-lo+1)
}

// Gen produces IPv4 datagrams.
type Gen struct {
	Rand *Rand
	Size SizeDist
	// EscDensity is the probability that a payload octet is a flag or
	// escape character (0 = clean payload, 1 = worst case).
	EscDensity float64

	id uint16
	// Octets counts total generated datagram bytes.
	Octets uint64
}

// NewGen returns a generator with the given seed, size mix and escape
// density.
func NewGen(seed uint64, size SizeDist, escDensity float64) *Gen {
	return &Gen{Rand: NewRand(seed), Size: size, EscDensity: escDensity}
}

// Next returns one datagram (header + payload).
func (g *Gen) Next() []byte {
	n := g.Size.Next(g.Rand)
	g.id++
	h := IPv4Header{
		TotalLen: uint16(n),
		ID:       g.id,
		TTL:      64,
		Protocol: protoUDP,
		Src:      [4]byte{10, 0, 0, 1},
		Dst:      [4]byte{10, 0, 0, 2},
	}
	p := h.marshal(make([]byte, 0, n))
	for len(p) < n {
		var b byte
		if g.EscDensity > 0 && g.Rand.Float64() < g.EscDensity {
			if g.Rand.Intn(2) == 0 {
				b = 0x7E
			} else {
				b = 0x7D
			}
		} else {
			// Avoid accidental escapes so the density is exact.
			for {
				b = g.Rand.Byte()
				if b != 0x7E && b != 0x7D {
					break
				}
			}
		}
		p = append(p, b)
	}
	g.Octets += uint64(len(p))
	return p
}

// Burst returns datagrams totalling at least total octets.
func (g *Gen) Burst(total int) [][]byte {
	var out [][]byte
	n := 0
	for n < total {
		d := g.Next()
		out = append(out, d)
		n += len(d)
	}
	return out
}
