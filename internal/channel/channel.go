// Package channel models the transmission medium of the paper's physical
// layer: independent random bit errors at a fixed rate (BER, the
// generator behind fault's scripted noise windows) and a fibre's
// propagation delay and jitter (Line). Its tests evaluate the framing
// layer's error-detection choices — notably the paper's decision to
// "incorporate 32-bit CRC checking" rather than FCS-16.
package channel

import (
	"math"

	"repro/internal/netsim"
)

// BER is a memoryless binary symmetric channel with the bit error rate
// it was built with.
type BER struct {
	Rate float64
	Rand *netsim.Rand

	// Geometric inter-error sampling state: skip is the distance in
	// bits to the next error, carried across Apply calls so chunking
	// does not change the error process.
	skip   int64
	primed bool
	lnq    float64 // ln(1-Rate)
}

// Apply flips bits in p and returns how many it flipped. Instead of one uniform draw per bit (eight
// per byte), it samples the geometric inter-error distance directly —
// identical error statistics, but the work scales with the number of
// errors rather than the number of bits, which at realistic optical
// rates (BER ≤ 1e-6) is orders of magnitude less.
func (m *BER) Apply(p []byte) int {
	if m.Rate <= 0 || len(p) == 0 {
		return 0
	}
	if m.Rate >= 1 {
		for i := range p {
			p[i] ^= 0xFF
		}
		return len(p) * 8
	}
	if !m.primed {
		m.lnq = math.Log1p(-m.Rate)
		m.skip = m.draw()
		m.primed = true
	}
	bits := int64(len(p)) * 8
	flips := 0
	for m.skip < bits {
		pos := m.skip
		p[pos/8] ^= 1 << uint(pos%8)
		flips++
		m.skip += 1 + m.draw()
	}
	m.skip -= bits
	return flips
}

// draw samples a geometric inter-error gap: the number of error-free
// bits before the next flip.
func (m *BER) draw() int64 {
	// 1-Float64() is in (0, 1], keeping the log finite.
	u := 1 - m.Rand.Float64()
	g := math.Log(u) / m.lnq
	if g >= math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(g)
}

// applyNaive is the original eight-draws-per-byte sampler, kept as the
// benchmark baseline for the geometric version.
func (m *BER) applyNaive(p []byte) int {
	flips := 0
	for i := range p {
		for b := 0; b < 8; b++ {
			if m.Rand.Float64() < m.Rate {
				p[i] ^= 1 << uint(b)
				flips++
			}
		}
	}
	return flips
}
