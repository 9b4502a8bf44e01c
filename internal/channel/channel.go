// Package channel models the transmission impairments of the paper's
// physical layer: independent random bit errors (optical links) and the
// Gilbert-Elliott two-state burst model (radio links, the "noisy
// environments" of the paper's §2). It exists to evaluate the framing
// layer's error-detection choices — notably the paper's decision to
// "incorporate 32-bit CRC checking" rather than FCS-16.
package channel

import (
	"math"

	"repro/internal/netsim"
)

// Model corrupts a byte stream in place and reports the bits flipped.
type Model interface {
	// Apply flips bits in p and returns how many it flipped.
	Apply(p []byte) int
}

// BER is a memoryless binary symmetric channel with the given bit error
// rate.
type BER struct {
	Rate float64
	Rand *netsim.Rand

	// Geometric inter-error sampling state: skip is the distance in
	// bits to the next error, carried across Apply calls so chunking
	// does not change the error process.
	skip   int64
	primed bool
	lnq    float64 // cached ln(1-Rate)
	rate   float64 // Rate the cache was computed for
}

// Apply implements Model. Instead of one uniform draw per bit (eight
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
	if !m.primed || m.rate != m.Rate {
		m.lnq = math.Log1p(-m.Rate)
		m.rate = m.Rate
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

// GilbertElliott is the classic two-state burst-error channel: a Good
// state with negligible errors and a Bad state with a high error rate;
// transitions between them create error bursts with geometric lengths.
type GilbertElliott struct {
	// PGoodToBad and PBadToGood are per-bit transition probabilities.
	PGoodToBad, PBadToGood float64
	// BERGood and BERBad are the in-state bit error rates.
	BERGood, BERBad float64
	Rand            *netsim.Rand

	bad bool
	// Bursts counts Good→Bad transitions.
	Bursts uint64
}

// Apply implements Model.
func (m *GilbertElliott) Apply(p []byte) int {
	flips := 0
	for i := range p {
		for b := 0; b < 8; b++ {
			if m.bad {
				if m.Rand.Float64() < m.PBadToGood {
					m.bad = false
				}
			} else if m.Rand.Float64() < m.PGoodToBad {
				m.bad = true
				m.Bursts++
			}
			ber := m.BERGood
			if m.bad {
				ber = m.BERBad
			}
			if m.Rand.Float64() < ber {
				p[i] ^= 1 << uint(b)
				flips++
			}
		}
	}
	return flips
}
