package channel

import (
	"fmt"
	"testing"

	"repro/internal/crc"
	"repro/internal/netsim"
)

func TestBERRate(t *testing.T) {
	m := &BER{Rate: 0.01, Rand: netsim.NewRand(1)}
	p := make([]byte, 100000)
	flips := m.Apply(p)
	// 800k bits × 1% = 8000 ± a few hundred.
	if flips < 7500 || flips > 8500 {
		t.Errorf("flips = %d, want ≈8000", flips)
	}
	// The flips are recorded in the buffer.
	set := 0
	for _, b := range p {
		for ; b != 0; b &= b - 1 {
			set++
		}
	}
	if set != flips {
		t.Errorf("buffer bits %d != reported %d", set, flips)
	}
}

func TestBEREdgeRates(t *testing.T) {
	m := &BER{Rate: 0, Rand: netsim.NewRand(1)}
	p := make([]byte, 1000)
	if f := m.Apply(p); f != 0 {
		t.Errorf("rate 0 flipped %d bits", f)
	}
	m = &BER{Rate: 1, Rand: netsim.NewRand(1)}
	if f := m.Apply(p); f != 8000 {
		t.Errorf("rate 1 flipped %d bits, want all", f)
	}
	// Very low rate over a short buffer: almost always zero flips, and
	// the skip must carry across calls without overflow.
	m = &BER{Rate: 1e-12, Rand: netsim.NewRand(2)}
	for i := 0; i < 100; i++ {
		m.Apply(p[:8])
	}
}

// TestBERChunkingInvariant: the geometric skip state carries across
// Apply calls, so the same stream split differently sees the same error
// positions.
func TestBERChunkingInvariant(t *testing.T) {
	whole := &BER{Rate: 1e-3, Rand: netsim.NewRand(9)}
	a := make([]byte, 65536)
	whole.Apply(a)

	split := &BER{Rate: 1e-3, Rand: netsim.NewRand(9)}
	b := make([]byte, 65536)
	for off := 0; off < len(b); off += 777 {
		end := off + 777
		if end > len(b) {
			end = len(b)
		}
		split.Apply(b[off:end])
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunking changed error positions at byte %d", i)
		}
	}
}

// TestBERGeometricMatchesNaiveStatistics: both samplers realise the
// same binomial error process.
func TestBERGeometricMatchesNaiveStatistics(t *testing.T) {
	const n = 1 << 20 // bits
	geo := &BER{Rate: 5e-4, Rand: netsim.NewRand(4)}
	fg := geo.Apply(make([]byte, n/8))
	nai := &BER{Rate: 5e-4, Rand: netsim.NewRand(5)}
	fn := nai.applyNaive(make([]byte, n/8))
	want := 5e-4 * n // ≈ 524
	for _, f := range []int{fg, fn} {
		if float64(f) < want*0.8 || float64(f) > want*1.2 {
			t.Errorf("flips = %d, want ≈%.0f", f, want)
		}
	}
}

// BenchmarkBERApply shows the geometric sampler's win at realistic
// optical error rates: naive work is constant per bit; geometric work
// scales with the number of errors.
func BenchmarkBERApply(b *testing.B) {
	buf := make([]byte, 1<<16)
	for _, rate := range []float64{1e-4, 1e-6, 1e-9} {
		b.Run(fmt.Sprintf("geometric/ber=%g", rate), func(b *testing.B) {
			m := &BER{Rate: rate, Rand: netsim.NewRand(1)}
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				m.Apply(buf)
			}
		})
		b.Run(fmt.Sprintf("naive/ber=%g", rate), func(b *testing.B) {
			m := &BER{Rate: rate, Rand: netsim.NewRand(1)}
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				m.applyNaive(buf)
			}
		})
	}
}

// burstAt flips a run of `bits` consecutive bits starting at the given
// bit offset — a deterministic all-ones burst for targeted tests.
func burstAt(p []byte, bitOff, bits int) {
	for i := 0; i < bits; i++ {
		pos := bitOff + i
		if pos/8 >= len(p) {
			return
		}
		p[pos/8] ^= 1 << uint(pos%8)
	}
}

// randomBurstAt applies a classic random burst of the given span: the
// first and last bits are flipped (defining the burst length) and each
// interior bit flips with probability ½ — the error family for which a
// b-bit CRC lets 2^-b of over-length bursts escape.
func randomBurstAt(p []byte, rng *netsim.Rand, bitOff, bits int) {
	flip := func(pos int) {
		if pos/8 < len(p) {
			p[pos/8] ^= 1 << uint(pos%8)
		}
	}
	flip(bitOff)
	for i := 1; i < bits-1; i++ {
		if rng.Intn(2) == 1 {
			flip(bitOff + i)
		}
	}
	if bits > 1 {
		flip(bitOff + bits - 1)
	}
}

func TestBurstAt(t *testing.T) {
	p := make([]byte, 4)
	burstAt(p, 6, 4) // bits 6..9
	if p[0] != 0xC0 || p[1] != 0x03 {
		t.Errorf("burst = % x", p)
	}
	// Past the end: no panic, truncated.
	burstAt(p, 30, 10)
}

// TestFCSDetectionExperiment is experiment E14: the paper chooses FCS-32
// "for accuracy purposes". Measure undetected-error rates for both FCS
// sizes under burst errors longer than 16 bits: FCS-16 lets ≈2^-16 of
// them through; FCS-32 catches everything at an observable scale.
func TestFCSDetectionExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical experiment")
	}
	rng := netsim.NewRand(7)
	frame := make([]byte, 64)
	for i := range frame {
		frame[i] = rng.Byte()
	}
	const trials = 300000
	undetected16, undetected32 := 0, 0
	body16 := crc.FCS16Mode.Append(append([]byte(nil), frame...))
	body32 := crc.FCS32Mode.Append(append([]byte(nil), frame...))
	buf := make([]byte, len(body32))
	for i := 0; i < trials; i++ {
		// A burst of 20-40 flipped bits at a random offset: beyond
		// both the FCS-16 and FCS-32 guaranteed burst lengths.
		bits := 20 + rng.Intn(21)
		off := rng.Intn(len(body16)*8 - bits)
		b16 := append(buf[:0], body16...)
		randomBurstAt(b16, rng, off, bits)
		if crc.FCS16Mode.Check(b16) {
			undetected16++
		}
		b32 := append([]byte(nil), body32...)
		off32 := rng.Intn(len(body32)*8 - bits)
		randomBurstAt(b32, rng, off32, bits)
		if crc.FCS32Mode.Check(b32) {
			undetected32++
		}
	}
	// Expected undetected for FCS-16 ≈ trials × 2^-16 ≈ 4.6.
	if undetected16 == 0 {
		t.Errorf("FCS-16 caught all %d bursts; expected ≈%d escapes — experiment insensitive",
			trials, trials>>16)
	}
	if undetected16 > 20 {
		t.Errorf("FCS-16 escapes = %d, implausibly many", undetected16)
	}
	// FCS-32 escape probability ≈ 2^-32: none expected at this scale.
	if undetected32 != 0 {
		t.Errorf("FCS-32 escapes = %d, want 0 at %d trials", undetected32, trials)
	}
	t.Logf("E14: %d bursts → FCS-16 undetected %d (≈%d expected), FCS-32 undetected %d",
		trials, undetected16, trials>>16, undetected32)
}
