package crc

// The FCS fold at datapath width (fcs_amd64.s): carry-less multiply
// folds the input 16 octets per step, four blocks abreast from 64
// octets, the sub-block tail in-register, and ends in a Barrett
// reduction. PCLMULQDQ multiplies polynomials, not a polynomial, so
// one kernel serves both sizes, each through its own table of
// constants; FCS-16 runs as the degree-32 generator P₁₆·x¹⁶, whose
// register is the 16-bit one in the low half. Its instructions are past
// the amd64 baseline, so one CPUID probe at init decides; a CPU without
// them, and any input under one block, takes the slicing tables.

// clmul reports whether the CPU has the kernel's instructions: CPUID
// leaf 1, ECX bits 1 (PCLMULQDQ), 9 (SSSE3: PSHUFB on the tail) and 19
// (SSE4.1: PEXTRD on the result).
var clmul = cpuidECX(1)&clmulBits == clmulBits

const clmulBits = 1<<1 | 1<<9 | 1<<19

// cpuidECX returns ECX of CPUID leaf (sub-leaf 0).
func cpuidECX(leaf uint32) uint32

// foldConsts is one size's table for the kernel: polynomials of degree
// at most 32, each bit-reflected into 33 bits (the coefficient of x^d
// at bit 32−d), where P is the size's generator of degree 32.
//
//	[0] [1]  x^(512+32), x^(512−32) mod P: one accumulator four blocks ahead
//	[2] [3]  x^(128+32), x^(128−32) mod P: one block ahead
//	[4]      x^64 mod P: 96 bits to 64
//	[6] [7]  P and μ = ⌊x^64/P⌋: the Barrett reduction to 32 bits
type foldConsts [8]uint64

// fold32 and fold16 are each size's table, derived at init.
var fold32, fold16 = foldTable(FCS32Mode), foldTable(FCS16Mode)

// foldCLMUL folds p, at least 16 octets, into register fcs through
// table k.
//
//go:noescape
func foldCLMUL(fcs uint32, p []byte, k *foldConsts) uint32

// foldTable derives size s's table from the GF(2) model: x^k mod P is
// the register "x^0" carried k bits through the parallel engine's state
// matrix with no data — 32 bits per step for FCS-32, 16 for FCS-16,
// whose register holds x^16·(x^(k−16) mod P₁₆) = x^k mod P₁₆·x¹⁶ and so
// starts at x^16 — and μ is the quotient the serial LFSR feeds back
// while it shifts x^32 through, one bit per step.
func foldTable(s Size) *foldConsts {
	w := 8 * s.Bytes()
	var step func(r uint32) uint32
	var bit func(r, in uint32) uint32
	poly := uint64(poly32)
	if s == FCS16Mode {
		e := NewParallel16(w)
		step = func(r uint32) uint32 { return uint32(e.Step(uint16(r), 0)) }
		bit = func(r, in uint32) uint32 { return uint32(updateBit16(uint16(r), uint16(in))) }
		poly = poly16
	} else {
		e := NewParallel32(w)
		step = func(r uint32) uint32 { return e.Step(r, 0) }
		bit = updateBit32
	}
	xpow := func(k int) uint64 {
		r := uint32(1) << (w - 1) // x^(32−w)
		for k -= 32 - w; k > 0; k -= w {
			r = step(r)
		}
		return uint64(r) << 1
	}
	var mu uint64
	for i, r := 0, uint32(0); i <= 32; i++ {
		in := uint32(0)
		if i == 0 {
			in = 1
		}
		mu |= uint64((r^in)&1) << i
		r = bit(r, in)
	}
	return &foldConsts{xpow(512 + 32), xpow(512 - 32), xpow(128 + 32), xpow(128 - 32), xpow(64), 0, poly<<1 | 1, mu}
}

// Update folds p into a streaming register started by Init — the one
// production kernel of each size: the carry-less fold from one block
// (16 octets), the slicing tables below it or without the instructions.
// It lets nothing escape.
func (s Size) Update(fcs uint32, p []byte) uint32 {
	if len(p) >= 16 && clmul {
		if s == FCS16Mode {
			return foldCLMUL(fcs&0xFFFF, p, fold16)
		}
		return foldCLMUL(fcs, p, fold32)
	}
	return s.Slicing(fcs, p)
}
