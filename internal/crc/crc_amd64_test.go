package crc

import (
	"math/bits"
	"testing"
)

// kernels names the kernels Update can take on this host: the
// carry-less fold where the CPU has it, and the slicing tables.
func kernels() []string {
	if clmul {
		return []string{"clmul", "slicing"}
	}
	return []string{"slicing"}
}

// useKernel points Update at kernel k through the probe, and returns
// the call that restores the probe.
func useKernel(k string) (restore func()) {
	on := clmul
	clmul = k == "clmul"
	return func() { clmul = on }
}

// TestFoldConstants holds the tables derived at init to independent
// values: FCS-32's to the constants hash/crc32 publishes for the same
// reflected polynomial (r2r1, r4r3, r5, rupoly in crc32_amd64.s, pasted
// here as a cross-check only), both sizes' powers of x to the bitwise
// reference at every fold distance, and both μ to the division they
// stand for: μ·P + (x^64 mod P) = x^64.
func TestFoldConstants(t *testing.T) {
	stdlib := foldConsts{0x154442bd4, 0x1c6e41596, 0x1751997d0, 0x0ccaa009e, 0x163cd6124, 0, 0x1db710641, 0x1f7011641}
	if *fold32 != stdlib {
		t.Errorf("FCS-32 table %#x, hash/crc32 publishes %#x", *fold32, stdlib)
	}
	// xpow is x^k mod P as the size's register, bitwise: x^(32−w) — the
	// register "1" of the w-bit LFSR — carried k−(32−w) bits of zeros.
	xpow := func(s Size, k int) uint64 {
		zeros := make([]byte, (k-32+8*s.Bytes())/8)
		if s == FCS16Mode {
			return uint64(Bitwise16(1<<15, zeros)) << 1
		}
		return uint64(Bitwise32(1<<31, zeros)) << 1
	}
	for _, c := range []struct {
		s Size
		k *foldConsts
	}{{FCS16Mode, fold16}, {FCS32Mode, fold32}} {
		for i, k := range []int{512 + 32, 512 - 32, 128 + 32, 128 - 32, 64} {
			if got, want := c.k[i], xpow(c.s, k); got != want {
				t.Errorf("%v: entry %d (x^%d mod P) = %#x, bitwise %#x", c.s, i, k, got, want)
			}
		}
		// Back from 33 reflected bits to x^d at bit d: μ·P ⊕ (x^64 mod P).
		normal := func(v uint64) uint64 { return bits.Reverse64(v) >> 31 }
		hi, lo := clmul64(normal(c.k[7]), normal(c.k[6]))
		if lo ^= normal(c.k[4]); hi != 1 || lo != 0 {
			t.Errorf("%v: μ·P ⊕ (x^64 mod P) = %#x:%016x, want x^64", c.s, hi, lo)
		}
	}
}

// clmul64 is the carry-less product of a and b, high and low halves.
func clmul64(a, b uint64) (hi, lo uint64) {
	for i := range 64 {
		if b>>i&1 != 0 {
			lo ^= a << i
			if i > 0 {
				hi ^= a >> (64 - i)
			}
		}
	}
	return hi, lo
}
