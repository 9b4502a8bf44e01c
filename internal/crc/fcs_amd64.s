#include "textflag.h"

// The FCS fold at datapath width: the paper's parallel CRC core as
// carry-less multiplies, after Gopal et al., "Fast CRC computation for
// generic polynomials using PCLMULQDQ" (Intel, 2009). The kernel never
// names a polynomial: it reads the size's table (foldConsts in
// fcs_amd64.go). PCLMULQDQ, SSSE3 (PSHUFB) and SSE4.1 (PEXTRD); Update
// calls it only when the init-time CPUID probe found all three.

// func cpuidECX(leaf uint32) uint32
TEXT ·cpuidECX(SB), NOSPLIT, $0-12
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+8(FP)
	RET

// FOLD folds the 128-bit accumulator acc one block of b bits ahead,
// where k holds x^(b+32) and x^(b−32) mod P, and adds next into it.
// Clobbers tmp.
#define FOLD(k, acc, next, tmp) \
	MOVOA acc, tmp \
	PCLMULQDQ $0x00, k, acc \
	PCLMULQDQ $0x11, k, tmp \
	PXOR tmp, acc \
	PXOR next, acc

// tailShuf is two PSHUFB rows, read at +r and +16+r for a tail of r
// octets: the first moves the accumulator's r oldest octets to its top
// and clears the rest; the second shifts the accumulator down by r
// octets and clears the r lanes the tail fills (bit 7 set).
DATA tailShuf<>+0(SB)/8, $0x8786858483828180
DATA tailShuf<>+8(SB)/8, $0x8f8e8d8c8b8a8988
DATA tailShuf<>+16(SB)/8, $0x0706050403020100
DATA tailShuf<>+24(SB)/8, $0x0f0e0d0c0b0a0908
DATA tailShuf<>+32(SB)/8, $0x8786858483828180
DATA tailShuf<>+40(SB)/8, $0x8f8e8d8c8b8a8988
GLOBL tailShuf<>(SB), RODATA|NOPTR, $48

// func foldCLMUL(fcs uint32, p []byte, k *foldConsts) uint32
//
// len(p) must be at least 16. Four accumulators from 64 octets, one
// from 16; a tail of 1…15 octets is folded in-register from one load
// of p's last 16 octets, which overlaps what was folded and never
// reads outside p.
TEXT ·foldCLMUL(SB), NOSPLIT, $0-44
	MOVL fcs+0(FP), X0
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), DX
	MOVOU (SI), X1
	PXOR X0, X1 // the register joins the first 32 bits
	CMPQ CX, $64
	JB one

	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	ADDQ $64, SI
	SUBQ $64, CX
	CMPQ CX, $64
	JB four
	MOVOU 0(DX), X0 // x^544, x^480

loop4:
	MOVOU 0(SI), X11
	MOVOU 16(SI), X12
	MOVOU 32(SI), X13
	MOVOU 48(SI), X14
	FOLD(X0, X1, X11, X5)
	FOLD(X0, X2, X12, X6)
	FOLD(X0, X3, X13, X7)
	FOLD(X0, X4, X14, X8)
	ADDQ $64, SI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE loop4

four:
	MOVOU 16(DX), X0 // x^160, x^96
	FOLD(X0, X1, X2, X5)
	FOLD(X0, X1, X3, X5)
	FOLD(X0, X1, X4, X5)
	JMP blocks

one:
	ADDQ $16, SI
	SUBQ $16, CX
	MOVOU 16(DX), X0 // x^160, x^96

blocks:
	CMPQ CX, $16
	JB tail

loop1:
	MOVOU (SI), X2
	FOLD(X0, X1, X2, X5)
	ADDQ $16, SI
	SUBQ $16, CX
	CMPQ CX, $16
	JAE loop1

tail:
	TESTQ CX, CX
	JZ reduce
	MOVOU -16(SI)(CX*1), X2 // p's last 16 octets: the tail in the top CX lanes
	LEAQ tailShuf<>(SB), AX
	MOVOU (AX)(CX*1), X3
	MOVOU 16(AX)(CX*1), X4
	PXOR X7, X7
	PCMPGTB X4, X7 // 0xFF in the tail's lanes
	PAND X7, X2
	MOVOA X1, X5
	PSHUFB X3, X5 // the accumulator's oldest CX octets: one block ahead
	PSHUFB X4, X1 // the rest, shifted down to make room
	POR X2, X1
	FOLD(X0, X5, X1, X6)
	MOVOA X5, X1

reduce:
	// 128 bits to 96: the low half folded 64 bits ahead (x^96).
	PCMPEQB X3, X3
	PCLMULQDQ $0x01, X1, X0
	PSRLDQ $8, X1
	PXOR X0, X1

	// 96 bits to 64 (x^64).
	MOVOA X1, X2
	MOVQ 32(DX), X0
	PSRLQ $32, X3 // the low 32 bits of each half
	PSRLDQ $4, X2
	PAND X3, X1
	PCLMULQDQ $0x00, X0, X1
	PXOR X2, X1

	// 64 bits to the 32-bit register: Barrett, μ then P.
	MOVOU 48(DX), X0
	MOVOA X1, X2
	PAND X3, X1
	PCLMULQDQ $0x10, X0, X1
	PAND X3, X1
	PCLMULQDQ $0x00, X0, X1
	PXOR X2, X1
	PEXTRD $1, X1, AX
	MOVL AX, ret+40(FP)
	RET
