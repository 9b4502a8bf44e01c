#include "textflag.h"

// The Escape Generate/Detect byte sorter (paper Figs 5 and 6) at SIMD
// width: eight lanes per table-driven PSHUFB, the tables in
// sorter_amd64.go. SSSE3; stuffBlock and destuffBlock call it only when
// the init-time CPUID probe found it.

// func cpuidECX(leaf uint32) uint32
TEXT ·cpuidECX(SB), NOSPLIT, $0-12
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+8(FP)
	RET

// CLASSIFY sets X1 to 0xFF in each lane of X0 that is a Flag or an
// Escape (X10, X11 broadcast them).
#define CLASSIFY \
	MOVO X0, X1 \
	MOVO X0, X2 \
	PCMPEQB X10, X1 \
	PCMPEQB X11, X2 \
	POR X2, X1

// MAPPED adds to X1 the lanes of X0 that are control characters set in
// the map: PSHUFB looks the low nibble up in the map's nibble table
// (X14) and the high nibble in the row table (X9); a lane whose two
// entries AND to its row bit is mapped. X13 broadcasts 0x0F.
#define MAPPED \
	MOVO X0, X4 \
	PAND X13, X4 \
	MOVO X14, X5 \
	PSHUFB X4, X5 \
	MOVO X0, X6 \
	PSRLW $4, X6 \
	PAND X13, X6 \
	MOVO X9, X7 \
	PSHUFB X6, X7 \
	PAND X7, X5 \
	PCMPEQB X7, X5 \
	POR X5, X1

// SPREAD stores the 8-octet word in the low half of reg, whose high
// half is Escape in every lane, spread by escape mask msk (a 64-bit
// register, 0–255) at DI, sixteen octets, and advances DI by 8 plus
// the mask's popcount. Clobbers DX, X3.
#define SPREAD(reg, msk) \
	MOVQ msk, DX \
	SHLQ $4, DX \
	MOVOU (R9)(DX*1), X3 \
	PSHUFB X3, reg \
	MOVOU reg, (DI) \
	MOVBQZX (R10)(msk*1), DX \
	LEAQ 8(DI)(DX*1), DI

// STUFF16 stuffs the sixteen octets of X0 whose escape lanes X1 marks:
// the escaped lanes xored with XorBit (X12), then each half spread
// with Escape (X11) as its upper lanes.
#define STUFF16 \
	PMOVMSKB X1, AX \
	PAND X12, X1 \
	PXOR X1, X0 \
	MOVO X0, X2 \
	PUNPCKLQDQ X11, X2 \
	PUNPCKHQDQ X11, X0 \
	MOVBQZX AL, BX \
	SHRL $8, AX \
	SPREAD(X2, BX) \
	SPREAD(X0, AX)

// STUFF8 stuffs the eight octets in the low half of X0 whose escape
// lanes X1 marks.
#define STUFF8 \
	PMOVMSKB X1, AX \
	PAND X12, X1 \
	PXOR X1, X0 \
	PUNPCKLQDQ X11, X0 \
	MOVBQZX AL, BX \
	SPREAD(X0, BX)

// func stuffSorted(dst *byte, src []byte, nib *[16]byte) int
//
// Per word: PCMPEQB against 7E and 7D (and, under a map, the nibble
// lookup) gives the escape lanes; they are xored with 0x20, the lane
// mask indexes stuffShuf, one PSHUFB spreads the octets and opens and
// fills the escape slots, one 16-octet store, and the write position
// advances by 8 + popcount. Sixteen octets a load; a last word alone.
TEXT ·stuffSorted(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ nib+32(FP), R8
	MOVQ DI, R12
	LEAQ ·stuffShuf(SB), R9
	LEAQ ·popcount8(SB), R10
	MOVQ $0x7e7e7e7e7e7e7e7e, AX
	MOVQ AX, X10
	PUNPCKLQDQ X10, X10
	MOVQ $0x7d7d7d7d7d7d7d7d, AX
	MOVQ AX, X11
	PUNPCKLQDQ X11, X11
	MOVQ $0x2020202020202020, AX
	MOVQ AX, X12
	PUNPCKLQDQ X12, X12
	TESTQ R8, R8
	JNZ mapped

plain16:
	CMPQ CX, $16
	JB plain8
	MOVOU (SI), X0
	CLASSIFY
	STUFF16
	ADDQ $16, SI
	SUBQ $16, CX
	JMP plain16

plain8:
	CMPQ CX, $8
	JB done
	MOVQ (SI), X0
	CLASSIFY
	STUFF8
	JMP done

mapped:
	MOVOU (R8), X14
	MOVOU ·accmRows(SB), X9
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	MOVQ AX, X13
	PUNPCKLQDQ X13, X13

mapped16:
	CMPQ CX, $16
	JB mapped8
	MOVOU (SI), X0
	CLASSIFY
	MAPPED
	STUFF16
	ADDQ $16, SI
	SUBQ $16, CX
	JMP mapped16

mapped8:
	CMPQ CX, $8
	JB done
	MOVQ (SI), X0
	CLASSIFY
	MAPPED
	STUFF8

done:
	SUBQ R12, DI
	MOVQ DI, ret+40(FP)
	RET

// UNSTUFF8 destuffs the word at off(SI) whose 0x7D lanes are msk (a
// 64-bit register, 0–255) under the pending escape DX (0 or 1). msk
// indexes both halves of destuffRun, the real escapes and the advance
// with and without an escape pending in, and DX picks one: the table
// loads do not wait for the previous word, so the pending escape is a
// CMOV and a shift from one word to the next. The word, xored by
// destuffXor's entry for msk and DX, is left-packed by packShuf's
// entry for the real escapes and stored at DI, eight octets; DI
// advances by 8 minus the escapes and DX is the escape pending out of
// lane 7. Clobbers msk, R10, R12, R13, X2, X3.
#define UNSTUFF8(off, msk) \
	MOVWQZX (R8)(msk*2), R10 \
	MOVWQZX 512(R8)(msk*2), R12 \
	TESTQ DX, DX \
	CMOVQNE R12, R10 \
	SHLQ $8, DX \
	ORQ DX, msk \
	MOVQ off(SI), R13 \
	XORQ (R9)(msk*8), R13 \
	MOVQ R13, X2 \
	MOVBQZX R10B, DX \
	MOVQ (R11)(DX*8), X3 \
	PSHUFB X3, X2 \
	MOVQ X2, (DI) \
	SHRQ $7, DX \
	SHRQ $8, R10 \
	ADDQ R10, DI

// func destuffSorted(dst *byte, src []byte, pend uint64) (int, uint64)
//
// Per word: PCMPEQB against 7D gives the escape lanes; with the pending
// escape carried in they index a 512-entry table of real escapes, the
// lanes after a real escape are xored with 0x20, a 256-entry PSHUFB
// table left-packs the word without its escapes, one 8-octet store,
// and the pending bit carries out of lane 7. Sixteen octets a compare.
TEXT ·destuffSorted(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ pend+32(FP), DX
	LEAQ ·destuffRun(SB), R8
	LEAQ ·destuffXor(SB), R9
	LEAQ ·packShuf(SB), R11
	MOVQ $0x7d7d7d7d7d7d7d7d, AX
	MOVQ AX, X11
	PUNPCKLQDQ X11, X11

word16:
	CMPQ CX, $16
	JB word8
	MOVOU (SI), X0
	PCMPEQB X11, X0
	PMOVMSKB X0, AX
	MOVBQZX AL, BX
	SHRL $8, AX
	UNSTUFF8(0, BX)
	UNSTUFF8(8, AX)
	ADDQ $16, SI
	SUBQ $16, CX
	JMP word16

word8:
	CMPQ CX, $8
	JB wdone
	MOVQ (SI), X0
	PCMPEQB X11, X0
	PMOVMSKB X0, AX
	MOVBQZX AL, AX
	UNSTUFF8(0, AX)

wdone:
	SUBQ dst+0(FP), DI
	MOVQ DI, ret+40(FP)
	MOVQ DX, ret1+48(FP)
	RET
