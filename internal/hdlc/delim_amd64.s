#include "go_asm.h"
#include "textflag.h"

// func delimMaps(maps *[mapBlocks]uint64, src []byte) int
//
// The delimiter bitmaps of k = min(len(src)/64, mapBlocks) whole blocks,
// sixteen lanes per compare: per 16 octets one unaligned load, PCMPEQB
// against broadcast 0x7E and 0x7D, POR and PMOVMSKB, whose 16-bit mask
// is already in octet order; a block's four masks are its bitmap. The
// dense stop counts every block's delimiters without a branch on the
// data (the 0xFF matches subtracted lane-wise, PSADBW against zero per
// half) and returns index + 1 after the first block above denseBits.
// SSE2 only: the amd64 baseline, nothing to detect or dispatch.
TEXT ·delimMaps(SB), NOSPLIT, $0-40
	MOVQ maps+0(FP), DI
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	SHRQ $6, CX
	MOVQ $const_mapBlocks, AX
	CMPQ CX, AX
	CMOVQGT AX, CX
	MOVQ CX, ret+32(FP)
	TESTQ CX, CX
	JZ done
	MOVQ $0x7e7e7e7e7e7e7e7e, AX
	MOVQ AX, X0
	PUNPCKLQDQ X0, X0
	MOVQ $0x7d7d7d7d7d7d7d7d, AX
	MOVQ AX, X1
	PUNPCKLQDQ X1, X1
	PXOR X8, X8
	XORQ R8, R8

loop:
	MOVOU 0(SI), X2
	MOVOU 16(SI), X3
	MOVOU 32(SI), X4
	MOVOU 48(SI), X5
	MOVO X2, X6
	MOVO X3, X7
	PCMPEQB X0, X2
	PCMPEQB X1, X6
	PCMPEQB X0, X3
	PCMPEQB X1, X7
	POR X6, X2
	POR X7, X3
	MOVO X4, X6
	MOVO X5, X7
	PCMPEQB X0, X4
	PCMPEQB X1, X6
	PCMPEQB X0, X5
	PCMPEQB X1, X7
	POR X6, X4
	POR X7, X5
	PMOVMSKB X2, AX
	PMOVMSKB X3, BX
	PMOVMSKB X4, DX
	PMOVMSKB X5, R9
	SHLQ $16, BX
	SHLQ $32, DX
	SHLQ $48, R9
	ORQ BX, AX
	ORQ R9, DX
	ORQ DX, AX
	MOVQ AX, (DI)(R8*8)
	INCQ R8

	// Lane counts 0..4 (a match is 0xFF, -1), summed per half.
	PXOR X9, X9
	PSUBB X2, X9
	PSUBB X3, X9
	PSUBB X4, X9
	PSUBB X5, X9
	PSADBW X8, X9
	MOVQ X9, BX
	PEXTRW $4, X9, DX
	ADDL DX, BX
	CMPL BX, $const_denseBits
	JA dense
	ADDQ $64, SI
	CMPQ R8, CX
	JB loop

done:
	RET

dense:
	MOVQ R8, ret+32(FP)
	RET
