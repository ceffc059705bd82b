//go:build !purego

#include "textflag.h"

// The two sparse–dense micro-kernels. Both lay the vector lanes along the
// dense dimension, so a lane is one element of C and sees the operation
// sequence of the portable loops in spmm.go: every product is a VMULPD,
// every sum a VADDPD, never an FMA.

// func csrRowAVX2(c *float64, n int, val *float64, col *int, nnz int, b *float64, ldb int)
//
// One row of C += A×B with A in CSR: c[0:n] takes the row's nnz entries
// (val, col) against the rows of B (row stride ldb elements), n a positive
// multiple of 4. Entries go four at a time,
//   c = c + (((v0·r0 + v1·r1) + v2·r2) + v3·r3),
// then one at a time, c = c + v·r.
TEXT ·csrRowAVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ val+16(FP), SI
	MOVQ col+24(FP), DX
	MOVQ nnz+32(FP), BX
	MOVQ b+40(FP), R8
	MOVQ ldb+48(FP), R9
	SHLQ $3, CX
	SHLQ $3, R9

quad:
	CMPQ BX, $4
	JLT  single
	VBROADCASTSD (SI), Y12
	VBROADCASTSD 8(SI), Y13
	VBROADCASTSD 16(SI), Y14
	VBROADCASTSD 24(SI), Y15
	MOVQ  (DX), R10
	IMULQ R9, R10
	ADDQ  R8, R10
	MOVQ  8(DX), R11
	IMULQ R9, R11
	ADDQ  R8, R11
	MOVQ  16(DX), R12
	IMULQ R9, R12
	ADDQ  R8, R12
	MOVQ  24(DX), R13
	IMULQ R9, R13
	ADDQ  R8, R13
	XORQ  AX, AX
	TESTQ $32, CX
	JZ    quad8

	// An odd count of 4-lane groups: one group alone, then pairs.
	VMULPD (R10), Y12, Y0
	VMULPD (R11), Y13, Y1
	VADDPD Y1, Y0, Y0
	VMULPD (R12), Y14, Y2
	VADDPD Y2, Y0, Y0
	VMULPD (R13), Y15, Y3
	VADDPD Y3, Y0, Y0
	VADDPD (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	MOVQ $32, AX
	CMPQ AX, CX
	JGE  quadnext

quad8:
	VMULPD (R10)(AX*1), Y12, Y0
	VMULPD 32(R10)(AX*1), Y12, Y4
	VMULPD (R11)(AX*1), Y13, Y1
	VMULPD 32(R11)(AX*1), Y13, Y5
	VADDPD Y1, Y0, Y0
	VADDPD Y5, Y4, Y4
	VMULPD (R12)(AX*1), Y14, Y2
	VMULPD 32(R12)(AX*1), Y14, Y6
	VADDPD Y2, Y0, Y0
	VADDPD Y6, Y4, Y4
	VMULPD (R13)(AX*1), Y15, Y3
	VMULPD 32(R13)(AX*1), Y15, Y7
	VADDPD Y3, Y0, Y0
	VADDPD Y7, Y4, Y4
	VADDPD (DI)(AX*1), Y0, Y0
	VADDPD 32(DI)(AX*1), Y4, Y4
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y4, 32(DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, CX
	JLT  quad8

quadnext:
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $4, BX
	JMP  quad

single:
	TESTQ BX, BX
	JZ    done
	VBROADCASTSD (SI), Y12
	MOVQ  (DX), R10
	IMULQ R9, R10
	ADDQ  R8, R10
	XORQ  AX, AX

single4:
	VMULPD (R10)(AX*1), Y12, Y0
	VADDPD (DI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  single4
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ BX
	JMP  single

done:
	VZEROUPPER
	RET

// func cscColAVX2(ct *float64, m int, val *float64, row *int, nnz int, at *float64, ldat int)
//
// One column of C += A×B with B in CSC, on transposed operands: ct[0:m] is
// the column of C, at is Aᵀ (row r is column r of A, row stride ldat
// elements), m a positive multiple of 4. The column's nnz entries (val, row)
// go alternately into two sums that start at zero, the even ones into s0 and
// the odd ones into s1, in order; then c = c + (s0 + s1). Sixteen lanes at a
// time while they last (s0 in Y0–Y3, s1 in Y4–Y7), then four.
TEXT ·cscColAVX2(SB), NOSPLIT, $0-56
	MOVQ ct+0(FP), DI
	MOVQ m+8(FP), CX
	MOVQ val+16(FP), SI
	MOVQ row+24(FP), DX
	MOVQ nnz+32(FP), BX
	MOVQ at+40(FP), R8
	MOVQ ldat+48(FP), R9
	SHLQ $3, R9

lanes16:
	CMPQ CX, $16
	JLT  lanes4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ BX, R12

pair16:
	CMPQ R12, $2
	JLT  last16
	MOVQ  (R11), AX
	IMULQ R9, AX
	ADDQ  R8, AX
	MOVQ  8(R11), R13
	IMULQ R9, R13
	ADDQ  R8, R13
	VBROADCASTSD (R10), Y8
	VBROADCASTSD 8(R10), Y9
	VMULPD (AX), Y8, Y10
	VMULPD 32(AX), Y8, Y11
	VMULPD 64(AX), Y8, Y12
	VMULPD 96(AX), Y8, Y13
	VADDPD Y10, Y0, Y0
	VADDPD Y11, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y3, Y3
	VMULPD (R13), Y9, Y10
	VMULPD 32(R13), Y9, Y11
	VMULPD 64(R13), Y9, Y12
	VMULPD 96(R13), Y9, Y13
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	VADDPD Y12, Y6, Y6
	VADDPD Y13, Y7, Y7
	ADDQ $16, R10
	ADDQ $16, R11
	SUBQ $2, R12
	JMP  pair16

last16:
	TESTQ R12, R12
	JZ    fold16
	MOVQ  (R11), AX
	IMULQ R9, AX
	ADDQ  R8, AX
	VBROADCASTSD (R10), Y8
	VMULPD (AX), Y8, Y10
	VMULPD 32(AX), Y8, Y11
	VMULPD 64(AX), Y8, Y12
	VMULPD 96(AX), Y8, Y13
	VADDPD Y10, Y0, Y0
	VADDPD Y11, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y3, Y3

fold16:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD 64(DI), Y2, Y2
	VADDPD 96(DI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R8
	SUBQ $16, CX
	JMP  lanes16

lanes4:
	TESTQ CX, CX
	JZ    coldone
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ BX, R12

pair4:
	CMPQ R12, $2
	JLT  last4
	MOVQ  (R11), AX
	IMULQ R9, AX
	MOVQ  8(R11), R13
	IMULQ R9, R13
	VBROADCASTSD (R10), Y8
	VBROADCASTSD 8(R10), Y9
	VMULPD (R8)(AX*1), Y8, Y10
	VMULPD (R8)(R13*1), Y9, Y11
	VADDPD Y10, Y0, Y0
	VADDPD Y11, Y4, Y4
	ADDQ $16, R10
	ADDQ $16, R11
	SUBQ $2, R12
	JMP  pair4

last4:
	TESTQ R12, R12
	JZ    fold4
	MOVQ  (R11), AX
	IMULQ R9, AX
	VBROADCASTSD (R10), Y8
	VMULPD (R8)(AX*1), Y8, Y10
	VADDPD Y10, Y0, Y0

fold4:
	VADDPD Y4, Y0, Y0
	VADDPD (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $4, CX
	JMP  lanes4

coldone:
	VZEROUPPER
	RET

// func transposeStripAVX2(dst, src *float64, rows, ldd, lds int)
//
// Eight columns of src (row stride lds elements), rows rows long, rows a
// positive multiple of 4, written as eight rows of dst (row stride ldd):
// dst[j][i] = src[i][j]. Each step reads four whole cache lines of src, one
// per row, turns the two 4×4 tiles in registers and appends four elements
// to each of the eight rows of dst — every line of either side is touched
// once, whatever power of two the strides are.
TEXT ·transposeStripAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), CX
	MOVQ ldd+24(FP), R8
	MOVQ lds+32(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10   // three rows of src
	LEAQ (R8)(R8*2), R11   // three rows of dst
	LEAQ (DI)(R8*4), DX    // row 4 of dst

tile:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R9*1), Y1
	VMOVUPD (SI)(R9*2), Y2
	VMOVUPD (SI)(R10*1), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, (DI)(R8*1)
	VMOVUPD Y10, (DI)(R8*2)
	VMOVUPD Y11, (DI)(R11*1)
	VMOVUPD 32(SI), Y0
	VMOVUPD 32(SI)(R9*1), Y1
	VMOVUPD 32(SI)(R9*2), Y2
	VMOVUPD 32(SI)(R10*1), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, (DX)(R8*1)
	VMOVUPD Y10, (DX)(R8*2)
	VMOVUPD Y11, (DX)(R11*1)
	LEAQ (SI)(R9*4), SI
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JNZ  tile
	VZEROUPPER
	RET
