//go:build !purego

#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 is usable when the CPU reports it (leaf 7 EBX bit 5) together with
// FMA3 (leaf 1 ECX bit 12), which the dense 4x8 tile issues, and the OS
// saves the YMM state across context switches: leaf 1 ECX bits 27 (OSXSAVE)
// and 28 (AVX), then XCR0 bits 1 and 2 (SSE and AVX state) read with
// XGETBV. A CPU with AVX2 but no FMA3 runs the portable loops.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func hasFMA3() bool
//
// FMA3 is reported by leaf 1 ECX bit 12. hasAVX2 checks the same bit; this
// probe is only the kernel tests' record of it.
TEXT ·hasFMA3(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $12, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET

// func hasAVX512() bool
//
// AVX-512F is usable when the CPU reports it (leaf 7 EBX bit 16) and the OS
// saves the opmask and ZMM state across context switches: leaf 1 ECX bit 27
// (OSXSAVE), then XCR0 bits 1 and 2 (SSE and AVX state) and 5, 6 and 7
// (opmask, the upper halves of ZMM0-15, ZMM16-31) read with XGETBV.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	TESTL $0x08000000, CX
	JZ    no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x10000, BX
	JZ    no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func gemmTile4x8(c, a, b *float64, k, ldc, lda, ldb int)
//
// C[r][0:8] += sum over p in [0,k) of A[r][p] * B[p][0:8] for r in [0,4),
// with row strides ldc, lda, ldb in elements. The 4x8 tile of C lives in
// Y0..Y7 for the whole k range. Each step is one VFMADD231PD, a fused
// multiply-add rounded once, and p ascends, so every element rounds exactly
// as the scalar c = math.FMA(a, b, c) loop does.
TEXT ·gemmTile4x8(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ ldc+32(FP), R8
	MOVQ lda+40(FP), R9
	MOVQ ldb+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10

	// R11 = row 3 of C, R12 = row 3 of A; rows 1 and 2 use scaled indexing.
	LEAQ (R8)(R8*2), R11
	ADDQ DI, R11
	LEAQ (R9)(R9*2), R12
	ADDQ SI, R12

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7

	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9

	VBROADCASTSD (SI), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1

	VBROADCASTSD (SI)(R9*1), Y13
	VFMADD231PD Y8, Y13, Y2
	VFMADD231PD Y9, Y13, Y3

	VBROADCASTSD (SI)(R9*2), Y10
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5

	VBROADCASTSD (R12), Y13
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7

	ADDQ $8, SI
	ADDQ $8, R12
	ADDQ R10, DX
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)
	VZEROUPPER
	RET

// func gemmTile8x8(c, a, b *float64, k, ldc, lda, ldb int)
//
// gemmTile4x8 for eight rows of C on 512-bit registers, the tile for the 8
// or 16 columns left over after gemmTile8x24's groups of 24: C[r][0:8]
// lives in Zr for r in [0,8). Each step loads B[p][0:8] once into Z8,
// multiplies it by A[r][p] broadcast from memory and adds the product into
// Zr with one VFMADD231PD.BCST, p ascending, so every element rounds as in
// gemmTile4x8.
// A's rows are SI, SI+lda, SI+2lda, R11 = SI+3lda, SI+4lda, R11+2lda,
// R12 = SI+6lda and R12+lda; C's likewise from DI, AX = DI+3ldc and
// BX = DI+6ldc.
TEXT ·gemmTile8x8(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ ldc+32(FP), R8
	MOVQ lda+40(FP), R9
	MOVQ ldb+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10

	LEAQ (R8)(R8*2), AX
	ADDQ DI, AX
	LEAQ (AX)(R8*2), BX
	ADDQ R8, BX
	LEAQ (R9)(R9*2), R11
	ADDQ SI, R11
	LEAQ (R11)(R9*2), R12
	ADDQ R9, R12

	VMOVUPD (DI), Z0
	VMOVUPD (DI)(R8*1), Z1
	VMOVUPD (DI)(R8*2), Z2
	VMOVUPD (AX), Z3
	VMOVUPD (DI)(R8*4), Z4
	VMOVUPD (AX)(R8*2), Z5
	VMOVUPD (BX), Z6
	VMOVUPD (BX)(R8*1), Z7

	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPD (DX), Z8

	VFMADD231PD.BCST (SI), Z8, Z0
	VFMADD231PD.BCST (SI)(R9*1), Z8, Z1
	VFMADD231PD.BCST (SI)(R9*2), Z8, Z2
	VFMADD231PD.BCST (R11), Z8, Z3
	VFMADD231PD.BCST (SI)(R9*4), Z8, Z4
	VFMADD231PD.BCST (R11)(R9*2), Z8, Z5
	VFMADD231PD.BCST (R12), Z8, Z6
	VFMADD231PD.BCST (R12)(R9*1), Z8, Z7

	ADDQ $8, SI
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ R10, DX
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (DI)(R8*1)
	VMOVUPD Z2, (DI)(R8*2)
	VMOVUPD Z3, (AX)
	VMOVUPD Z4, (DI)(R8*4)
	VMOVUPD Z5, (AX)(R8*2)
	VMOVUPD Z6, (BX)
	VMOVUPD Z7, (BX)(R8*1)
	VZEROUPPER
	RET

// func gemmTile8x24(c, a, b *float64, k, ldc, lda, ldb, bnext int)
//
// C[r][0:24] += sum over p in [0,k) of A[r][p] * B[p][0:24] for r in [0,8),
// the dense kernel's main tile. Columns 8q..8q+7 of B are read from
// b + q*bnext (bnext elements: the next 8-column panel of a packed B, or 8
// for B read in place), with row stride ldb. C[r][8q:8q+8] lives in
// Z(3r+q) for the whole k range: 24 registers, three more hold the step's
// B vectors and two take turns holding a broadcast A element, 29 of the 32.
// Each step loads three B vectors and broadcasts each A element once, then
// issues 24 VFMADD231PD, p ascending, so every element rounds as in
// gemmTile4x8. 24 FMAs against 11 loads a step keep the FMA port, not the
// load ports, the limit. A's and C's rows are addressed as in gemmTile8x8.
TEXT ·gemmTile8x24(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ ldc+32(FP), R8
	MOVQ lda+40(FP), R9
	MOVQ ldb+48(FP), R10
	MOVQ bnext+56(FP), R13
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R13

	LEAQ (R8)(R8*2), AX
	ADDQ DI, AX
	LEAQ (AX)(R8*2), BX
	ADDQ R8, BX
	LEAQ (R9)(R9*2), R11
	ADDQ SI, R11
	LEAQ (R11)(R9*2), R12
	ADDQ R9, R12

	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD (DI)(R8*1), Z3
	VMOVUPD 64(DI)(R8*1), Z4
	VMOVUPD 128(DI)(R8*1), Z5
	VMOVUPD (DI)(R8*2), Z6
	VMOVUPD 64(DI)(R8*2), Z7
	VMOVUPD 128(DI)(R8*2), Z8
	VMOVUPD (AX), Z9
	VMOVUPD 64(AX), Z10
	VMOVUPD 128(AX), Z11
	VMOVUPD (DI)(R8*4), Z12
	VMOVUPD 64(DI)(R8*4), Z13
	VMOVUPD 128(DI)(R8*4), Z14
	VMOVUPD (AX)(R8*2), Z15
	VMOVUPD 64(AX)(R8*2), Z16
	VMOVUPD 128(AX)(R8*2), Z17
	VMOVUPD (BX), Z18
	VMOVUPD 64(BX), Z19
	VMOVUPD 128(BX), Z20
	VMOVUPD (BX)(R8*1), Z21
	VMOVUPD 64(BX)(R8*1), Z22
	VMOVUPD 128(BX)(R8*1), Z23

	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPD (DX), Z24
	VMOVUPD (DX)(R13*1), Z25
	VMOVUPD (DX)(R13*2), Z26

	VBROADCASTSD (SI), Z27
	VFMADD231PD Z24, Z27, Z0
	VFMADD231PD Z25, Z27, Z1
	VFMADD231PD Z26, Z27, Z2

	VBROADCASTSD (SI)(R9*1), Z28
	VFMADD231PD Z24, Z28, Z3
	VFMADD231PD Z25, Z28, Z4
	VFMADD231PD Z26, Z28, Z5

	VBROADCASTSD (SI)(R9*2), Z27
	VFMADD231PD Z24, Z27, Z6
	VFMADD231PD Z25, Z27, Z7
	VFMADD231PD Z26, Z27, Z8

	VBROADCASTSD (R11), Z28
	VFMADD231PD Z24, Z28, Z9
	VFMADD231PD Z25, Z28, Z10
	VFMADD231PD Z26, Z28, Z11

	VBROADCASTSD (SI)(R9*4), Z27
	VFMADD231PD Z24, Z27, Z12
	VFMADD231PD Z25, Z27, Z13
	VFMADD231PD Z26, Z27, Z14

	VBROADCASTSD (R11)(R9*2), Z28
	VFMADD231PD Z24, Z28, Z15
	VFMADD231PD Z25, Z28, Z16
	VFMADD231PD Z26, Z28, Z17

	VBROADCASTSD (R12), Z27
	VFMADD231PD Z24, Z27, Z18
	VFMADD231PD Z25, Z27, Z19
	VFMADD231PD Z26, Z27, Z20

	VBROADCASTSD (R12)(R9*1), Z28
	VFMADD231PD Z24, Z28, Z21
	VFMADD231PD Z25, Z28, Z22
	VFMADD231PD Z26, Z28, Z23

	ADDQ $8, SI
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ R10, DX
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, (DI)(R8*1)
	VMOVUPD Z4, 64(DI)(R8*1)
	VMOVUPD Z5, 128(DI)(R8*1)
	VMOVUPD Z6, (DI)(R8*2)
	VMOVUPD Z7, 64(DI)(R8*2)
	VMOVUPD Z8, 128(DI)(R8*2)
	VMOVUPD Z9, (AX)
	VMOVUPD Z10, 64(AX)
	VMOVUPD Z11, 128(AX)
	VMOVUPD Z12, (DI)(R8*4)
	VMOVUPD Z13, 64(DI)(R8*4)
	VMOVUPD Z14, 128(DI)(R8*4)
	VMOVUPD Z15, (AX)(R8*2)
	VMOVUPD Z16, 64(AX)(R8*2)
	VMOVUPD Z17, 128(AX)(R8*2)
	VMOVUPD Z18, (BX)
	VMOVUPD Z19, 64(BX)
	VMOVUPD Z20, 128(BX)
	VMOVUPD Z21, (BX)(R8*1)
	VMOVUPD Z22, 64(BX)(R8*1)
	VMOVUPD Z23, 128(BX)(R8*1)
	VZEROUPPER
	RET
