//go:build !purego

package matrix

// simd reports whether the AVX2 micro-kernel serves the full 4×8 tiles of
// a dense product; decided once, from CPUID and XGETBV. A var only so the
// kernel tests can run the portable loop on an AVX2 machine.
var simd = hasAVX2()

func hasAVX2() bool

//go:noescape
func gemmTile4x8(c, a, b *float64, k, ldc, lda, ldb int)
