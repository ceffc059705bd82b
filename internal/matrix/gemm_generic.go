//go:build !amd64 || purego

package matrix

// simd is false wherever the AVX2 micro-kernel is not built — other
// architectures and the purego tag: every dense product runs the portable
// loop. A var only because the kernel tests assign it on amd64.
var simd = false

func gemmTile4x8(c, a, b *float64, k, ldc, lda, ldb int) {
	panic("matrix: no SIMD micro-kernel in this build")
}
