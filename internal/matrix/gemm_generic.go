//go:build !amd64 || purego

package matrix

// simd and wide are false wherever the micro-kernels are not built — other
// architectures and the purego tag: every product runs the portable loops.
// Vars only because the kernel tests assign them on amd64.
var simd, wide = false, false

// hasFMA3 is not probed where the micro-kernels are not built.
func hasFMA3() bool { return false }

func gemmTile4x8(c, a, b *float64, k, ldc, lda, ldb int) { noSIMD() }

func gemmTile8x8(c, a, b *float64, k, ldc, lda, ldb int) { noSIMD() }

func gemmTile8x24(c, a, b *float64, k, ldc, lda, ldb, bnext int) { noSIMD() }

func csrRowAVX2(c *float64, n int, val *float64, col *int, nnz int, b *float64, ldb int) { noSIMD() }

func cscColAVX2(ct *float64, m int, val *float64, row *int, nnz int, at *float64, ldat int) { noSIMD() }

func transposeStripAVX2(dst, src *float64, rows, ldd, lds int) { noSIMD() }

func noSIMD() { panic("matrix: no SIMD micro-kernel in this build") }
