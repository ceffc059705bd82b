//go:build !purego

package matrix

// simd reports whether the AVX2 micro-kernels are in use — the 4×8 tile of
// a dense product (gemm_amd64.s), the row of a CSR×Dense and the column of
// a Dense×CSC one, the transposes the latter needs (spmm_amd64.s); decided
// once, from CPUID and XGETBV. wide reports whether dense products run the
// AVX-512 8×24 tile (8×8 for the last 8 or 16 columns) in place of the 4×8
// one; it implies simd. Both are vars
// only so the kernel tests can run every path a CPU has.
var (
	simd = hasAVX2()
	wide = simd && hasAVX512()
)

func hasAVX2() bool

func hasFMA3() bool

func hasAVX512() bool

//go:noescape
func gemmTile4x8(c, a, b *float64, k, ldc, lda, ldb int)

//go:noescape
func gemmTile8x8(c, a, b *float64, k, ldc, lda, ldb int)

//go:noescape
func gemmTile8x24(c, a, b *float64, k, ldc, lda, ldb, bnext int)

//go:noescape
func csrRowAVX2(c *float64, n int, val *float64, col *int, nnz int, b *float64, ldb int)

//go:noescape
func cscColAVX2(ct *float64, m int, val *float64, row *int, nnz int, at *float64, ldat int)

//go:noescape
func transposeStripAVX2(dst, src *float64, rows, ldd, lds int)
