package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// The "seed" variants below are the repo's original serial kernels,
// preserved verbatim as regression baselines so `go test -bench` proves
// (or disproves) each optimization on the machine at hand:
//
//	go test -bench 'Gemm|CSRMulDense|DenseMulCSC|CSRMulCSR' -cpu 1,2 ./internal/matrix
//
// This is the one copy of the seed kernels. The current kernels' cost inside
// a real job is the repository benchmark's matrix.kernel_ms / matrix.gflops.

// seedGemmBlock was the seed kernel's k-tiling factor.
const seedGemmBlock = 64

// seedGemm is the seed's i-k-j loop with k-tiling and zero skip, serial.
func seedGemm(c, a, b *Dense) {
	k := a.ColsN
	n := b.ColsN
	for kk := 0; kk < k; kk += seedGemmBlock {
		kmax := kk + seedGemmBlock
		if kmax > k {
			kmax = k
		}
		for i := 0; i < a.RowsN; i++ {
			arow := a.Data[i*k : (i+1)*k]
			crow := c.Data[i*n : (i+1)*n]
			for p := kk; p < kmax; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b.Data[p*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// seedCSRMulDense is the seed's serial row loop, one AXPY per entry.
func seedCSRMulDense(c *Dense, a *CSR, b *Dense) {
	m := a.RowsN
	n := b.ColsN
	for i := 0; i < m; i++ {
		crow := c.Data[i*n : (i+1)*n]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			av := a.Val[p]
			brow := b.Data[a.ColIdx[p]*n : (a.ColIdx[p]+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// seedDenseMulCSC is the seed's column-outer loop with stride-n C writes.
func seedDenseMulCSC(c *Dense, a *Dense, b *CSC) {
	m := a.RowsN
	ka := a.ColsN
	n := b.ColsN
	for j := 0; j < n; j++ {
		for p := b.ColPtr[j]; p < b.ColPtr[j+1]; p++ {
			bk := b.RowIdx[p]
			bv := b.Val[p]
			for i := 0; i < m; i++ {
				c.Data[i*n+j] += a.Data[i*ka+bk] * bv
			}
		}
	}
}

// seedCSRMulCSR is the seed's serial Gustavson with pure insertion sort.
func seedCSRMulCSR(a, b *CSR) *CSR {
	m := a.RowsN
	n := b.ColsN
	out := &CSR{RowsN: m, ColsN: n, RowPtr: make([]int, m+1)}
	acc := make([]float64, n)
	marker := make([]int, n)
	for i := range marker {
		marker[i] = -1
	}
	var cols []int
	for i := 0; i < m; i++ {
		cols = cols[:0]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := a.ColIdx[p]
			av := a.Val[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				j := b.ColIdx[q]
				if marker[j] != i {
					marker[j] = i
					acc[j] = 0
					cols = append(cols, j)
				}
				acc[j] += av * b.Val[q]
			}
		}
		insertionSortInts(cols)
		for _, j := range cols {
			if acc[j] != 0 {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, acc[j])
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out
}

func BenchmarkGemm(b *testing.B) {
	for _, size := range []int{128, 256, 512} {
		rng := rand.New(rand.NewSource(1))
		x := RandomDense(rng, size, size)
		y := RandomDense(rng, size, size)
		c := NewDense(size, size)
		flops := 2 * float64(size) * float64(size) * float64(size)
		b.Run(benchName("seed", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Zero()
				seedGemm(c, x, y)
			}
			reportGFlops(b, flops)
		})
		for _, kernel := range kernelPaths {
			name := kernel
			if kernel == "go" {
				name = "fallback"
			}
			b.Run(benchName(name, size), func(b *testing.B) {
				useKernel(b, kernel)
				for i := 0; i < b.N; i++ {
					c.Zero()
					Gemm(c, x, y)
				}
				reportGFlops(b, flops)
			})
		}
	}
}

// BenchmarkGemmTile runs each dense micro-kernel alone on operands that stay
// in L1 (k = 64, B as packed panels), so its GFLOPS row is the tile's own
// ceiling, apart from row chunks, packing and the portable remainders: a
// 512-bit FMA a cycle is 16 GFLOP/s per GHz. Pass -cpu 1.
func BenchmarkGemmTile(b *testing.B) {
	const k = 64
	rng := rand.New(rand.NewSource(1))
	a := RandomDense(rng, wideTileRows, k)
	panels := RandomDense(rng, wideTileCols/tileCols, k*tileCols) // three panels, back to back
	c := NewDense(wideTileRows, wideTileCols)
	for _, tile := range []struct {
		name       string
		rows, cols int
		kernel     string
		run        func()
	}{
		{"8x24", wideTileRows, wideTileCols, "avx512", func() {
			gemmTile8x24(&c.Data[0], &a.Data[0], &panels.Data[0], k, wideTileCols, k, tileCols, k*tileCols)
		}},
		{"8x8", wideTileRows, tileCols, "avx512", func() {
			gemmTile8x8(&c.Data[0], &a.Data[0], &panels.Data[0], k, wideTileCols, k, tileCols)
		}},
		{"4x8", tileRows, tileCols, "avx2", func() {
			gemmTile4x8(&c.Data[0], &a.Data[0], &panels.Data[0], k, wideTileCols, k, tileCols)
		}},
	} {
		b.Run(tile.name, func(b *testing.B) {
			useKernel(b, tile.kernel)
			for i := 0; i < b.N; i++ {
				tile.run() // into a running C, as the k chain of a tile does
			}
			reportGFlops(b, 2*float64(tile.rows*tile.cols*k))
		})
	}
}

// kernelPaths names the kernel paths a build can take, portable first.
var kernelPaths = []string{"go", "avx2", "avx512"}

// useKernel selects a kernel path for the rest of a test or benchmark: "go"
// runs the portable loops, "avx2" the AVX2 micro-kernels, "avx512" the same
// with the 8×8 dense tile. A path this build or CPU lacks is skipped.
func useKernel(tb testing.TB, kernel string) {
	tb.Helper()
	oldSIMD, oldWide := simd, wide
	switch kernel {
	case "go":
		simd, wide = false, false
	case "avx2":
		if !oldSIMD {
			tb.Skip("no AVX2 micro-kernels: a purego or non-amd64 build, or CPUID/XCR0 lacks AVX2")
		}
		simd, wide = true, false
	case "avx512":
		if !oldWide {
			tb.Skip("no AVX-512 tile: a purego or non-amd64 build, or CPUID/XCR0 lacks AVX512F or the ZMM state")
		}
		simd, wide = true, true
	default:
		tb.Fatalf("unknown kernel path %q", kernel)
	}
	tb.Cleanup(func() { simd, wide = oldSIMD, oldWide })
}

// kernelRows runs the seed / fallback / avx2 rows of one sparse shape; the
// sparse kernels have no AVX-512 form.
func kernelRows(b *testing.B, shape string, flops float64, c *Dense, seed, current func()) {
	for _, row := range []struct {
		name   string
		run    func()
		kernel string
	}{{"seed", seed, KernelName()}, {"fallback", current, "go"}, {"avx2", current, "avx2"}} {
		b.Run(row.name+"/"+shape, func(b *testing.B) {
			useKernel(b, row.kernel)
			c.Zero()
			for i := 0; i < b.N; i++ {
				row.run() // into a running C: zeroing it would cost the small shapes as much as the product
			}
			reportGFlops(b, flops)
		})
	}
}

func BenchmarkCSRMulDense(b *testing.B) {
	// The paper's sparse workloads (GNMF) multiply a very sparse rating
	// block by a thin dense factor: 2048×2048 at 1% × 2048×128. The two
	// 256² shapes are the block products of the repository benchmark:
	// gnmf_resident's V·Hᵀ and sparse_tall.
	for _, tc := range []struct {
		shape   string
		m, n    int
		density float64
	}{
		{"2048sq1pct_x128", 2048, 128, 0.01},
		{"256sq1pct_x128", 256, 128, 0.01},
		{"256sq0.1pct_x64", 256, 64, 0.001},
	} {
		rng := rand.New(rand.NewSource(2))
		x := RandomSparse(rng, tc.m, tc.m, tc.density)
		y := RandomDense(rng, tc.m, tc.n)
		c := NewDense(tc.m, tc.n)
		kernelRows(b, tc.shape, 2*float64(x.NNZ())*float64(tc.n), c,
			func() { seedCSRMulDense(c, x, y) },
			func() { CSRMulDense(c, x, y) })
	}
}

// BenchmarkDenseMulCSC is the regression benchmark for the stride-n fix —
// the seed's column-outer loop touches a new C cache line per element —
// and for the micro-kernel. The bare call pays for its own transposes of A
// and C; the packed row is what a cuboid tile runs, A transposed once per
// box and C once per run of products (gnmf_resident's Wᵀ·V block product).
func BenchmarkDenseMulCSC(b *testing.B) {
	for _, tc := range []struct {
		shape   string
		m, k    int
		density float64
	}{
		{"512sq_x512sq5pct", 512, 512, 0.05},
		{"128x256_x256sq1pct", 128, 256, 0.01},
	} {
		rng := rand.New(rand.NewSource(3))
		x := RandomDense(rng, tc.m, tc.k)
		y := NewCSCFromCSR(RandomSparse(rng, tc.k, tc.k, tc.density))
		c := NewDense(tc.m, tc.k)
		flops := 2 * float64(y.NNZ()) * float64(tc.m)
		kernelRows(b, tc.shape, flops, c,
			func() { seedDenseMulCSC(c, x, y) },
			func() { DenseMulCSC(c, x, y) })
		b.Run("packed/"+tc.shape, func(b *testing.B) {
			pa := PackA(x, y.NNZ())
			defer pa.Release()
			acc := c
			if pa.Transposed() {
				acc = NewDense(tc.k, tc.m)
			}
			acc.Zero()
			for i := 0; i < b.N; i++ {
				DenseMulCSCPacked(acc, pa, y)
			}
			reportGFlops(b, flops)
		})
	}
}

// BenchmarkSparseFanout is the measurement behind sparseFlopsThreshold:
// size² at 1 % against 128 dense columns (CSRMulDense) and under 128 dense
// rows (DenseMulCSC), on the calling goroutine and with the fan-out forced.
// Run it at -cpu 2 or more; at -cpu 1 both rows are the serial call.
func BenchmarkSparseFanout(b *testing.B) {
	for _, size := range []int{256, 512, 1024, 2048} {
		rng := rand.New(rand.NewSource(5))
		x := RandomSparse(rng, size, size, 0.01)
		xc := NewCSCFromCSR(x)
		right, left := RandomDense(rng, size, 128), RandomDense(rng, 128, size)
		c, ct := NewDense(size, 128), NewDense(128, size)
		flops := 2 * float64(x.NNZ()) * 128
		for _, gate := range []struct {
			name      string
			threshold int
		}{{"serial", math.MaxInt}, {"fanout", 1}} {
			run := func(kernel string, product func()) {
				b.Run(kernel+"/"+itoa(size)+"/"+gate.name, func(b *testing.B) {
					old := sparseFlopsThreshold
					sparseFlopsThreshold = gate.threshold
					defer func() { sparseFlopsThreshold = old }()
					for i := 0; i < b.N; i++ {
						product()
					}
					reportGFlops(b, flops)
				})
			}
			run("CSRMulDense", func() { CSRMulDense(c, x, right) })
			run("DenseMulCSC", func() { DenseMulCSC(ct, left, xc) })
		}
	}
}

func BenchmarkCSRMulCSR(b *testing.B) {
	// Dense-ish result rows (~150 columns) are where the hybrid sort pays;
	// PageRank-style hypersparse rows are covered by the "sparse" case.
	rng := rand.New(rand.NewSource(4))
	cases := []struct {
		name    string
		da, db  float64
		m, k, n int
	}{
		{"sparse", 0.002, 0.002, 2048, 2048, 2048},
		{"denseRows", 0.05, 0.05, 512, 512, 512},
	}
	for _, tc := range cases {
		x := RandomSparse(rng, tc.m, tc.k, tc.da)
		y := RandomSparse(rng, tc.k, tc.n, tc.db)
		b.Run(tc.name+"/seed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seedCSRMulCSR(x, y)
			}
		})
		b.Run(tc.name+"/current", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CSRMulCSR(x, y)
			}
		})
	}
}

func benchName(variant string, size int) string {
	return variant + "/" + itoa(size)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func reportGFlops(b *testing.B, flopsPerOp float64) {
	b.Helper()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(flopsPerOp*float64(b.N)/sec/1e9, "GFLOPS")
	}
}
