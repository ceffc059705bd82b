package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refGemm is the reference every dense kernel must match bit for bit: the
// naive i-k-j triple loop, one fused multiply-add per step, k ascending.
// It runs on one goroutine over blocks nobody else holds yet, so the race
// detector is spared its 1.7 GFLOP.
//
//go:norace
func refGemm(c, a, b *Dense) {
	m, k := a.Dims()
	_, n := b.Dims()
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			for j := 0; j < n; j++ {
				c.Data[i*n+j] = math.FMA(av, b.Data[p*n+j], c.Data[i*n+j])
			}
		}
	}
}

// offsetDense is a rows×cols block of zeros whose Data starts off elements
// into its backing array, so the kernel's vector loads and stores are not
// 32-byte aligned.
func offsetDense(rows, cols, off int) *Dense {
	buf := make([]float64, rows*cols+off)
	return &Dense{RowsN: rows, ColsN: cols, Data: buf[off : off+rows*cols : off+rows*cols]}
}

// randomOffsetDense fills an offsetDense with normal values, one in eight
// an exact zero.
func randomOffsetDense(rng *rand.Rand, rows, cols, off int) *Dense {
	d := offsetDense(rows, cols, off)
	for i := range d.Data {
		if rng.Intn(8) != 0 {
			d.Data[i] = rng.NormFloat64()
		}
	}
	return d
}

// sameBits compares two blocks element by element on their bit patterns;
// any NaN matches any NaN (payloads may differ between instruction forms).
func sameBits(got, want *Dense) (int, bool) {
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i, false
		}
	}
	return 0, true
}

// kernelVariants runs fn once on the portable loops and, where this build
// and CPU have them, once on the AVX2 micro-kernels and once with the
// AVX-512 dense tile.
func kernelVariants(t *testing.T, fn func(t *testing.T)) {
	for _, kernel := range kernelPaths {
		t.Run(kernel, func(t *testing.T) {
			useKernel(t, kernel)
			fn(t)
		})
	}
}

// TestKernelSelection: the AVX-512 tiles are only ever selected beside the
// AVX2 kernels, those only where the CPU has FMA3, and KernelName reports
// the flags. The log line is the record of which paths a CI run's kernel
// tests actually exercised, and of the dense tile they ran (fma3 is false
// wherever no micro-kernel is built: the purego tag and other architectures
// do not probe it).
func TestKernelSelection(t *testing.T) {
	fma := hasFMA3()
	tile := "none"
	if wide {
		tile = "8x24 (8x8 for the last 8 or 16 columns)"
	} else if simd {
		tile = "4x8"
	}
	t.Logf("GOARCH=%s fma3=%v avx2=%v avx512=%v kernel=%s tile=%s", runtime.GOARCH, fma, simd, wide, KernelName(), tile)
	if wide && !simd {
		t.Fatal("the AVX-512 tile is selected without the AVX2 kernels")
	}
	if simd && !fma {
		t.Fatal("the AVX2 kernels are selected on a CPU without FMA3")
	}
	want := "go"
	if wide {
		want = "avx512"
	} else if simd {
		want = "avx2"
	}
	if KernelName() != want {
		t.Fatalf("KernelName() = %q with avx2=%v avx512=%v, want %q", KernelName(), simd, wide, want)
	}
}

// gemmCase is one product of the differential table: unaligned operands, a
// pre-filled C, and what the reference loop makes of them.
type gemmCase struct {
	m, n, k        int
	a, b, c0, want *Dense
	widths         []int
}

func newGemmCase(rng *rand.Rand, m, n, k int) *gemmCase {
	tc := &gemmCase{m: m, n: n, k: k, widths: []int{1}}
	if m >= 2*tileRows {
		tc.widths = []int{1, 2, 3} // below two row tiles Gemm cannot fan out
	}
	tc.a = randomOffsetDense(rng, m, k, 1)
	tc.b = randomOffsetDense(rng, k, n, 3)
	tc.c0 = randomOffsetDense(rng, m, n, 1)
	tc.want = tc.c0.Clone()
	refGemm(tc.want, tc.a, tc.b)
	return tc
}

// check runs Gemm on the selected kernel at each width over a copy of the
// pre-filled C and compares the result with the reference loop's.
func (tc *gemmCase) check(t *testing.T, widths []int) {
	t.Helper()
	for _, w := range widths {
		SetKernelWorkers(w)
		got := offsetDense(tc.m, tc.n, 1)
		copy(got.Data, tc.c0.Data)
		Gemm(got, tc.a, tc.b)
		if i, ok := sameBits(got, tc.want); !ok {
			t.Fatalf("%s kernel, %dx%dx%d at %d workers: C[%d][%d] = %v, the reference loop gives %v",
				KernelName(), tc.m, tc.n, tc.k, w, i/tc.n, i%tc.n, got.Data[i], tc.want.Data[i])
		}
	}
}

// TestGemmDifferential: the micro-kernel, the portable loop and the naive
// triple loop agree to the bit on every mix of full tiles, remainder rows
// and remainder columns, accumulating into a non-zero C, from unaligned
// operands, at fan-out widths 1, 2 and 3.
func TestGemmDifferential(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(211))
	// As m under the 8-row tiles: 16 and 24 are whole 8-row tiles, 12 and 127
	// follow theirs with a 4-row tile (127 then with three scalar rows), 17
	// and 129 with one scalar row.
	dims := []int{0, 1, 3, 4, 5, 7, 8, 9, 12, 16, 17, 24, 127, 128, 129}
	var cases []*gemmCase
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range dims {
				cases = append(cases, newGemmCase(rng, m, n, k))
			}
		}
	}
	// Under the 8×24 tile, 48 and 72 columns are whole groups of 24, 40
	// leaves 16 columns and 59 leaves 8 and three scalar ones for the 8×8
	// tile and the portable loop; 12 and 135 rows end in a 4-row tile, which
	// then runs three abreast in a group.
	for _, m := range []int{8, 12, 135} {
		for _, n := range []int{40, 48, 59, 72} {
			for _, k := range []int{1, 7, 129} {
				cases = append(cases, newGemmCase(rng, m, n, k))
			}
		}
	}
	// The thin shapes of sparse_tall and GNMF: a long k under few columns.
	// The portable loop's width invariance is the table's business; on the
	// largest shape it runs once (the race detector slows it fifty-fold).
	cases = append(cases, newGemmCase(rng, 12, 64, 8192))
	long := newGemmCase(rng, 128, 128, 8192)
	cases = append(cases, long)

	kernelVariants(t, func(t *testing.T) {
		for _, tc := range cases {
			widths := tc.widths
			if tc == long && !simd {
				widths = widths[:1]
			}
			tc.check(t, widths)
		}
	})
}

// TestGemmPackedMatchesGemm: a product against a PackB operand — packed or
// read in place — has the bits of the bare call.
func TestGemmPackedMatchesGemm(t *testing.T) {
	kernelVariants(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(212))
		for _, rows := range []int{0, packMinRows} {
			for _, dims := range [][3]int{{5, 9, 7}, {12, 17, 9}, {16, 24, 33}, {130, 131, 67}} {
				m, n, k := dims[0], dims[1], dims[2]
				a, b := randomOffsetDense(rng, m, k, 1), randomOffsetDense(rng, k, n, 1)
				want := NewDense(m, n)
				refGemm(want, a, b)
				pb := PackB(b, rows)
				got := NewDense(m, n)
				GemmPacked(got, a, pb)
				pb.Release()
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("%s kernel, PackB(rows=%d) %v: element %d = %v, want %v", KernelName(), rows, dims, i, got.Data[i], want.Data[i])
				}
			}
		}
	})
}

// TestGemmNonFiniteIsIEEEAtAnyWidth is the regression test for the
// zero-skip: the old kernel skipped a k step only when all four rows of a
// group were zero there and its remainder rows skipped alone, so with a
// zero column in A under an infinite B entry the NaNs depended on how rows
// were grouped — on KernelWorkers. Dense GEMM multiplies every pair:
// 0·Inf = NaN in every row, at every width, on both kernels.
func TestGemmNonFiniteIsIEEEAtAnyWidth(t *testing.T) {
	forceParallel(t)
	kernelVariants(t, func(t *testing.T) {
		for _, m := range []int{6, 13} {
			const k, n = 4, 9
			a := NewDense(m, k)
			for i := range a.Data {
				a.Data[i] = 1
			}
			for i := 1; i < m; i++ {
				a.Set(i, 0, 0) // column 0 is zero below row 0
			}
			b := NewDense(k, n)
			for i := range b.Data {
				b.Data[i] = 1
			}
			b.Set(0, 0, math.Inf(1))
			want := NewDense(m, n)
			refGemm(want, a, b)
			if !math.IsInf(want.At(0, 0), 1) || !math.IsNaN(want.At(m-1, 0)) || want.At(m-1, 1) != k-1 {
				t.Fatalf("reference loop: column 0 = [%v … %v], C[%d][1] = %v", want.At(0, 0), want.At(m-1, 0), m-1, want.At(m-1, 1))
			}
			for _, w := range []int{1, 2, 3} {
				SetKernelWorkers(w)
				got := NewDense(m, n)
				Gemm(got, a, b)
				if i, ok := sameBits(got, want); !ok {
					t.Errorf("%s kernel, m=%d at %d workers: C[%d][%d] = %v, IEEE gives %v", KernelName(), m, w, i/n, i%n, got.Data[i], want.Data[i])
				}
			}
		}
	})
}

// fusedStepCase is a product in which every element of C sees exactly one
// k step with a non-zero A: A[i][i%k] = 1+2⁻³⁰, every B = 1−2⁻³⁰, every C
// pre-filled with −1. The product 1−2⁻⁶⁰ rounds to 1 on its own, so a
// separately rounded step leaves 1 + (−1) = 0, while a fused one keeps the
// exact −2⁻⁶⁰. Every other step adds an exact zero either way.
func fusedStepCase(m, n, k int) (c, a, b *Dense) {
	a, b, c = offsetDense(m, k, 1), offsetDense(k, n, 3), offsetDense(m, n, 1)
	for i := 0; i < m; i++ {
		a.Data[i*k+i%k] = 1 + 0x1p-30
	}
	for i := range b.Data {
		b.Data[i] = 1 - 0x1p-30
	}
	for i := range c.Data {
		c.Data[i] = -1
	}
	return c, a, b
}

// checkFused fails unless every element of c is the fused step's −2⁻⁶⁰.
func checkFused(t *testing.T, what string, c *Dense) {
	t.Helper()
	for i, v := range c.Data {
		if math.Float64bits(v) != math.Float64bits(-0x1p-60) {
			t.Fatalf("%s kernel, %s %dx%d: C[%d][%d] = %v, a fused multiply-add gives %v",
				KernelName(), what, c.RowsN, c.ColsN, i/c.ColsN, i%c.ColsN, v, -0x1p-60)
		}
	}
}

// TestGemmFusesEveryStep: every dense path takes one fused multiply-add per
// k step — the 8×24, 8×8 and 4×8 tiles, the portable loop's 4-row groups
// and its scalar rows and remainder columns — through Gemm at widths 1 and
// 3, GemmPacked on a packed and an in-place operand, and the row chunks a
// one-tile cuboid splits its rows into (core's multiplyOneTile).
func TestGemmFusesEveryStep(t *testing.T) {
	forceParallel(t)
	// Under the 8-row tiles, 15 and 23 rows end in a 4-row tile and three
	// scalar rows, and 135 in the same after sixteen 8-row tiles; 11, 17
	// and 19 columns leave a remainder. 59
	// columns are two groups under the 8×24 tile, one panel under the 8×8
	// tile and three scalar columns.
	shapes := [][3]int{{15, 11, 1}, {15, 11, 5}, {23, 19, 7}, {135, 17, 3}, {135, 59, 3}, {15, 59, 5}}
	kernelVariants(t, func(t *testing.T) {
		for _, s := range shapes {
			m, n, k := s[0], s[1], s[2]
			for _, w := range []int{1, 3} {
				SetKernelWorkers(w)
				c, a, b := fusedStepCase(m, n, k)
				Gemm(c, a, b)
				checkFused(t, fmt.Sprintf("Gemm at %d workers", w), c)
			}
			for _, rows := range []int{0, packMinRows} {
				c, a, b := fusedStepCase(m, n, k)
				pb := PackB(b, rows)
				GemmPacked(c, a, pb)
				pb.Release()
				checkFused(t, fmt.Sprintf("GemmPacked(PackB rows=%d)", rows), c)
			}
			c, a, b := fusedStepCase(m, n, k)
			pb := PackB(b, m)
			chunk := RowChunk(m, 3)
			for lo := 0; lo < m; lo += chunk {
				GemmPackedRows(c, a, pb, lo, min(lo+chunk, m))
			}
			pb.Release()
			checkFused(t, "GemmPackedRows in row chunks", c)
		}
	})
}
