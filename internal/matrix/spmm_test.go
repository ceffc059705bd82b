package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// parentCSRMulDense and parentDenseMulCSC are the two loops as they stood
// before the micro-kernels (csrMulDenseRange and denseMulCSCRange at
// 489dca9), copied verbatim: the products the whole repository's parity
// tests, golden files and benchmark twins were recorded with. On amd64 at
// the default GOAMD64 the compiler does not fuse them, so they are the
// reference the portable loops and the micro-kernels must match bit for bit.
// They run on one goroutine over blocks nobody else holds yet, so the race
// detector is spared them.
//
//go:norace
func parentCSRMulDense(c *Dense, a *CSR, b *Dense, lo, hi int) {
	n := b.ColsN
	bd := b.Data
	for i := lo; i < hi; i++ {
		crow := c.Data[i*n : (i+1)*n]
		p := a.RowPtr[i]
		end := a.RowPtr[i+1]
		for ; p+4 <= end; p += 4 {
			v0, v1, v2, v3 := a.Val[p], a.Val[p+1], a.Val[p+2], a.Val[p+3]
			r0 := bd[a.ColIdx[p]*n:][:n]
			r1 := bd[a.ColIdx[p+1]*n:][:n]
			r2 := bd[a.ColIdx[p+2]*n:][:n]
			r3 := bd[a.ColIdx[p+3]*n:][:n]
			for j := range crow {
				crow[j] += v0*r0[j] + v1*r1[j] + v2*r2[j] + v3*r3[j]
			}
		}
		for ; p < end; p++ {
			av := a.Val[p]
			brow := bd[a.ColIdx[p]*n:][:n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

//go:norace
func parentDenseMulCSC(c, a *Dense, b *CSC, lo, hi int) {
	ka := a.ColsN
	n := b.ColsN
	for i := lo; i < hi; i++ {
		arow := a.Data[i*ka : (i+1)*ka]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			p := b.ColPtr[j]
			end := b.ColPtr[j+1]
			if p == end {
				continue
			}
			var s0, s1 float64
			for ; p+2 <= end; p += 2 {
				s0 += arow[b.RowIdx[p]] * b.Val[p]
				s1 += arow[b.RowIdx[p+1]] * b.Val[p+1]
			}
			if p < end {
				s0 += arow[b.RowIdx[p]] * b.Val[p]
			}
			crow[j] += s0 + s1
		}
	}
}

// specials are the values arithmetic treats unlike the rest: a lane that
// mishandles one of them shows in the bits.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}

// spike overwrites about one value in sixteen with a special.
func spike(rng *rand.Rand, vals []float64) {
	for i := range vals {
		if rng.Intn(16) == 0 {
			vals[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// offsetCSR builds a rows×cols CSR whose row i holds count(i) entries at
// random columns, with Val and ColIdx one element into their backing arrays.
func offsetCSR(rng *rand.Rand, rows, cols int, count func(i int) int) *CSR {
	m := &CSR{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
	idx, val := []int{0}, []float64{0}
	for i := 0; i < rows; i++ {
		perm := rng.Perm(cols)[:min(count(i), cols)]
		insertionSortInts(perm)
		for _, j := range perm {
			idx = append(idx, j)
			val = append(val, rng.NormFloat64())
		}
		m.RowPtr[i+1] = len(val) - 1
	}
	m.ColIdx, m.Val = idx[1:], val[1:]
	return m
}

// byDensity draws each row's entry count for an expected density; 0 and 1
// are exact.
func byDensity(rng *rand.Rand, cols int, density float64) func(int) int {
	return func(int) int {
		n := 0
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				n++
			}
		}
		return n
	}
}

// sparseCase is one pair of products of the differential table — S×D with S
// in CSR and D×Sᵀ' with another sparse operand in CSC — from unaligned,
// spiked operands into pre-filled accumulators, and what the parent's
// loops make of them.
type sparseCase struct {
	m, n, k  int
	what     string
	csr      *CSR
	right    *Dense
	csrC0    *Dense
	csrWant  *Dense
	left     *Dense
	csc      *CSC
	cscC0    *Dense
	cscWant  *Dense
	parallel bool
}

func newSparseCase(rng *rand.Rand, m, n, k int, what string, count func(lines, across int) func(int) int) *sparseCase {
	tc := &sparseCase{m: m, n: n, k: k, what: what, parallel: m >= 2}
	tc.csr = offsetCSR(rng, m, k, count(m, k))
	tc.right = randomOffsetDense(rng, k, n, 3)
	tc.csrC0 = randomOffsetDense(rng, m, n, 1)
	tc.left = randomOffsetDense(rng, m, k, 1)
	t := offsetCSR(rng, n, k, count(n, k)) // the columns of B are the rows of Bᵀ
	tc.csc = &CSC{RowsN: k, ColsN: n, ColPtr: t.RowPtr, RowIdx: t.ColIdx, Val: t.Val}
	tc.cscC0 = randomOffsetDense(rng, m, n, 3)
	for _, vals := range [][]float64{tc.csr.Val, tc.right.Data, tc.csrC0.Data, tc.left.Data, tc.csc.Val, tc.cscC0.Data} {
		spike(rng, vals)
	}
	tc.csrWant = tc.csrC0.Clone()
	parentCSRMulDense(tc.csrWant, tc.csr, tc.right, 0, m)
	tc.cscWant = tc.cscC0.Clone()
	parentDenseMulCSC(tc.cscWant, tc.left, tc.csc, 0, m)
	return tc
}

func (tc *sparseCase) fail(t *testing.T, op string, w int, got, want *Dense, i int) {
	t.Helper()
	t.Fatalf("%s kernel, %s %dx%dx%d (%s) at %d workers: C[%d][%d] = %v (%#x), the parent's loop gives %v (%#x)",
		KernelName(), op, tc.m, tc.n, tc.k, tc.what, w, i/tc.n, i%tc.n,
		got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
}

// check runs every entry point of the two products on the selected kernel
// and compares each with the parent's loop: the bare calls at each width,
// the serial call a cuboid tile makes, and the packed call on both a
// transposed and an in-place left operand.
func (tc *sparseCase) check(t *testing.T) {
	t.Helper()
	fresh := func(c0 *Dense) *Dense {
		c := offsetDense(tc.m, tc.n, 1)
		copy(c.Data, c0.Data)
		return c
	}
	widths := []int{1}
	if tc.parallel {
		widths = []int{1, 2, 3}
	}
	for _, w := range widths {
		SetKernelWorkers(w)
		got := fresh(tc.csrC0)
		CSRMulDense(got, tc.csr, tc.right)
		if i, ok := sameBits(got, tc.csrWant); !ok {
			tc.fail(t, "CSRMulDense", w, got, tc.csrWant, i)
		}
		got = fresh(tc.cscC0)
		DenseMulCSC(got, tc.left, tc.csc)
		if i, ok := sameBits(got, tc.cscWant); !ok {
			tc.fail(t, "DenseMulCSC", w, got, tc.cscWant, i)
		}
	}
	got := fresh(tc.csrC0)
	CSRMulDenseSerial(got, tc.csr, tc.right)
	if i, ok := sameBits(got, tc.csrWant); !ok {
		tc.fail(t, "CSRMulDenseSerial", 1, got, tc.csrWant, i)
	}
	got = fresh(tc.cscC0)
	DenseMulCSCPacked(got, PackedA{a: tc.left}, tc.csc)
	if i, ok := sameBits(got, tc.cscWant); !ok {
		tc.fail(t, "DenseMulCSCPacked in place", 1, got, tc.cscWant, i)
	}
	// The transposed form whatever PackA would decide, so that the lanes
	// see every shape of the table.
	at := offsetDense(tc.k, tc.m, 1)
	TransposeInto(at, tc.left)
	ct := offsetDense(tc.n, tc.m, 3)
	TransposeInto(ct, tc.cscC0)
	DenseMulCSCPacked(ct, PackedA{a: tc.left, at: at.Data}, tc.csc)
	got = fresh(tc.cscC0)
	TransposeInto(got, ct)
	if i, ok := sameBits(got, tc.cscWant); !ok {
		tc.fail(t, "DenseMulCSCPacked transposed", 1, got, tc.cscWant, i)
	}
	// Given Aᵀ, the products read it where PackA would have copied A into
	// it, and are refused where PackA would have read A in place.
	pa, ok := PackATransposed(at, tc.csc.NNZ())
	packed := PackA(tc.left, tc.csc.NNZ())
	if packed.Release(); ok != packed.Transposed() {
		t.Fatalf("%dx%d, %d entries: PackATransposed %v where PackA transposes %v", tc.m, tc.k, tc.csc.NNZ(), ok, !ok)
	}
	if ok {
		if m, k := pa.Dims(); m != tc.m || k != tc.k {
			t.Fatalf("PackATransposed dims %dx%d, want %dx%d", m, k, tc.m, tc.k)
		}
		ct = offsetDense(tc.n, tc.m, 3)
		TransposeInto(ct, tc.cscC0)
		DenseMulCSCPacked(ct, pa, tc.csc)
		pa.Release()
		got = fresh(tc.cscC0)
		TransposeInto(got, ct)
		if i, ok := sameBits(got, tc.cscWant); !ok {
			tc.fail(t, "DenseMulCSCPacked over a view", 1, got, tc.cscWant, i)
		}
	}
}

// TestSparseKernelsDifferential: the micro-kernels, the portable loops and
// the parent's loops agree to the bit over whole vectors and remainder
// lanes, groups of four entries and every remainder, empty rows and
// columns, pre-filled accumulators, unaligned operands and non-finite
// values, at fan-out widths 1, 2 and 3.
func TestSparseKernelsDifferential(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(221))
	small := []int{0, 1, 3, 4, 5, 7, 8, 15, 16, 17}
	large := []int{63, 64, 65, 128, 256}
	var shapes [][3]int
	for _, m := range small {
		for _, n := range small {
			for _, k := range small {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	// One large extent against a few pairs of the others, then the block
	// shapes the benchmark workloads run.
	for _, l := range large {
		for _, xy := range [][2]int{{1, 5}, {5, 16}, {16, 65}, {65, 1}} {
			x, y := xy[0], xy[1]
			shapes = append(shapes, [3]int{l, x, y}, [3]int{x, l, y}, [3]int{x, y, l})
		}
	}
	shapes = append(shapes, [3]int{128, 256, 256}, [3]int{256, 128, 256}, [3]int{256, 64, 256}, [3]int{65, 63, 128})

	var cases []*sparseCase
	for si, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		// Rows of 0 to 9 entries in turn: every group-of-four and pair
		// remainder, beside rows and columns with nothing stored.
		cases = append(cases, newSparseCase(rng, m, n, k, "0-9 entries a line", func(int, int) func(int) int {
			return func(i int) int { return i % 10 }
		}))
		densities := []float64{0, 0.001, 0.01, 0.3, 1}
		if max(m, n, k) < 63 {
			// Small shapes take the densities in turn; the large ones all.
			densities = densities[si%len(densities):][:1]
		}
		for _, d := range densities {
			cases = append(cases, newSparseCase(rng, m, n, k, fmt.Sprintf("density %g", d), func(_, across int) func(int) int {
				return byDensity(rng, across, d)
			}))
		}
	}
	kernelVariants(t, func(t *testing.T) {
		for _, tc := range cases {
			tc.check(t)
		}
	})
}

// TestSparseKernelsRejectBadIndex: the micro-kernels compute addresses from
// stored indices, so an index outside the dense operand must panic the way
// the portable loops' bounds checks do, not read past the block.
func TestSparseKernelsRejectBadIndex(t *testing.T) {
	kernelVariants(t, func(t *testing.T) {
		mustPanic := func(what string, fn func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s kernel: %s did not panic", KernelName(), what)
				}
			}()
			fn()
		}
		bad := &CSR{RowsN: 8, ColsN: 8, RowPtr: []int{0, 1, 1, 1, 1, 1, 1, 1, 1}, ColIdx: []int{8}, Val: []float64{1}}
		mustPanic("CSRMulDense", func() { CSRMulDense(NewDense(8, 8), bad, NewDense(8, 8)) })
		badC := &CSC{RowsN: 8, ColsN: 8, ColPtr: bad.RowPtr, RowIdx: []int{-1}, Val: bad.Val}
		a := NewDense(8, 8)
		mustPanic("DenseMulCSCPacked", func() {
			DenseMulCSCPacked(NewDense(8, 8), PackedA{a: a, at: make([]float64, 64)}, badC)
		})
	})
}
