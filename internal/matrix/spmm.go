package matrix

import (
	"fmt"
	"sync"
)

// The two sparse–dense products — the stand-ins for the cusparseDcsrmm
// calls of the paper's GNMF query — are defined by their portable loops:
//
//	CSRMulDense  for each row of A, its entries four at a time,
//	             c += ((v0·r0 + v1·r1) + v2·r2) + v3·r3 down the row of C,
//	             then the entries left over one at a time, c += v·r;
//	DenseMulCSC  for each element of C, the entries of B's column summed
//	             alternately into s0 and s1 from zero, then c += s0 + s1.
//
// The AVX2 micro-kernels (spmm_amd64.s) run the same sequences with the
// vector lanes along the dense dimension — the columns of B for the first,
// the rows of A for the second — so a lane is one element of C computed in
// the portable order. Every product is rounded before it is added (the
// float64 conversions below forbid the compiler an FMA, the micro-kernels
// use none): one arithmetic on every architecture and either kernel. The
// dense kernel fuses each step instead (gemm.go); that is consistent, as
// the sparse sums already associate differently from the dense k chain and
// nothing promises a sparse product the dense one's bits — only that each
// kernel has its own bits on every path. Only structural zeros are
// skipped.

// sparseFlopsThreshold is the minimum multiply-add count (nnz·n for
// CSRMulDense, nnz·m for DenseMulCSC) before a bare sparse–dense kernel
// fans its rows out across goroutines. Measured with BenchmarkSparseFanout at -cpu 2 on the 2-vCPU
// Xeon of EXPERIMENTS.md "AVX2 sparse kernels", best of four, serial →
// forced fan-out, size² at 1 % against 128 dense columns or rows:
//
//	multiply-adds   CSRMulDense        DenseMulCSC
//	 84 k (256²)    15.6 → 24.0 µs     39.8 → 52.7 µs    a loss
//	335 k (512²)    56.1 → 59.6 µs     146 → 108 µs      even / 1.35×
//	1.3 M (1024²)   207 → 174 µs       677 → 336 µs      1.2× / 2.0×
//	5.4 M (2048²)   1003 → 666 µs      2177 → 1042 µs    1.5× / 2.1×
//
// so the gate sits between the 512² and the 1024² rows; PR 1's 2¹⁵ had a
// 655-entry block product spawn and join goroutines for a third more time
// than the product takes. On one thread KernelWorkers is 1 and no call fans
// out, whatever the gate. A var so the equivalence tests can force the
// fan-out on small inputs.
var sparseFlopsThreshold = 1 << 19

// laneWidth is the lanes of one vector: the micro-kernels take the dense
// dimension in multiples of it and leave the rest to the portable loops.
const laneWidth = 4

// CSRMulDense computes C += A×B where A is CSR and B dense. A is m×k, B is
// k×n, C is m×n dense. Large products fan their rows out at nnz-balanced
// boundaries, so skewed rows do not serialize the call; each row of C is
// computed by one goroutine, so the result does not depend on the width.
func CSRMulDense(c *Dense, a *CSR, b *Dense) {
	m, n := csrMulDenseDims("CSRMulDense", c, a, b)
	if m == 0 || n == 0 {
		return
	}
	workers := KernelWorkers()
	if workers < 2 || m < 2 || a.NNZ()*n < sparseFlopsThreshold {
		csrMulDenseRows(c, a, b, 0, m)
		return
	}
	bounds := prefixSplits(a.RowPtr, workers)
	var wg sync.WaitGroup
	for w := 0; w+1 < len(bounds); w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			csrMulDenseRows(c, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// CSRMulDenseSerial is CSRMulDense on the calling goroutine: what a
// cuboid's (i,j) tiles run, the cuboid having fanned out over the tiles.
func CSRMulDenseSerial(c *Dense, a *CSR, b *Dense) {
	m, _ := csrMulDenseDims("CSRMulDenseSerial", c, a, b)
	csrMulDenseRows(c, a, b, 0, m)
}

func csrMulDenseDims(op string, c *Dense, a *CSR, b *Dense) (m, n int) {
	m, ka := a.Dims()
	kb, n := b.Dims()
	cm, cn := c.Dims()
	if ka != kb || cm != m || cn != n {
		panic(fmt.Sprintf("matrix: %s: dimension mismatch %dx%d × %dx%d -> %dx%d", op, m, ka, kb, n, cm, cn))
	}
	return m, n
}

// csrMulDenseRows computes rows [lo, hi) of C: the columns that fill whole
// vectors through the micro-kernel, a row of A per call, the rest through
// the portable loop.
func csrMulDenseRows(c *Dense, a *CSR, b *Dense, lo, hi int) {
	n := b.ColsN
	vecCols := 0
	if simd {
		vecCols = n &^ (laneWidth - 1)
	}
	if vecCols > 0 {
		for i := lo; i < hi; i++ {
			cols := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
			if len(cols) == 0 {
				continue
			}
			vals := a.Val[a.RowPtr[i]:a.RowPtr[i+1]]
			checkIndices(cols, b.RowsN)
			csrRowAVX2(&c.Data[i*n], vecCols, &vals[0], &cols[0], len(cols), &b.Data[0], n)
		}
	}
	csrMulDenseGo(c, a, b, lo, hi, vecCols, n)
}

// checkIndices panics unless every index addresses one of n rows: the
// micro-kernels turn an index into an address without the bounds check the
// portable loops get from the compiler.
func checkIndices(idx []int, n int) {
	for _, r := range idx {
		if uint(r) >= uint(n) {
			panic(fmt.Sprintf("matrix: sparse index %d out of range %d", r, n))
		}
	}
}

// csrMulDenseGo is the portable kernel: rows [lo, hi), columns [jlo, jhi)
// of C += A×B. Row entries are consumed four at a time so one pass over
// the C row performs four AXPYs, quartering the read-modify-write traffic
// on C.
func csrMulDenseGo(c *Dense, a *CSR, b *Dense, lo, hi, jlo, jhi int) {
	if jlo >= jhi {
		return
	}
	n, w := b.ColsN, jhi-jlo
	bd := b.Data
	for i := lo; i < hi; i++ {
		crow := c.Data[i*n+jlo:][:w]
		p := a.RowPtr[i]
		end := a.RowPtr[i+1]
		for ; p+4 <= end; p += 4 {
			v0, v1, v2, v3 := a.Val[p], a.Val[p+1], a.Val[p+2], a.Val[p+3]
			r0 := bd[a.ColIdx[p]*n+jlo:][:w]
			r1 := bd[a.ColIdx[p+1]*n+jlo:][:w]
			r2 := bd[a.ColIdx[p+2]*n+jlo:][:w]
			r3 := bd[a.ColIdx[p+3]*n+jlo:][:w]
			for j := range crow {
				crow[j] += float64(v0*r0[j]) + float64(v1*r1[j]) + float64(v2*r2[j]) + float64(v3*r3[j])
			}
		}
		for ; p < end; p++ {
			av := a.Val[p]
			brow := bd[a.ColIdx[p]*n+jlo:][:w]
			for j, bv := range brow {
				crow[j] += float64(av * bv)
			}
		}
	}
}

// DenseMulCSC computes C += A×B where A is dense and B is CSC. A is m×k,
// B is k×n, C is m×n dense. Large products fan equal row ranges out; each
// row of C is computed by one goroutine, so the result does not depend on
// the width.
func DenseMulCSC(c *Dense, a *Dense, b *CSC) {
	m, n := denseMulCSCDims("DenseMulCSC", c.RowsN, c.ColsN, a.RowsN, a.ColsN, b)
	if m == 0 || n == 0 {
		return
	}
	workers := KernelWorkers()
	if workers > m {
		workers = m
	}
	if workers < 2 || b.NNZ()*m < sparseFlopsThreshold {
		denseMulCSCRows(c, a, b, 0, m)
		return
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for lo := 0; lo < m; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			denseMulCSCRows(c, a, b, lo, hi)
		}(lo, min(lo+chunk, m))
	}
	wg.Wait()
}

func denseMulCSCDims(op string, cm, cn, m, ka int, b *CSC) (int, int) {
	kb, n := b.Dims()
	if ka != kb || cm != m || cn != n {
		panic(fmt.Sprintf("matrix: %s: dimension mismatch %dx%d × %dx%d -> %dx%d", op, m, ka, kb, n, cm, cn))
	}
	return m, n
}

// transposePays reports whether a Dense×CSC product of rows rows against
// nnz stored entries should run on transposed operands: the micro-kernel
// needs the columns of A contiguous. Moving an element there costs about a
// quarter of what the portable loop spends per multiply-add or per empty
// column it steps over (0.28 against 1.1 ns), so the copy pays once a
// quarter of A's columns meet an entry of B. Measured on one bare call,
// 128×256 · 256² with 37 / 145 / 539 entries: in place 31 / 52 / 102 µs,
// transposed — A, and C there and back, per call — 29 / 34 / 38 µs, of
// which the micro-kernel is 1.7 / 5.2 / 12.9 µs.
func transposePays(rows, k, nnz int) bool {
	return simd && rows >= laneWidth && 4*nnz >= k
}

// denseMulCSCRows computes rows [lo, hi) of C: through the micro-kernel on
// transposed copies of those rows of A and C where that pays, else through
// the portable loop in place.
func denseMulCSCRows(c, a *Dense, b *CSC, lo, hi int) {
	m, k, n := hi-lo, a.ColsN, b.ColsN
	if !transposePays(m, k, b.NNZ()) {
		denseMulCSCGo(c, a, b, lo, hi)
		return
	}
	at, _ := getScratch(k * m)
	ct, _ := getScratch(n * m)
	transpose(at, a.Data[lo*k:hi*k], m, k)
	transpose(ct, c.Data[lo*n:hi*n], m, n)
	denseMulCSCLanes(ct, at, m, b)
	transpose(c.Data[lo*n:hi*n], ct, n, m)
	putScratch(at)
	putScratch(ct)
}

// denseMulCSCGo is the portable kernel on row-major operands: for each of
// rows [lo, hi) the B columns are reduced as dot products against the
// resident A row, with a two-way unrolled accumulator to break the FP
// dependency chain.
func denseMulCSCGo(c, a *Dense, b *CSC, lo, hi int) {
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
				s0 += float64(arow[b.RowIdx[p]] * b.Val[p])
				s1 += float64(arow[b.RowIdx[p+1]] * b.Val[p+1])
			}
			if p < end {
				s0 += float64(arow[b.RowIdx[p]] * b.Val[p])
			}
			crow[j] += s0 + s1
		}
	}
}

// denseMulCSCLanes computes Cᵀ += (A×B)ᵀ from Aᵀ: at is k×m and ct n×m,
// row-major, so the m rows of A lie along the lanes. Whole vectors go
// through the micro-kernel, a column of B per call, the lanes left over
// through the same sums in Go.
func denseMulCSCLanes(ct, at []float64, m int, b *CSC) {
	vecLanes := 0
	if simd {
		vecLanes = m &^ (laneWidth - 1)
	}
	if vecLanes > 0 {
		checkIndices(b.RowIdx, b.RowsN)
	}
	for j := 0; j < b.ColsN; j++ {
		rows := b.RowIdx[b.ColPtr[j]:b.ColPtr[j+1]]
		if len(rows) == 0 {
			continue
		}
		vals := b.Val[b.ColPtr[j]:b.ColPtr[j+1]]
		if vecLanes > 0 {
			cscColAVX2(&ct[j*m], vecLanes, &vals[0], &rows[0], len(rows), &at[0], m)
		}
		for i := vecLanes; i < m; i++ {
			var s0, s1 float64
			p := 0
			for ; p+2 <= len(rows); p += 2 {
				s0 += float64(at[rows[p]*m+i] * vals[p])
				s1 += float64(at[rows[p+1]*m+i] * vals[p+1])
			}
			if p < len(rows) {
				s0 += float64(at[rows[p]*m+i] * vals[p])
			}
			ct[j*m+i] += s0 + s1
		}
	}
}

// PackedA is a dense left-hand operand prepared for repeated products
// against sparse right-hand blocks, one goroutine each
// (DenseMulCSCPacked) — the counterpart of PackedB. Where the micro-kernel
// is in use and enough stored entries will meet it, it holds a transposed
// copy and the products run on a transposed accumulator; otherwise A is
// read in place.
type PackedA struct {
	a  *Dense
	at []float64 // Aᵀ, k×m row-major; nil: read a in place
	// t is the caller's Aᵀ when at is its values rather than a copy
	// (PackATransposed): a is then nil and Release leaves at alone.
	t *Dense
}

// PackA prepares a for products against sparse blocks holding nnz stored
// entries in total. Release the result once the last product has returned.
func PackA(a *Dense, nnz int) PackedA {
	m, k := a.Dims()
	if !transposePays(m, k, nnz) {
		return PackedA{a: a}
	}
	at, _ := getScratch(k * m)
	transpose(at, a.Data, m, k)
	return PackedA{a: a, at: at}
}

// PackATransposed is PackA given Aᵀ instead of A — a transpose read as a
// view: where PackA would copy A into its transpose, the products read t
// itself, and nothing is transposed. It reports false where PackA would
// read A in place, which t does not hold. t must stay unchanged until the
// last product has returned.
func PackATransposed(t *Dense, nnz int) (PackedA, bool) {
	k, m := t.Dims()
	if m*k == 0 || !transposePays(m, k, nnz) {
		return PackedA{}, false
	}
	return PackedA{at: t.Data, t: t}, true
}

// Transposed reports whether products against p accumulate into the
// transpose of C.
func (p PackedA) Transposed() bool { return p.at != nil }

// Dims returns A's row and column counts.
func (p PackedA) Dims() (m, k int) {
	if p.t != nil {
		return p.t.ColsN, p.t.RowsN
	}
	return p.a.Dims()
}

// Release returns the transposed copy to the scratch pool. The PackedA
// must not be used afterwards.
func (p PackedA) Release() {
	if p.t == nil {
		putScratch(p.at)
	}
}

// DenseMulCSCPacked computes C += A×B on the calling goroutine, against an
// operand prepared by PackA or PackATransposed. When a.Transposed(), c is
// the accumulator's transpose (n×m) and is updated as such, so that a run
// of products into one tile pays for two transposes of C, not two each.
func DenseMulCSCPacked(c *Dense, a PackedA, b *CSC) {
	cm, cn := c.Dims()
	if a.Transposed() {
		cm, cn = cn, cm
	}
	am, ak := a.Dims()
	m, _ := denseMulCSCDims("DenseMulCSCPacked", cm, cn, am, ak, b)
	if a.Transposed() {
		denseMulCSCLanes(c.Data, a.at, m, b)
	} else {
		denseMulCSCGo(c, a.a, b, 0, m)
	}
}

// TransposeInto writes srcᵀ over dst, which must be its transposed shape.
func TransposeInto(dst, src *Dense) {
	if dst.RowsN != src.ColsN || dst.ColsN != src.RowsN {
		panic(fmt.Sprintf("matrix: TransposeInto: %dx%d is not the transpose of %dx%d", dst.RowsN, dst.ColsN, src.RowsN, src.ColsN))
	}
	transpose(dst.Data, src.Data, src.RowsN, src.ColsN)
}

// transposeStrip is the columns of the source one micro-kernel call turns:
// one cache line of each source row.
const transposeStrip = 8

// transpose writes the transpose of the rows×cols row-major src into dst
// (cols×rows): strips of eight columns by whole groups of four rows through
// the micro-kernel where it is in use, the rest element by element.
func transpose(dst, src []float64, rows, cols int) {
	vecRows, vecCols := 0, 0
	if simd {
		vecRows, vecCols = rows&^(laneWidth-1), cols&^(transposeStrip-1)
	}
	if vecRows == 0 {
		vecCols = 0
	}
	for j := 0; j < vecCols; j += transposeStrip {
		transposeStripAVX2(&dst[j*rows], &src[j], vecRows, rows, cols)
	}
	for i := 0; i < rows; i++ {
		jlo := 0
		if i < vecRows {
			jlo = vecCols
		}
		row := src[i*cols : (i+1)*cols]
		for j := jlo; j < cols; j++ {
			dst[j*rows+i] = row[j]
		}
	}
}
