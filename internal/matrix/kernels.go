package matrix

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// csrMulCSRThreshold is the minimum scalar-multiply count before CSRMulCSR
// fans its rows out. A Gustavson multiply — a marker test and a scattered
// add — costs some fifty times a sparse–dense one, so its gate stays where
// PR 1 set the shared one rather than following sparseFlopsThreshold up:
// 512² at 5 % squared (335 k multiplies) runs 20–24 ms serial, 14–18 ms
// fanned out over two threads.
var csrMulCSRThreshold = 1 << 15

// kernelWorkers overrides the kernel fan-out width; 0 means GOMAXPROCS.
var kernelWorkers atomic.Int32

// SetKernelWorkers bounds the goroutines a single kernel call fans out to.
// n <= 0 restores the default (GOMAXPROCS). Tests use this to exercise the
// parallel paths at fixed widths; benchmarks use it to pin the serial path.
func SetKernelWorkers(n int) {
	if n < 0 {
		n = 0
	}
	kernelWorkers.Store(int32(n))
}

// KernelWorkers returns the current kernel fan-out width.
func KernelWorkers() int {
	if n := kernelWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// CSRMulCSR computes A×B for two CSR operands, returning a CSR result. The
// classical Gustavson row-merge algorithm; used when both inputs are sparse.
// Rows of A are fanned out across workers at flop-balanced boundaries and
// the per-range partial CSRs are stitched, so the output is identical to
// the serial row-by-row construction for any worker count.
func CSRMulCSR(a, b *CSR) *CSR {
	m, ka := a.Dims()
	kb, n := b.Dims()
	if ka != kb {
		panic(fmt.Sprintf("matrix: CSRMulCSR: dimension mismatch %dx%d × %dx%d", m, ka, kb, n))
	}
	workers := KernelWorkers()
	if workers > 1 && m >= 2 {
		// Per-row work is the number of scalar multiplies: the sum of B-row
		// lengths over the row's entries. Its prefix array gives balanced
		// split points even when nnz is concentrated in a few rows.
		work := make([]int, m+1)
		for i := 0; i < m; i++ {
			w := 0
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				k := a.ColIdx[p]
				w += b.RowPtr[k+1] - b.RowPtr[k]
			}
			work[i+1] = work[i] + w
		}
		if work[m] >= csrMulCSRThreshold {
			bounds := prefixSplits(work, workers)
			parts := make([]*CSR, len(bounds)-1)
			var wg sync.WaitGroup
			for w := 0; w+1 < len(bounds); w++ {
				lo, hi := bounds[w], bounds[w+1]
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					parts[w] = csrMulCSRRange(a, b, lo, hi)
				}(w, lo, hi)
			}
			wg.Wait()
			return stitchCSRParts(m, n, bounds, parts)
		}
	}
	return csrMulCSRRange(a, b, 0, m)
}

// csrMulCSRRange runs Gustavson on A rows [lo, hi), returning a partial CSR
// whose row r corresponds to global row lo+r.
func csrMulCSRRange(a, b *CSR, lo, hi int) *CSR {
	n := b.ColsN
	out := &CSR{RowsN: hi - lo, ColsN: n, RowPtr: make([]int, hi-lo+1)}
	acc, _ := getScratch(n) // values are reset lazily via marker, no zeroing needed
	defer putScratch(acc)
	marker := make([]int, n)
	for i := range marker {
		marker[i] = -1
	}
	var cols []int
	for i := lo; i < hi; i++ {
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
				acc[j] += float64(av * b.Val[q]) // rounded apart: no FMA on any architecture
			}
		}
		// Deterministic output: ascending column order within the row.
		sortCols(cols)
		for _, j := range cols {
			if acc[j] != 0 {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, acc[j])
			}
		}
		out.RowPtr[i-lo+1] = len(out.Val)
	}
	return out
}

// stitchCSRParts concatenates per-range partial CSRs into the full result.
func stitchCSRParts(m, n int, bounds []int, parts []*CSR) *CSR {
	total := 0
	for _, p := range parts {
		if p != nil {
			total += len(p.Val)
		}
	}
	out := &CSR{
		RowsN:  m,
		ColsN:  n,
		RowPtr: make([]int, m+1),
		ColIdx: make([]int, 0, total),
		Val:    make([]float64, 0, total),
	}
	for w, part := range parts {
		if part == nil {
			continue
		}
		lo := bounds[w]
		offset := len(out.Val)
		for r := 1; r <= part.RowsN; r++ {
			out.RowPtr[lo+r] = offset + part.RowPtr[r]
		}
		out.ColIdx = append(out.ColIdx, part.ColIdx...)
		out.Val = append(out.Val, part.Val...)
	}
	// Rows past the last non-empty part (or inside empty spans) inherit the
	// running offset.
	for i := 1; i <= m; i++ {
		if out.RowPtr[i] < out.RowPtr[i-1] {
			out.RowPtr[i] = out.RowPtr[i-1]
		}
	}
	return out
}

// prefixSplits returns parts+1 row boundaries over a monotone prefix array
// (RowPtr or a work prefix) such that each span carries roughly equal
// weight. Boundaries are non-decreasing and cover [0, len(prefix)-1).
func prefixSplits(prefix []int, parts int) []int {
	m := len(prefix) - 1
	if parts > m {
		parts = m
	}
	if parts < 1 {
		parts = 1
	}
	bounds := make([]int, parts+1)
	total := prefix[m]
	for w := 1; w < parts; w++ {
		target := int(int64(total) * int64(w) / int64(parts))
		idx := sort.SearchInts(prefix, target)
		if idx > m {
			idx = m
		}
		if idx < bounds[w-1] {
			idx = bounds[w-1]
		}
		bounds[w] = idx
	}
	bounds[parts] = m
	return bounds
}

// hybridSortThreshold is the slice length above which insertion sort's
// O(r²) behavior loses to the stdlib sort; dense-ish Gustavson result rows
// routinely exceed it.
const hybridSortThreshold = 32

// sortCols orders a result row's column indices: insertion sort for the
// short rows that dominate sparse products, stdlib sort beyond the
// threshold.
func sortCols(s []int) {
	if len(s) <= hybridSortThreshold {
		insertionSortInts(s)
		return
	}
	sort.Ints(s)
}

func insertionSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// Mul multiplies two blocks of any formats into a fresh block, densifying as
// the formats require. Sparse×sparse stays sparse; any dense operand makes
// the result dense. This is the dispatch used by the engine's local
// multiplication step when a task multiplies a pair of blocks.
func Mul(a, b Block) Block {
	switch av := a.(type) {
	case *Dense:
		switch bv := b.(type) {
		case *Dense:
			_, n := bv.Dims()
			m, _ := av.Dims()
			c := NewDense(m, n)
			Gemm(c, av, bv)
			return c
		case *CSC:
			m, _ := av.Dims()
			_, n := bv.Dims()
			c := NewDense(m, n)
			DenseMulCSC(c, av, bv)
			return c
		case *CSR:
			m, _ := av.Dims()
			_, n := bv.Dims()
			c := NewDense(m, n)
			DenseMulCSC(c, av, NewCSCFromCSR(bv))
			return c
		}
	case *CSR:
		switch bv := b.(type) {
		case *Dense:
			m, _ := av.Dims()
			_, n := bv.Dims()
			c := NewDense(m, n)
			CSRMulDense(c, av, bv)
			return c
		case *CSR:
			return CSRMulCSR(av, bv)
		case *CSC:
			return CSRMulCSR(av, cscToCSR(bv))
		}
	case *CSC:
		return Mul(cscToCSR(av), b)
	}
	panic(fmt.Sprintf("matrix: Mul: unsupported operand formats %v × %v", a.Format(), b.Format()))
}

// MulAdd multiplies a×b and accumulates into the dense accumulator c
// (allocating it from the dense-buffer pool when nil), returning the
// accumulator. This is the shape the k-axis aggregation in a cuboid wants:
// one resident C buffer, many += calls. Callers that can prove the
// accumulator dies (the aggregation merge in core) release it with
// PutDense; accumulators that escape into results simply stay out of the
// pool.
func MulAdd(c *Dense, a, b Block) *Dense {
	m, _ := a.Dims()
	_, n := b.Dims()
	if c == nil {
		c = GetDense(m, n)
	} else if cm, cn := c.Dims(); cm != m || cn != n {
		panic(fmt.Sprintf("matrix: MulAdd: accumulator %dx%d does not match product %dx%d", cm, cn, m, n))
	}
	switch av := a.(type) {
	case *Dense:
		switch bv := b.(type) {
		case *Dense:
			Gemm(c, av, bv)
		case *CSC:
			DenseMulCSC(c, av, bv)
		case *CSR:
			DenseMulCSC(c, av, NewCSCFromCSR(bv))
		}
	case *CSR:
		switch bv := b.(type) {
		case *Dense:
			CSRMulDense(c, av, bv)
		default:
			AddInto(c, Mul(a, b))
		}
	default:
		AddInto(c, Mul(a, b))
	}
	return c
}

func cscToCSR(m *CSC) *CSR {
	// The CSC arrays reinterpreted are the CSR of the transpose; transposing
	// that CSR recovers the original matrix in CSR form.
	t := &CSR{RowsN: m.ColsN, ColsN: m.RowsN, RowPtr: m.ColPtr, ColIdx: m.RowIdx, Val: m.Val}
	return t.Transpose()
}

// AddInto accumulates src into dst element-wise; dst must be dense and the
// dimensions must match.
func AddInto(dst *Dense, src Block) {
	sr, sc := src.Dims()
	if dst.RowsN != sr || dst.ColsN != sc {
		panic(fmt.Sprintf("matrix: AddInto: dimension mismatch %dx%d += %dx%d", dst.RowsN, dst.ColsN, sr, sc))
	}
	switch s := src.(type) {
	case *Dense:
		for i, v := range s.Data {
			dst.Data[i] += v
		}
	case *CSR:
		for i := 0; i < s.RowsN; i++ {
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				dst.Data[i*dst.ColsN+s.ColIdx[p]] += s.Val[p]
			}
		}
	case *CSC:
		for j := 0; j < s.ColsN; j++ {
			for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
				dst.Data[s.RowIdx[p]*dst.ColsN+j] += s.Val[p]
			}
		}
	default:
		for i := 0; i < sr; i++ {
			for j := 0; j < sc; j++ {
				dst.Data[i*dst.ColsN+j] += src.At(i, j)
			}
		}
	}
}

// Add returns a+b as a fresh dense block.
func Add(a, b Block) *Dense {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		panic(fmt.Sprintf("matrix: Add: dimension mismatch %dx%d + %dx%d", ar, ac, br, bc))
	}
	out := a.Dense()
	AddInto(out, b)
	return out
}

// Sub returns a-b as a fresh dense block.
func Sub(a, b Block) *Dense {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		panic(fmt.Sprintf("matrix: Sub: dimension mismatch %dx%d - %dx%d", ar, ac, br, bc))
	}
	src, out := elemOperands(a)
	bd, ok := b.(*Dense)
	if !ok {
		bd = b.Dense()
	}
	for i, v := range bd.Data {
		out.Data[i] = src.Data[i] - v
	}
	return out
}

// Hadamard returns the element-wise product a∘b as a fresh dense block.
func Hadamard(a, b Block) *Dense {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		panic(fmt.Sprintf("matrix: Hadamard: dimension mismatch %dx%d ∘ %dx%d", ar, ac, br, bc))
	}
	src, out := elemOperands(a)
	bd, ok := b.(*Dense)
	if !ok {
		bd = b.Dense()
	}
	for i, v := range bd.Data {
		out.Data[i] = src.Data[i] * v
	}
	return out
}

// DivElem returns a⊘b element-wise; denominators with magnitude below eps are
// clamped to eps to keep GNMF updates finite, matching the common epsilon
// guard in NMF implementations.
func DivElem(a, b Block, eps float64) *Dense {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		panic(fmt.Sprintf("matrix: DivElem: dimension mismatch %dx%d / %dx%d", ar, ac, br, bc))
	}
	src, out := elemOperands(a)
	bd, ok := b.(*Dense)
	if !ok {
		bd = b.Dense()
	}
	for i, v := range bd.Data {
		den := v
		if den < eps && den > -eps {
			den = eps
		}
		out.Data[i] = src.Data[i] / den
	}
	return out
}

// HadamardDivElem returns x∘(n⊘d) as a fresh dense block in one pass:
// each quotient is rounded as DivElem rounds it, eps guard included, and
// then multiplied by x's element as Hadamard multiplies, so the bits are
// those of Hadamard(x, DivElem(n, d, eps)) without the quotient's block.
func HadamardDivElem(x, n, d Block, eps float64) *Dense {
	xr, xc := x.Dims()
	nr, nc := n.Dims()
	dr, dc := d.Dims()
	if xr != nr || xc != nc || nr != dr || nc != dc {
		panic(fmt.Sprintf("matrix: HadamardDivElem: dimension mismatch %dx%d ∘ %dx%d / %dx%d", xr, xc, nr, nc, dr, dc))
	}
	src, out := elemOperands(x)
	nd, ok := n.(*Dense)
	if !ok {
		nd = n.Dense()
	}
	dd, ok := d.(*Dense)
	if !ok {
		dd = d.Dense()
	}
	xv, nv, dv := src.Data, nd.Data[:len(src.Data)], dd.Data[:len(src.Data)]
	for i, v := range dv {
		den := v
		if den < eps && den > -eps {
			den = eps
		}
		out.Data[i] = xv[i] * (nv[i] / den)
	}
	return out
}

// Scale returns s·a as a fresh dense block.
func Scale(s float64, a Block) *Dense {
	src, out := elemOperands(a)
	for i, v := range src.Data {
		out.Data[i] = v * s
	}
	return out
}

// elemOperands returns the values an element-wise kernel reads from a and
// the block it writes each result into: a fresh block beside a dense a, so
// a is read once rather than first copied, or a sparse a's densified copy,
// overwritten in place.
func elemOperands(a Block) (src, out *Dense) {
	if d, ok := a.(*Dense); ok {
		return d, NewDense(d.RowsN, d.ColsN)
	}
	d := a.Dense()
	return d, d
}

// Transpose returns the transpose of any block, preserving sparsity: sparse
// inputs yield CSR, dense inputs yield dense.
func Transpose(a Block) Block {
	switch v := a.(type) {
	case *Dense:
		return v.Transpose()
	case *CSR:
		return v.Transpose()
	case *CSC:
		return cscToCSR(v).Transpose()
	default:
		return a.Dense().Transpose()
	}
}
