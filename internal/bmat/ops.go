package bmat

import (
	"fmt"
	"math"
	"math/rand"

	"distme/internal/matrix"
)

// FromDense splits a dense matrix into a block matrix with the given block
// size. All-zero blocks are not stored.
func FromDense(d *matrix.Dense, blockSize int) *BlockMatrix {
	m := New(d.RowsN, d.ColsN, blockSize)
	for bi := 0; bi < m.IB; bi++ {
		for bj := 0; bj < m.JB; bj++ {
			r, c := m.BlockDims(bi, bj)
			blk := matrix.NewDense(r, c)
			nonzero := false
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					v := d.At(bi*blockSize+i, bj*blockSize+j)
					if v != 0 {
						nonzero = true
					}
					blk.Set(i, j, v)
				}
			}
			if nonzero {
				m.SetBlock(bi, bj, blk)
			}
		}
	}
	return m
}

// ToDense materializes the whole matrix as one dense block; intended for
// verification at test scale.
func (m *BlockMatrix) ToDense() *matrix.Dense {
	d := matrix.NewDense(m.Rows, m.Cols)
	for k, b := range m.blocks {
		br, bc := b.Dims()
		for i := 0; i < br; i++ {
			for j := 0; j < bc; j++ {
				if v := b.At(i, j); v != 0 {
					d.Set(k.I*m.BlockSize+i, k.J*m.BlockSize+j, v)
				}
			}
		}
	}
	return d
}

// RandomDense builds a rows×cols block matrix with uniform [0,1) entries.
func RandomDense(rng *rand.Rand, rows, cols, blockSize int) *BlockMatrix {
	m := New(rows, cols, blockSize)
	for bi := 0; bi < m.IB; bi++ {
		for bj := 0; bj < m.JB; bj++ {
			r, c := m.BlockDims(bi, bj)
			m.SetBlock(bi, bj, matrix.RandomDense(rng, r, c))
		}
	}
	return m
}

// RandomSparse builds a rows×cols block matrix of CSR blocks with the given
// sparsity (fraction of non-zeros). Blocks that come out empty are dropped.
func RandomSparse(rng *rand.Rand, rows, cols, blockSize int, sparsity float64) *BlockMatrix {
	m := New(rows, cols, blockSize)
	for bi := 0; bi < m.IB; bi++ {
		for bj := 0; bj < m.JB; bj++ {
			r, c := m.BlockDims(bi, bj)
			blk := matrix.RandomSparse(rng, r, c, sparsity)
			if blk.NNZ() > 0 {
				m.SetBlock(bi, bj, blk)
			}
		}
	}
	return m
}

// Identity builds the n×n identity as a block matrix.
func Identity(n, blockSize int) *BlockMatrix {
	m := New(n, n, blockSize)
	for bi := 0; bi < m.IB; bi++ {
		r, _ := m.BlockDims(bi, bi)
		blk := matrix.NewDense(r, r)
		for i := 0; i < r; i++ {
			blk.Set(i, i, 1)
		}
		m.SetBlock(bi, bi, blk)
	}
	return m
}

// Transpose returns the transposed block matrix (blocks transposed and
// re-indexed). The paper implements this as an RDD map + re-key.
func (m *BlockMatrix) Transpose() *BlockMatrix {
	out := New(m.Cols, m.Rows, m.BlockSize)
	for k, b := range m.blocks {
		out.SetBlock(k.J, k.I, matrix.Transpose(b))
	}
	return out
}

// zipCheck panics unless a and b are conformable for element-wise work.
func zipCheck(op string, a, b *BlockMatrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.BlockSize != b.BlockSize {
		panic(fmt.Sprintf("bmat: %s: shape mismatch %dx%d/b=%d vs %dx%d/b=%d",
			op, a.Rows, a.Cols, a.BlockSize, b.Rows, b.Cols, b.BlockSize))
	}
}

// ZipOp is an element-wise operator over two conformable block matrices.
type ZipOp uint8

const (
	ZipAdd ZipOp = iota
	ZipSub
	ZipHadamard
	ZipDivElem
)

// ZipBlock computes op at one block position: x is the left operand's block
// and y the right's, either nil where its matrix stores none, never both.
// These are the nil-block rules of every element-wise path — Add, Sub,
// Hadamard and DivElem here, the engine's block-parallel operators and the
// workers' pipeline operators: a missing Add operand leaves the other
// densified, a missing Sub minuend negates the subtrahend (a missing
// subtrahend densifies the minuend), Hadamard drops a block either side
// lacks, and DivElem divides by the eps guard where y lacks a block and
// yields nothing where x does (see matrix.DivElem). A nil result stores no
// block.
func ZipBlock(op ZipOp, x, y matrix.Block, eps float64) matrix.Block {
	switch op {
	case ZipAdd:
		switch {
		case x == nil:
			return y.Dense()
		case y == nil:
			return x.Dense()
		}
		return matrix.Add(x, y)
	case ZipSub:
		switch {
		case x == nil:
			return matrix.Scale(-1, y)
		case y == nil:
			return x.Dense()
		}
		return matrix.Sub(x, y)
	case ZipHadamard:
		if x == nil || y == nil {
			return nil
		}
		return matrix.Hadamard(x, y)
	case ZipDivElem:
		if x == nil {
			return nil
		}
		if y == nil {
			r, c := x.Dims()
			y = matrix.NewDense(r, c)
		}
		return matrix.DivElem(x, y, eps)
	}
	panic(fmt.Sprintf("bmat: unknown element-wise op %d", op))
}

// HadamardQuotientBlock is ZipBlock(ZipHadamard, x, ZipBlock(ZipDivElem,
// n, d, eps), 0) in one pass (matrix.HadamardDivElem): no block where x or
// n lacks one, and the eps guard where only d does.
func HadamardQuotientBlock(x, n, d matrix.Block, eps float64) matrix.Block {
	if x == nil || n == nil {
		return nil
	}
	if d == nil {
		r, c := n.Dims()
		d = matrix.NewDense(r, c)
	}
	return matrix.HadamardDivElem(x, n, d, eps)
}

// zip applies op at every block position either operand stores.
func zip(name string, op ZipOp, a, b *BlockMatrix, eps float64) *BlockMatrix {
	zipCheck(name, a, b)
	out := New(a.Rows, a.Cols, a.BlockSize)
	set := func(k BlockKey, x, y matrix.Block) {
		if blk := ZipBlock(op, x, y, eps); blk != nil {
			out.blocks[k] = blk
		}
	}
	for k, x := range a.blocks {
		set(k, x, b.blocks[k])
	}
	for k, y := range b.blocks {
		if _, ok := a.blocks[k]; !ok {
			set(k, nil, y)
		}
	}
	return out
}

// Add returns a+b block-wise.
func Add(a, b *BlockMatrix) *BlockMatrix { return zip("Add", ZipAdd, a, b, 0) }

// Sub returns a−b block-wise.
func Sub(a, b *BlockMatrix) *BlockMatrix { return zip("Sub", ZipSub, a, b, 0) }

// Hadamard returns the element-wise product a∘b. Blocks present in only one
// operand multiply to zero and are dropped.
func Hadamard(a, b *BlockMatrix) *BlockMatrix { return zip("Hadamard", ZipHadamard, a, b, 0) }

// DivElem returns a⊘b element-wise with an epsilon guard on denominators
// (see matrix.DivElem). Every block position of a must be evaluated: where b
// has no block the denominator is the eps guard.
func DivElem(a, b *BlockMatrix, eps float64) *BlockMatrix {
	return zip("DivElem", ZipDivElem, a, b, eps)
}

// Scale returns s·a block-wise.
func (m *BlockMatrix) Scale(s float64) *BlockMatrix {
	out := New(m.Rows, m.Cols, m.BlockSize)
	for k, b := range m.blocks {
		out.blocks[k] = matrix.Scale(s, b)
	}
	return out
}

// EqualApprox reports whether a and b agree within tol element-wise.
func EqualApprox(a, b *BlockMatrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return a.ToDense().EqualApprox(b.ToDense(), tol)
}

// Dot returns the Frobenius inner product ⟨a, b⟩ = Σ aᵢⱼ·bᵢⱼ. Blocks
// present in only one operand contribute nothing.
func Dot(a, b *BlockMatrix) float64 {
	zipCheck("Dot", a, b)
	var s float64
	for k, ab := range a.blocks {
		bb, ok := b.blocks[k]
		if !ok {
			continue
		}
		// Iterate the sparser side to skip zeros.
		if bb.NNZ() < ab.NNZ() {
			ab, bb = bb, ab
		}
		switch v := ab.(type) {
		case *matrix.Dense:
			bd, isD := bb.(*matrix.Dense)
			if !isD {
				bd = bb.Dense()
			}
			for i, x := range v.Data {
				s += x * bd.Data[i]
			}
		case *matrix.CSR:
			for i := 0; i < v.RowsN; i++ {
				for p := v.RowPtr[i]; p < v.RowPtr[i+1]; p++ {
					s += v.Val[p] * bb.At(i, v.ColIdx[p])
				}
			}
		default:
			d := ab.Dense()
			bd := bb.Dense()
			for i, x := range d.Data {
				s += x * bd.Data[i]
			}
		}
	}
	return s
}

// SumAll returns the sum of every element.
func (m *BlockMatrix) SumAll() float64 {
	var s float64
	for _, b := range m.blocks {
		switch v := b.(type) {
		case *matrix.Dense:
			for _, x := range v.Data {
				s += x
			}
		case *matrix.CSR:
			for _, x := range v.Val {
				s += x
			}
		case *matrix.CSC:
			for _, x := range v.Val {
				s += x
			}
		default:
			d := b.Dense()
			for _, x := range d.Data {
				s += x
			}
		}
	}
	return s
}

// Trace returns Σ mᵢᵢ for a square matrix.
func (m *BlockMatrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("bmat: Trace: matrix is %dx%d, not square", m.Rows, m.Cols))
	}
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += m.At(i, i)
	}
	return s
}

// FrobeniusNorm returns the Frobenius norm of the matrix.
func (m *BlockMatrix) FrobeniusNorm() float64 {
	var s float64
	for _, b := range m.blocks {
		switch v := b.(type) {
		case *matrix.Dense:
			for _, x := range v.Data {
				s += x * x
			}
		case *matrix.CSR:
			for _, x := range v.Val {
				s += x * x
			}
		case *matrix.CSC:
			for _, x := range v.Val {
				s += x * x
			}
		default:
			d := b.Dense()
			for _, x := range d.Data {
				s += x * x
			}
		}
	}
	return math.Sqrt(s)
}
