// Package matrix provides the local (single-task) matrix kernels used by the
// DistME engine: dense row-major blocks, CSR/CSC sparse blocks, and the
// multiply / add / transpose / element-wise kernels that the paper delegates
// to LAPACK (CPU) and cuBLAS / cuSPARSE (GPU). Everything is pure Go so the
// distributed and GPU layers above it are fully testable and deterministic.
package matrix

import (
	"fmt"
	"math"
)

// Format identifies the physical representation of a block.
type Format int

const (
	// FormatDense is a row-major dense block.
	FormatDense Format = iota
	// FormatCSR is compressed sparse row.
	FormatCSR
	// FormatCSC is compressed sparse column.
	FormatCSC
)

// String returns the conventional short name of the format.
func (f Format) String() string {
	switch f {
	case FormatDense:
		return "dense"
	case FormatCSR:
		return "csr"
	case FormatCSC:
		return "csc"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// elemBytes is the size of one float64 element. Communication accounting all
// over the engine is elements×elemBytes, matching the paper's |A| element
// counts scaled to bytes.
const elemBytes = 8

// Block is any local matrix representation. A block is the basic unit of
// distributed computation (paper §2.1): the engine moves, multiplies and
// aggregates blocks; this interface is what those layers see.
type Block interface {
	// Dims returns the row and column counts.
	Dims() (rows, cols int)
	// NNZ returns the number of explicitly stored non-zero elements.
	NNZ() int
	// SizeBytes returns the in-memory payload size used for memory and
	// cost-model accounting. The bytes a block actually occupies on the
	// wire — where sparse blocks use compact index forms — come from
	// codec.EncodedBytes instead.
	SizeBytes() int64
	// At returns the element at (i, j). It panics when out of range.
	At(i, j int) float64
	// Dense materializes the block as a dense copy.
	Dense() *Dense
	// Format reports the physical representation.
	Format() Format
}

// Dense is a row-major dense matrix block.
type Dense struct {
	RowsN, ColsN int
	// Data holds RowsN×ColsN values, row-major.
	Data []float64
	// fromPool marks blocks whose backing array came from the dense-buffer
	// pool (see pool.go); only those are recycled by PutDense.
	fromPool bool
}

// NewDense allocates a zeroed rows×cols dense block.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: NewDense(%d, %d): negative dimension", rows, cols))
	}
	return &Dense{RowsN: rows, ColsN: cols, Data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (row-major, length rows*cols) without copying.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: NewDenseData(%d, %d): data length %d != %d", rows, cols, len(data), rows*cols))
	}
	return &Dense{RowsN: rows, ColsN: cols, Data: data}
}

// Dims returns the dimensions.
func (d *Dense) Dims() (int, int) { return d.RowsN, d.ColsN }

// NNZ counts the non-zero elements by scanning.
func (d *Dense) NNZ() int {
	n := 0
	for _, v := range d.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// SizeBytes is the dense payload size: rows×cols×8.
func (d *Dense) SizeBytes() int64 { return int64(len(d.Data)) * elemBytes }

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 {
	d.check(i, j)
	return d.Data[i*d.ColsN+j]
}

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) {
	d.check(i, j)
	d.Data[i*d.ColsN+j] = v
}

func (d *Dense) check(i, j int) {
	if i < 0 || i >= d.RowsN || j < 0 || j >= d.ColsN {
		panic(fmt.Sprintf("matrix: index (%d, %d) out of range %dx%d", i, j, d.RowsN, d.ColsN))
	}
}

// Dense returns a deep copy of the block.
func (d *Dense) Dense() *Dense {
	out := NewDense(d.RowsN, d.ColsN)
	copy(out.Data, d.Data)
	return out
}

// Format reports FormatDense.
func (d *Dense) Format() Format { return FormatDense }

// Row returns the i-th row as a subslice (not a copy).
func (d *Dense) Row(i int) []float64 {
	if i < 0 || i >= d.RowsN {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, d.RowsN))
	}
	return d.Data[i*d.ColsN : (i+1)*d.ColsN]
}

// Clone is an alias of Dense() with a clearer name at call sites that know
// the concrete type.
func (d *Dense) Clone() *Dense { return d.Dense() }

// Zero resets all elements to 0 in place.
func (d *Dense) Zero() {
	for i := range d.Data {
		d.Data[i] = 0
	}
}

// Equal reports whether d and other have identical dimensions and elements.
func (d *Dense) Equal(other *Dense) bool {
	if d.RowsN != other.RowsN || d.ColsN != other.ColsN {
		return false
	}
	for i, v := range d.Data {
		if v != other.Data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether d and other match within tol element-wise.
func (d *Dense) EqualApprox(other *Dense, tol float64) bool {
	if d.RowsN != other.RowsN || d.ColsN != other.ColsN {
		return false
	}
	for i, v := range d.Data {
		if diff := math.Abs(v - other.Data[i]); diff > tol {
			return false
		}
	}
	return true
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (d *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range d.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Transpose returns a new dense block that is the transpose of d.
func (d *Dense) Transpose() *Dense {
	out := NewDense(d.ColsN, d.RowsN)
	transpose(out.Data, d.Data, d.RowsN, d.ColsN)
	return out
}

// String renders small blocks for debugging; large blocks are summarized.
func (d *Dense) String() string {
	if d.RowsN*d.ColsN > 64 {
		return fmt.Sprintf("Dense{%dx%d, nnz=%d}", d.RowsN, d.ColsN, d.NNZ())
	}
	s := fmt.Sprintf("Dense{%dx%d}[", d.RowsN, d.ColsN)
	for i := 0; i < d.RowsN; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < d.ColsN; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%g", d.At(i, j))
		}
	}
	return s + "]"
}

var _ Block = (*Dense)(nil)
