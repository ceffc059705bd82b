package main

import (
	"fmt"
	"math"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// matVec computes m·x block by block; missing blocks are zero.
func matVec(m *bmat.BlockMatrix, x []float64) []float64 {
	y := make([]float64, m.Rows)
	for _, k := range m.Keys() {
		r0, c0 := k.I*m.BlockSize, k.J*m.BlockSize
		switch b := m.Block(k.I, k.J).(type) {
		case *matrix.CSR:
			for i := 0; i < b.RowsN; i++ {
				var s float64
				for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
					s += b.Val[p] * x[c0+b.ColIdx[p]]
				}
				y[r0+i] += s
			}
		default:
			d, ok := b.(*matrix.Dense)
			if !ok {
				d = b.Dense()
			}
			for i := 0; i < d.RowsN; i++ {
				var s float64
				for j, v := range d.Row(i) {
					s += v * x[c0+j]
				}
				y[r0+i] += s
			}
		}
	}
	return y
}

// freivaldsTol is relative to the largest entry of the reference vector.
const freivaldsTol = 1e-9

// freivalds checks a product against its operands in O(n²): C·x must equal
// the precomputed A·(B·x).
func freivalds(c *bmat.BlockMatrix, o operands) error {
	if c == nil || c.Rows != o.a.Rows || c.Cols != o.b.Cols {
		return fmt.Errorf("product has wrong shape: %v", c)
	}
	got := matVec(c, o.x)
	scale := 1.0
	for _, w := range o.want {
		scale = math.Max(scale, math.Abs(w))
	}
	for i, w := range o.want {
		if d := math.Abs(got[i] - w); !(d <= freivaldsTol*scale) {
			return fmt.Errorf("Freivalds check failed at row %d: got %g, want %g", i, got[i], w)
		}
	}
	return nil
}

// bitEqual is the repo's cross-plane contract: the same product, float64
// bit for float64 bit. A block one side leaves out counts as zeros.
func bitEqual(a, b *bmat.BlockMatrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.BlockSize != b.BlockSize {
		return false
	}
	for i := 0; i < a.IB; i++ {
		for j := 0; j < a.JB; j++ {
			x, y := a.Block(i, j), b.Block(i, j)
			if x == nil && y == nil {
				continue
			}
			r, c := a.BlockDims(i, j)
			for p := 0; p < r; p++ {
				for q := 0; q < c; q++ {
					var u, v float64
					if x != nil {
						u = x.At(p, q)
					}
					if y != nil {
						v = y.At(p, q)
					}
					if math.Float64bits(u) != math.Float64bits(v) && !(u == 0 && v == 0) {
						return false
					}
				}
			}
		}
	}
	return true
}
