package core

import (
	"sync"
	"sync/atomic"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// Box is a voxel box [ILo,IHi)×[JLo,JHi)×[KLo,KHi) of the 3-dimensional
// model, in block coordinates.
type Box struct {
	ILo, IHi, JLo, JHi, KLo, KHi int
}

// TileKey is the C block position of entry t of MultiplyBox's row-major
// result.
func (b Box) TileKey(t int) bmat.BlockKey {
	nj := b.JHi - b.JLo
	return bmat.BlockKey{I: b.ILo + t/nj, J: b.JLo + t%nj}
}

// boxFanoutFlops is the least arithmetic in a box before its (i,j) tiles
// are spread over goroutines — one 128³ block product. Below it, waking a
// second core costs more than it returns: the small serving jobs stay on
// the goroutine that received them.
const boxFanoutFlops = 1 << 22

// leftWork is what a left operand contributes to a product's arithmetic:
// every element of a dense block, every stored entry of a sparse one.
func leftWork(a matrix.Block) float64 {
	if a.Format() != matrix.FormatDense {
		return float64(a.NNZ())
	}
	m, k := a.Dims()
	return float64(m) * float64(k)
}

// PairFlops is the arithmetic of one block product A_{i,k}·B_{k,j}: dense
// GEMM is 2·m·k·n, a sparse left operand 2·nnz·n (cusparseDcsrmm's work).
func PairFlops(a, b matrix.Block) float64 {
	_, n := b.Dims()
	return 2 * leftWork(a) * float64(n)
}

// MultiplyBox is the local-multiplication step, the one place a cuboid's
// arithmetic happens: for every (i,j) of the box, the sum over the box's k
// range, ascending, of A_{i,k}·B_{k,j}, skipping the pairs either lookup
// answers with nil. It returns the (IHi-ILo)×(JHi-JLo) accumulators in
// row-major order — nil where no pair met — and the flops it spent. acc,
// when not nil, holds the accumulators of an earlier call over a lower k
// range of the same (i,j) extent and is continued in place.
//
// The box, not the block, is the unit of packing and of parallelism: each
// dense B block is packed for the micro-kernel once and reused down the
// box's i range, and the (i,j) tiles fan out over up to
// matrix.KernelWorkers goroutines with every product inside a tile serial.
// A tile is computed by one goroutine in ascending k, so the bits are those
// of the per-block matrix.MulAdd chain at any width. The lookups are called
// from this goroutine only.
func MultiplyBox(box Box, lookupA, lookupB func(row, col int) matrix.Block, acc []*matrix.Dense) ([]*matrix.Dense, float64) {
	ni, nj, nk := box.IHi-box.ILo, box.JHi-box.JLo, box.KHi-box.KLo
	if ni <= 0 || nj <= 0 {
		return acc, 0
	}
	if acc == nil {
		acc = make([]*matrix.Dense, ni*nj)
	}
	if nk <= 0 {
		return acc, 0
	}

	// B first: bCols[k] is the width of the blocks present in its row k, so
	// that an A block's flops are 2·work·bCols[k] without a walk over j.
	bs := make([]matrix.Block, nk*nj)
	bCols := make([]float64, nk)
	for k := 0; k < nk; k++ {
		for j := 0; j < nj; j++ {
			if blk := lookupB(box.KLo+k, box.JLo+j); blk != nil {
				bs[k*nj+j] = blk
				_, n := blk.Dims()
				bCols[k] += float64(n)
			}
		}
	}
	as := make([]matrix.Block, ni*nk)
	denseRows := make([]int, nk) // rows of dense A that meet B's block row k
	var flops float64
	for i := 0; i < ni; i++ {
		for k := 0; k < nk; k++ {
			blk := lookupA(box.ILo+i, box.KLo+k)
			if blk == nil {
				continue
			}
			as[i*nk+k] = blk
			flops += 2 * leftWork(blk) * bCols[k]
			if d, ok := blk.(*matrix.Dense); ok {
				denseRows[k] += d.RowsN
			}
		}
	}

	if ni*nj == 1 {
		// Nothing to fan out over: the bare kernels gate their own.
		for k := 0; k < nk; k++ {
			if as[k] != nil && bs[k] != nil {
				acc[0] = matrix.MulAdd(acc[0], as[k], bs[k])
			}
		}
		return acc, flops
	}

	workers := 1
	if flops >= boxFanoutFlops {
		workers = matrix.KernelWorkers()
	}
	packed := make([]matrix.PackedB, nk*nj)
	parallelFor(nk*nj, workers, func(t int) {
		if d, ok := bs[t].(*matrix.Dense); ok {
			packed[t] = matrix.PackB(d, denseRows[t/nj])
		}
	})
	parallelFor(ni*nj, workers, func(t int) {
		i, j := t/nj, t%nj
		c := acc[t]
		for k := 0; k < nk; k++ {
			ab, bb := as[i*nk+k], bs[k*nj+j]
			if ab == nil || bb == nil {
				continue
			}
			ad, aDense := ab.(*matrix.Dense)
			bd, bDense := bb.(*matrix.Dense)
			if aDense && bDense {
				if c == nil {
					c = matrix.GetDense(ad.RowsN, bd.ColsN)
				}
				matrix.GemmPacked(c, ad, packed[k*nj+j])
			} else {
				c = matrix.MulAdd(c, ab, bb)
			}
		}
		acc[t] = c
	})
	for _, pb := range packed {
		pb.Release()
	}
	return acc, flops
}

// parallelFor calls fn(0..n-1), each index once, from up to workers
// goroutines — the caller's among them — and returns when all have
// finished. A panic in fn is re-raised on the calling goroutine, where the
// cluster's task wrapper turns it into a task error.
func parallelFor(n, workers int, fn func(t int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for t := 0; t < n; t++ {
			fn(t)
		}
		return
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		caught any
	)
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if caught == nil {
					caught = r
				}
				mu.Unlock()
			}
		}()
		for t := int(next.Add(1)) - 1; t < n; t = int(next.Add(1)) - 1 {
			fn(t)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if caught != nil {
		panic(caught)
	}
}
