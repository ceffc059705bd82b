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

// Partials lists the accumulators MultiplyBox returned for this box under
// their C block positions, in key order; tiles no pair met are left out.
func (b Box) Partials(tiles []*matrix.Dense) []Partial {
	out := make([]Partial, 0, len(tiles))
	for t, acc := range tiles {
		if acc != nil {
			out = append(out, Partial{Key: b.TileKey(t), Block: acc})
		}
	}
	return out
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
// GEMM is 2·m·k·n, and a sparse operand on either side takes part with its
// stored entries only — 2·nnz(A)·n on the left (cusparseDcsrmm's work),
// 2·m·nnz(B) on the right under a dense A.
func PairFlops(a, b matrix.Block) float64 {
	if a.Format() == matrix.FormatDense && b.Format() != matrix.FormatDense {
		m, _ := a.Dims()
		return 2 * float64(m) * float64(b.NNZ())
	}
	_, n := b.Dims()
	return 2 * leftWork(a) * float64(n)
}

// Operand is one side of a box product. Block(row, col) answers the
// operand's block at that position in the operand's own coordinates, nil
// for none; when Transposed is set, the block it answers is that block's
// transpose — a transposed matrix read as a view of its source, which no
// one has transposed.
type Operand struct {
	Block      func(row, col int) matrix.Block
	Transposed bool
}

// MultiplyBox is the local-multiplication step, the one place a cuboid's
// arithmetic happens: for every (i,j) of the box, the sum over the box's k
// range, ascending, of A_{i,k}·B_{k,j}, skipping the pairs either lookup
// answers with nil. It returns the (IHi-ILo)×(JHi-JLo) accumulators in
// row-major order — nil where no pair met — and the flops it spent. acc,
// when not nil, holds the accumulators of an earlier call over a lower k
// range of the same (i,j) extent and is continued in place.
//
// The box, not the block, is the unit of packing and of parallelism. Each
// operand block is prepared for the micro-kernels once and reused across
// the box: a dense B block packed into column panels (down the i range), a
// dense A block that meets sparse B blocks transposed (across the j range),
// a CSR B block under a dense A converted to CSC. The (i,j) tiles fan out
// over up to matrix.KernelWorkers goroutines with every product inside a
// tile serial; a box of one tile fans out that tile's rows instead
// (multiplyOneTile). An element of C is computed by one goroutine in
// ascending k, so the bits are those of the per-block matrix.MulAdd chain
// at any width. The lookups are called from this goroutine only.
func MultiplyBox(box Box, lookupA, lookupB func(row, col int) matrix.Block, acc []*matrix.Dense) ([]*matrix.Dense, float64) {
	return MultiplyBoxOf(box, Operand{Block: lookupA}, Operand{Block: lookupB}, acc)
}

// MultiplyBoxOf is MultiplyBox over operands either of which may be read
// through a transpose. A transposed block is transposed into a pooled
// block for the box's duration, except a dense A block whose products in
// the box are all against sparse B blocks: the kernel wants that block's
// transpose, which is the block the view holds, so it is read as it is
// (matrix.PackATransposed). Transposition is exact, so the bits are those
// of MultiplyBox over the transposed matrices.
func MultiplyBoxOf(box Box, a, b Operand, acc []*matrix.Dense) ([]*matrix.Dense, float64) {
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

	// B first, so that an A block's flops (PairFlops over its block row of
	// B) need no walk over j. A block of B read through a transpose is
	// transposed once the box's fan-out width is known; until then its
	// columns are its source's rows.
	bs := make([]matrix.Block, nk*nj)
	rows := make([]bRow, nk)
	for k := 0; k < nk; k++ {
		for j := 0; j < nj; j++ {
			if blk := b.Block(box.KLo+k, box.JLo+j); blk != nil {
				bs[k*nj+j] = blk
				_, w := blk.Dims()
				if b.Transposed {
					w, _ = blk.Dims()
				}
				rows[k].cols += float64(w)
				if blk.Format() == matrix.FormatDense {
					rows[k].denseCols += float64(w)
				} else {
					rows[k].sparse = true
					rows[k].sparseNNZ += blk.NNZ()
				}
			}
		}
	}
	as := make([]matrix.Block, ni*nk)
	var views []*matrix.Dense // A's dense blocks as the view holds them, transposed
	var flops float64
	for i := 0; i < ni; i++ {
		for k := 0; k < nk; k++ {
			blk := a.Block(box.ILo+i, box.KLo+k)
			if blk == nil {
				continue
			}
			if a.Transposed {
				d, ok := blk.(*matrix.Dense)
				if !ok {
					blk = matrix.Transpose(blk)
				} else {
					// Transposed, or read as it is, once the box's B is known.
					if rows[k].cols == 0 {
						continue // it meets no block of B
					}
					if views == nil {
						views = make([]*matrix.Dense, ni*nk)
					}
					views[i*nk+k] = d
					rows[k].denseRows += d.ColsN
					flops += 2 * float64(d.ColsN) * (float64(d.RowsN)*rows[k].denseCols + float64(rows[k].sparseNNZ))
					continue
				}
			}
			as[i*nk+k] = blk
			if d, ok := blk.(*matrix.Dense); ok {
				rows[k].denseRows += d.RowsN
				flops += 2 * float64(d.RowsN) * (float64(d.ColsN)*rows[k].denseCols + float64(rows[k].sparseNNZ))
			} else {
				flops += 2 * leftWork(blk) * rows[k].cols
			}
		}
	}

	workers := 1
	if flops >= boxFanoutFlops {
		workers = matrix.KernelWorkers()
	}
	var temps []*matrix.Dense // the transposes made for this box
	if b.Transposed {
		temps = transposeAll(bs, func(t int) matrix.Block { return bs[t] }, workers)
	}
	oneTile := ni*nj == 1 && workers > 1
	lefts := make([]matrix.PackedA, ni*nk)
	if views != nil {
		// A view block is read as it is where all it meets is sparse and
		// PackA would have transposed it; the rest are transposed.
		for t, v := range views {
			if r := rows[t%nk]; v != nil && !oneTile && r.denseCols == 0 {
				var ok bool
				if lefts[t], ok = matrix.PackATransposed(v, r.sparseNNZ); ok {
					views[t] = nil
				}
			}
		}
		temps = append(temps, transposeAll(as, func(t int) matrix.Block {
			if v := views[t]; v != nil {
				return v
			}
			return nil
		}, workers)...)
	}
	if oneTile {
		acc[0] = multiplyOneTile(acc[0], as, bs, workers)
		releaseAll(temps)
		return acc, flops
	}

	// Prepare each operand block for the side of it that is dense: rights[t]
	// serves the dense A blocks of B block t's row, lefts[t] the sparse B
	// blocks of A block t's column.
	rights := make([]preparedB, nk*nj)
	parallelFor(nk*nj, workers, func(t int) {
		if r := rows[t/nj]; r.denseRows > 0 {
			rights[t] = prepareB(bs[t], r.denseRows)
		}
	})
	parallelFor(ni*nk, workers, func(t int) {
		if d, ok := as[t].(*matrix.Dense); ok && rows[t%nk].sparse {
			lefts[t] = matrix.PackA(d, rows[t%nk].sparseNNZ)
		}
	})
	parallelFor(ni*nj, workers, func(t int) {
		i, j := t/nj, t%nj
		tile := tileAcc{c: acc[t]}
		for k := 0; k < nk; k++ {
			if ab, bb := as[i*nk+k], bs[k*nj+j]; bb != nil && (ab != nil || lefts[i*nk+k].Transposed()) {
				tile.mulAdd(ab, bb, lefts[i*nk+k], rights[k*nj+j])
			}
		}
		acc[t] = tile.rowMajor()
	})
	for _, r := range rights {
		r.packed.Release()
	}
	for _, l := range lefts {
		l.Release()
	}
	releaseAll(temps)
	return acc, flops
}

// transposeAll sets dst[t] to the transpose of src(t) wherever src answers
// a block, over up to workers goroutines: a dense block's into a pooled
// block (matrix.GetTranspose), a sparse one's as CSR. It returns the pooled
// blocks, for the caller to release.
func transposeAll(dst []matrix.Block, src func(t int) matrix.Block, workers int) []*matrix.Dense {
	pooled := make([]*matrix.Dense, len(dst))
	parallelFor(len(dst), workers, func(t int) {
		switch blk := src(t).(type) {
		case nil:
		case *matrix.Dense:
			pooled[t] = matrix.GetTranspose(blk)
			dst[t] = pooled[t]
		default:
			dst[t] = matrix.Transpose(blk)
		}
	})
	out := pooled[:0]
	for _, d := range pooled {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

func releaseAll(ds []*matrix.Dense) {
	for _, d := range ds {
		matrix.PutDense(d)
	}
}

// Slab is slab r of the box's k range cut into R by GridSpan — the split
// ForEachCuboid makes, so slab r of a (p,q) column is cuboid (p,q,r).
func (b Box) Slab(r, R int) Box {
	lo, hi := GridSpan(r, b.KHi-b.KLo, R)
	b.KLo, b.KHi = b.KLo+lo, b.KLo+hi
	return b
}

// FoldSlab adds one slab's tiles into a column's running tiles — nil before
// the first slab — by foldInto, FoldPartials' rule, and returns them. Both
// ways a column is summed use it: MultiplyColumn over a whole column, and a
// link of several folding its slabs into the running sum it took.
func FoldSlab(tiles, slab []*matrix.Dense) []*matrix.Dense {
	if tiles == nil {
		return slab
	}
	for t, d := range slab {
		tiles[t] = foldInto(tiles[t], d)
	}
	return tiles
}

// MultiplyColumn is the local multiplication of one (p,q) column: the box's
// k range cut into R slabs (Box.Slab), each slab multiplied by MultiplyBox
// into fresh accumulators, and the slabs folded in ascending r by FoldSlab.
// The tiles are the bits MultiplyCuboid gives the column's R cuboids at the
// same (P,Q,R): continuing one accumulator across the slabs would add in
// another order. R must be between 1 and KHi−KLo. Tiles are in MultiplyBox's
// row-major order, nil where no pair met; with R = 1 the call is MultiplyBox.
func MultiplyColumn(box Box, R int, lookupA, lookupB func(row, col int) matrix.Block) ([]*matrix.Dense, float64) {
	var tiles []*matrix.Dense
	var flops float64
	for r := 0; r < R; r++ {
		slab, f := MultiplyBox(box.Slab(r, R), lookupA, lookupB, nil)
		tiles = FoldSlab(tiles, slab)
		flops += f
	}
	return tiles, flops
}

// multiplyOneTile is the box whose whole output is one tile: there are no
// tiles to fan out over. Block pairs large enough for the bare kernels to
// split their own rows are left to them, and so is any chain with a sparse
// pair in it. A chain of dense pairs each too small for that — GNMF's Wᵀ·W:
// a 128×128 tile under thirty-two 128×256·256×128 pairs — fans out the
// tile's rows instead: each B block is packed once, then every row chunk
// runs the whole chain in ascending k on one goroutine. Either way the
// additions an element sees are those of the matrix.MulAdd chain.
func multiplyOneTile(c *matrix.Dense, as, bs []matrix.Block, workers int) *matrix.Dense {
	type pair struct {
		a, b   *matrix.Dense
		packed matrix.PackedB
	}
	pairs := make([]pair, 0, len(as))
	for k := range as {
		if as[k] == nil || bs[k] == nil {
			continue
		}
		a, aok := as[k].(*matrix.Dense)
		b, bok := bs[k].(*matrix.Dense)
		if !aok || !bok || matrix.GemmFansOut(a.RowsN, b.ColsN, a.ColsN) {
			for k := range as {
				if as[k] != nil && bs[k] != nil {
					c = matrix.MulAdd(c, as[k], bs[k])
				}
			}
			return c
		}
		pairs = append(pairs, pair{a: a, b: b})
	}
	if len(pairs) == 0 {
		return c
	}
	m := pairs[0].a.RowsN
	if c == nil {
		c = matrix.GetDense(m, pairs[0].b.ColsN)
	}
	parallelFor(len(pairs), workers, func(t int) {
		pairs[t].packed = matrix.PackB(pairs[t].b, m)
	})
	chunk := matrix.RowChunk(m, workers)
	parallelFor((m+chunk-1)/chunk, workers, func(t int) {
		lo, hi := t*chunk, min((t+1)*chunk, m)
		for _, p := range pairs {
			matrix.GemmPackedRows(c, p.a, p.packed, lo, hi)
		}
	})
	for _, p := range pairs {
		p.packed.Release()
	}
	return c
}

// bRow is what MultiplyBox knows of one block row of B inside the box.
type bRow struct {
	cols      float64 // width of the blocks present,
	denseCols float64 // of the dense ones among them
	sparse    bool    // some are CSR or CSC,
	sparseNNZ int     // holding this many entries
	denseRows int     // rows of the dense A blocks that meet this block row
}

// preparedB is a B block as the dense A blocks of its row multiply against
// it: a dense block packed into column panels, a sparse one in CSC.
type preparedB struct {
	packed matrix.PackedB
	csc    *matrix.CSC
}

func prepareB(b matrix.Block, denseRows int) preparedB {
	switch b := b.(type) {
	case *matrix.Dense:
		return preparedB{packed: matrix.PackB(b, denseRows)}
	case *matrix.CSR:
		return preparedB{csc: matrix.NewCSCFromCSR(b)}
	case *matrix.CSC:
		return preparedB{csc: b}
	}
	return preparedB{}
}

// tileAcc is one (i,j) accumulator while its k chain runs. Products of a
// transposed dense A block against sparse B accumulate into ct, the
// transpose of the tile; it is kept across a run of them and turned back
// into c before any other kind of product and at the end of the chain.
type tileAcc struct {
	c, ct *matrix.Dense
}

// rowMajor settles the accumulator into c and returns it.
func (t *tileAcc) rowMajor() *matrix.Dense {
	if t.ct != nil {
		if t.c == nil {
			t.c = matrix.GetDense(t.ct.ColsN, t.ct.RowsN)
		}
		matrix.TransposeInto(t.c, t.ct)
		matrix.PutDense(t.ct)
		t.ct = nil
	}
	return t.c
}

// mulAdd adds a·b to the tile on this goroutine, in the arithmetic of
// matrix.MulAdd. a is nil where left alone holds A, as its transpose
// (matrix.PackATransposed).
func (t *tileAcc) mulAdd(a, b matrix.Block, left matrix.PackedA, right preparedB) {
	_, n := b.Dims()
	if right.csc != nil && left.Transposed() {
		m, _ := left.Dims()
		if t.ct == nil {
			t.ct = matrix.GetDense(n, m)
			if t.c != nil {
				matrix.TransposeInto(t.ct, t.c)
			}
		}
		matrix.DenseMulCSCPacked(t.ct, left, right.csc)
		return
	}
	m, _ := a.Dims()
	c := t.rowMajor()
	if c == nil {
		c = matrix.GetDense(m, n)
		t.c = c
	}
	switch a := a.(type) {
	case *matrix.Dense:
		if right.csc != nil {
			matrix.DenseMulCSCPacked(c, left, right.csc)
		} else {
			matrix.GemmPacked(c, a, right.packed)
		}
	case *matrix.CSR:
		if bd, ok := b.(*matrix.Dense); ok {
			matrix.CSRMulDenseSerial(c, a, bd)
		} else {
			matrix.MulAdd(c, a, b)
		}
	default:
		matrix.MulAdd(c, a, b)
	}
}

// FanOut calls fn(0..n-1), each index once, over up to
// matrix.KernelWorkers goroutines when work, in flops, reaches the box
// fan-out threshold MultiplyBox applies (boxFanoutFlops), else on the
// calling goroutine.
func FanOut(n int, work float64, fn func(t int)) {
	workers := 1
	if work >= boxFanoutFlops {
		workers = matrix.KernelWorkers()
	}
	parallelFor(n, workers, fn)
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
