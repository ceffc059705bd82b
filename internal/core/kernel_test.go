package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// mulAddChain is the per-block form MultiplyBox replaced: for each (i,j),
// matrix.MulAdd over the box's k range in ascending order.
func mulAddChain(box Box, a, b *bmat.BlockMatrix) []*matrix.Dense {
	nj := box.JHi - box.JLo
	out := make([]*matrix.Dense, (box.IHi-box.ILo)*nj)
	for i := box.ILo; i < box.IHi; i++ {
		for j := box.JLo; j < box.JHi; j++ {
			var acc *matrix.Dense
			for k := box.KLo; k < box.KHi; k++ {
				ab, bb := a.Block(i, k), b.Block(k, j)
				if ab == nil || bb == nil {
					continue
				}
				acc = matrix.MulAdd(acc, ab, bb)
			}
			out[(i-box.ILo)*nj+j-box.JLo] = acc
		}
	}
	return out
}

func sameTiles(t *testing.T, what string, got, want []*matrix.Dense) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tiles, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if (g == nil) != (w == nil) {
			t.Fatalf("%s: tile %d present=%v, want %v", what, i, g != nil, w != nil)
		}
		if w == nil {
			continue
		}
		if gr, gc := g.Dims(); gr != w.RowsN || gc != w.ColsN {
			t.Fatalf("%s: tile %d is %dx%d, want %dx%d", what, i, gr, gc, w.RowsN, w.ColsN)
		}
		for e, v := range w.Data {
			if math.Float64bits(g.Data[e]) != math.Float64bits(v) {
				t.Fatalf("%s: tile %d element %d = %v, the MulAdd chain gives %v", what, i, e, g.Data[e], v)
			}
		}
	}
}

// kindGrid builds a rows×cols block matrix whose block (i,j) has the kind
// kinds[i][j] names: 'd' dense, 'r' CSR, 'c' CSC, any other byte absent.
// Sparse blocks hold the given fraction of entries.
func kindGrid(rng *rand.Rand, rows, cols, blockSize int, density float64, kinds ...string) *bmat.BlockMatrix {
	m := bmat.New(rows, cols, blockSize)
	for i, row := range kinds {
		for j, kind := range []byte(row) {
			r, c := m.BlockDims(i, j)
			switch kind {
			case 'd':
				m.SetBlock(i, j, matrix.RandomDense(rng, r, c))
			case 'r':
				m.SetBlock(i, j, matrix.RandomSparse(rng, r, c, density))
			case 'c':
				m.SetBlock(i, j, matrix.NewCSCFromCSR(matrix.RandomSparse(rng, r, c, density)))
			}
		}
	}
	return m
}

// TestMultiplyBoxMatchesMulAddChain: on ragged-edge grids of dense, CSR,
// CSC and absent blocks, the box kernel — operands packed, transposed and
// converted once per box, tiles fanned out, a tile's accumulator turned
// between layouts as its chain changes kind — has the bits of the
// per-block MulAdd chain at every width, whole or continued over two k
// ranges, and counts the chain's flops.
func TestMultiplyBoxMatchesMulAddChain(t *testing.T) {
	t.Cleanup(func() { matrix.SetKernelWorkers(0) })
	rng := rand.New(rand.NewSource(301))
	// 300×410 · 410×275 in 128-blocks: 3×4 and 4×3 grids, every edge ragged.
	whole := Box{IHi: 3, JHi: 3, KHi: 4}
	grids := []struct {
		name  string
		a, b  *bmat.BlockMatrix
		boxes []Box
	}{
		{
			name: "dense with sparse spots",
			a:    kindGrid(rng, 300, 410, 128, 0.05, "dddd", "ddrd", ".ddd"),
			b:    kindGrid(rng, 410, 275, 128, 0.1, "dd.", "ddd", "ddd", "drd"),
			boxes: []Box{
				whole,
				{ILo: 1, IHi: 3, JLo: 1, JHi: 3, KLo: 1, KHi: 4}, // an interior cuboid
				{ILo: 2, IHi: 3, JLo: 2, JHi: 3, KHi: 4},         // one tile, too small to fan out
				{IHi: 1, JHi: 1, KHi: 4},                         // one tile: the bare kernels split its rows
				{IHi: 3, JHi: 3, KLo: 2, KHi: 2},                 // empty k range
			},
		},
		{
			// GNMF's Wᵀ·V: every A block transposed once, every CSR block
			// of B converted once, the accumulators transposed throughout.
			name:  "dense times sparse",
			a:     kindGrid(rng, 300, 410, 128, 0, "dddd", "dddd", "dddd"),
			b:     kindGrid(rng, 410, 275, 128, 0.05, "rrc", "rcr", "r.r", "crr"),
			boxes: []Box{whole, {ILo: 1, IHi: 2, JHi: 3, KHi: 4}, {ILo: 2, IHi: 3, JLo: 1, JHi: 2, KHi: 4}, {IHi: 1, JHi: 1, KHi: 4}},
		},
		{
			// GNMF's V·Hᵀ.
			name:  "sparse times dense",
			a:     kindGrid(rng, 300, 410, 128, 0.05, "rrrr", "r.rr", "rrrr"),
			b:     kindGrid(rng, 410, 275, 128, 0, "ddd", "ddd", "ddd", "ddd"),
			boxes: []Box{whole, {IHi: 3, JLo: 2, JHi: 3, KHi: 4}},
		},
		{
			// Every pair kind in one chain: the accumulator of a tile goes
			// row-major, transposed and back as k advances.
			name:  "mixed kinds",
			a:     kindGrid(rng, 300, 410, 128, 0.05, "ddrd", "drcd", "cddr"),
			b:     kindGrid(rng, 410, 275, 128, 0.05, "rdc", "drr", "ccd", "rdr"),
			boxes: []Box{whole, {ILo: 1, IHi: 3, JHi: 2, KLo: 1, KHi: 4}},
		},
		{
			// A dense A under PackA's threshold — three rows, or blocks of B
			// with entries for under a quarter of A's columns — is read in
			// place.
			name:  "under the pack threshold",
			a:     kindGrid(rng, 3, 410, 128, 0, "dddd"),
			b:     kindGrid(rng, 410, 275, 128, 0.05, "rrc", "rcr", "r.r", "crr"),
			boxes: []Box{{IHi: 1, JHi: 3, KHi: 4}},
		},
		{
			name:  "sparser than the pack threshold",
			a:     kindGrid(rng, 300, 410, 128, 0, "dddd", "dddd", "dddd"),
			b:     kindGrid(rng, 410, 275, 128, 0.001, "r..", ".c.", "r..", "..r"),
			boxes: []Box{whole},
		},
	}
	for _, g := range grids {
		a, b := g.a, g.b
		for _, box := range g.boxes {
			matrix.SetKernelWorkers(1)
			want := mulAddChain(box, a, b)
			var wantFlops float64
			for i := box.ILo; i < box.IHi; i++ {
				for k := box.KLo; k < box.KHi; k++ {
					for j := box.JLo; j < box.JHi; j++ {
						if ab, bb := a.Block(i, k), b.Block(k, j); ab != nil && bb != nil {
							wantFlops += PairFlops(ab, bb)
						}
					}
				}
			}
			for _, w := range []int{1, 2, 3} {
				matrix.SetKernelWorkers(w)
				got, flops := MultiplyBox(box, a.Block, b.Block, nil)
				sameTiles(t, g.name+": whole k range", got, want)
				if flops != wantFlops {
					t.Fatalf("%s: box %+v: %v flops, the block pairs sum to %v", g.name, box, flops, wantFlops)
				}
				// The gpu streaming order and the resident pipeline's band
				// order: the same tiles continued over two k sub-ranges.
				mid := (box.KLo + box.KHi) / 2
				lo, hi := box, box
				lo.KHi, hi.KLo = mid, mid
				acc, f1 := MultiplyBox(lo, a.Block, b.Block, nil)
				acc, f2 := MultiplyBox(hi, a.Block, b.Block, acc)
				sameTiles(t, g.name+": two k ranges", acc, want)
				if f1+f2 != wantFlops {
					t.Fatalf("%s: box %+v split at k=%d: %v + %v flops, want %v", g.name, box, mid, f1, f2, wantFlops)
				}
			}
		}
	}
}

// TestMultiplyBoxOfReadsViews: an operand read through a transpose has the
// bits and the flops of MultiplyBox over the transposed matrix, at every
// width — a dense A view against sparse B read as it is (GNMF's Wᵀ·V),
// transposed against dense B, in the one-tile path (Wᵀ·W) and under the
// pack threshold; a dense B view under CSR and dense A (V·Hᵀ, H·Hᵀ); sparse
// views on either side.
func TestMultiplyBoxOfReadsViews(t *testing.T) {
	t.Cleanup(func() { matrix.SetKernelWorkers(0) })
	rng := rand.New(rand.NewSource(305))
	whole := Box{IHi: 3, JHi: 3, KHi: 4}
	grids := []struct {
		name  string
		a, b  *bmat.BlockMatrix
		boxes []Box
	}{
		{"dense times sparse", kindGrid(rng, 300, 410, 128, 0, "dddd", "dd.d", "dddd"),
			kindGrid(rng, 410, 275, 128, 0.05, "rrc", "rcr", "r.r", "crr"), []Box{whole, {IHi: 1, JHi: 1, KHi: 4}}},
		{"dense times dense", kindGrid(rng, 300, 410, 128, 0, "dddd", "dddd", "dddd"),
			kindGrid(rng, 410, 275, 128, 0, "ddd", "ddd", "d.d", "ddd"), []Box{whole, {IHi: 1, JHi: 1, KHi: 4}}},
		{"sparse times dense", kindGrid(rng, 300, 410, 128, 0.05, "rrrr", "r.rr", "rcrr"),
			kindGrid(rng, 410, 275, 128, 0, "ddd", "ddd", "ddd", "ddd"), []Box{whole}},
		{"mixed kinds", kindGrid(rng, 300, 410, 128, 0.05, "ddrd", "drcd", "cddr"),
			kindGrid(rng, 410, 275, 128, 0.05, "rdc", "drr", "ccd", "rdr"), []Box{whole, {ILo: 1, IHi: 3, JHi: 2, KLo: 1, KHi: 4}}},
		{"under the pack threshold", kindGrid(rng, 3, 410, 128, 0, "dddd"),
			kindGrid(rng, 410, 275, 128, 0.001, "r..", ".c.", "r..", "..r"), []Box{{IHi: 1, JHi: 3, KHi: 4}}},
	}
	// view is the operand read through a transpose of m's transposed
	// blocks; plain, the same transposes materialized.
	view := func(m *bmat.BlockMatrix) (v Operand, plain func(row, col int) matrix.Block) {
		src := map[bmat.BlockKey]matrix.Block{}
		for i := 0; i < m.IB; i++ {
			for j := 0; j < m.JB; j++ {
				if blk := m.Block(i, j); blk != nil {
					src[bmat.BlockKey{I: j, J: i}] = matrix.Transpose(blk)
				}
			}
		}
		lookup := func(row, col int) matrix.Block { return src[bmat.BlockKey{I: col, J: row}] }
		return Operand{Block: lookup, Transposed: true}, func(row, col int) matrix.Block {
			if blk := lookup(row, col); blk != nil {
				return matrix.Transpose(blk)
			}
			return nil
		}
	}
	for _, g := range grids {
		va, pa := view(g.a)
		vb, pb := view(g.b)
		for _, box := range g.boxes {
			for _, w := range []int{1, 2, 3} {
				matrix.SetKernelWorkers(w)
				for _, c := range []struct {
					name   string
					a, b   Operand
					pa, pb func(row, col int) matrix.Block
				}{
					{"A a view", va, Operand{Block: g.b.Block}, pa, g.b.Block},
					{"B a view", Operand{Block: g.a.Block}, vb, g.a.Block, pb},
					{"both views", va, vb, pa, pb},
				} {
					want, wantFlops := MultiplyBox(box, c.pa, c.pb, nil)
					got, flops := MultiplyBoxOf(box, c.a, c.b, nil)
					what := fmt.Sprintf("%s, %s, box %+v, width %d", g.name, c.name, box, w)
					sameTiles(t, what, got, want)
					if flops != wantFlops {
						t.Fatalf("%s: %v flops, MultiplyBox %v", what, flops, wantFlops)
					}
				}
			}
		}
	}
}

// TestMultiplyColumnMatchesFoldedSlabs: a (p,q) column cut into R slabs has
// the bits of FoldPartials over one MultiplyBox call per slab — what the
// cuboids of MultiplyCuboid hand the fold — for every R up to one slab per
// block, at every width, with the flops of the slabs. In the sparse grid some
// tiles meet no pair in some slab (the first, a middle or the last) or in any:
// a nil partial adds nothing, and a tile stays nil only if every slab left it
// so. At R = 1 the column is MultiplyBox.
func TestMultiplyColumnMatchesFoldedSlabs(t *testing.T) {
	t.Cleanup(func() { matrix.SetKernelWorkers(0) })
	rng := rand.New(rand.NewSource(304))
	// 410×520 · 520×275 in 128-blocks: a 4×5×3 grid, every edge ragged.
	grids := []struct {
		name string
		a, b *bmat.BlockMatrix
	}{
		{"dense×dense", kindGrid(rng, 410, 520, 128, 0, "ddddd", "ddddd", "ddddd", "ddddd"),
			kindGrid(rng, 520, 275, 128, 0, "ddd", "ddd", "ddd", "ddd", "ddd")},
		{"sparse×dense", kindGrid(rng, 410, 520, 128, 0.05, "rr...", "..r.r", ".....", "rrrrr"),
			kindGrid(rng, 520, 275, 128, 0, "ddd", "ddd", "ddd", "d.d", "ddd")},
	}
	boxes := []Box{{IHi: 4, JHi: 3, KHi: 5}, {ILo: 1, IHi: 3, JLo: 1, JHi: 3, KLo: 1, KHi: 5}}
	for _, g := range grids {
		for _, box := range boxes {
			nk := box.KHi - box.KLo
			for _, w := range []int{1, 3} {
				matrix.SetKernelWorkers(w)
				got, flops := MultiplyColumn(box, 1, g.a.Block, g.b.Block)
				want, wantFlops := MultiplyBox(box, g.a.Block, g.b.Block, nil)
				sameTiles(t, g.name+": R = 1", got, want)
				if flops != wantFlops {
					t.Fatalf("%s: R = 1: %v flops, MultiplyBox %v", g.name, flops, wantFlops)
				}
				for R := 2; R <= nk; R++ {
					out := bmat.New(g.a.Rows, g.b.Cols, g.a.BlockSize)
					lists := make([][]Partial, R)
					wantFlops = 0
					for r := range lists {
						slab := box
						lo, hi := GridSpan(r, nk, R)
						slab.KLo, slab.KHi = box.KLo+lo, box.KLo+hi
						if s := box.Slab(r, R); s != slab {
							t.Fatalf("box %+v: Slab(%d, %d) = %+v, the GridSpan cut %+v", box, r, R, s, slab)
						}
						tiles, f := MultiplyBox(slab, g.a.Block, g.b.Block, nil)
						lists[r] = slab.Partials(tiles)
						wantFlops += f
					}
					FoldPartials(out, lists, nil)
					want := make([]*matrix.Dense, (box.IHi-box.ILo)*(box.JHi-box.JLo))
					for tile := range want {
						key := box.TileKey(tile)
						want[tile], _ = out.Block(key.I, key.J).(*matrix.Dense)
					}
					got, flops := MultiplyColumn(box, R, g.a.Block, g.b.Block)
					sameTiles(t, fmt.Sprintf("%s: box %+v, R = %d, width %d", g.name, box, R, w), got, want)
					if flops != wantFlops {
						t.Fatalf("%s: R = %d: %v flops, the slabs sum to %v", g.name, R, flops, wantFlops)
					}
				}
			}
		}
	}
}

// TestMultiplyBoxPanicSurfacesOnCaller: a bad block pair inside a fanned-out
// tile panics on the goroutine that called MultiplyBox, where the cluster's
// task wrapper can turn it into a task error.
func TestMultiplyBoxPanicSurfacesOnCaller(t *testing.T) {
	matrix.SetKernelWorkers(3)
	t.Cleanup(func() { matrix.SetKernelWorkers(0) })
	rng := rand.New(rand.NewSource(302))
	a := bmat.RandomDense(rng, 256, 256, 128)
	b := bmat.RandomDense(rng, 256, 256, 128)
	bad := matrix.RandomDense(rng, 100, 128) // wrong inner dimension
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mismatched block pair did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "dimension mismatch") {
			t.Fatalf("panic value %v", r)
		}
	}()
	MultiplyBox(Box{IHi: 2, JHi: 2, KHi: 2}, a.Block, func(k, j int) matrix.Block {
		if k == 1 && j == 1 {
			return bad
		}
		return b.Block(k, j)
	}, nil)
}

// TestMultiplyBoxOneTileFuses: a one-tile box's row split runs the fused
// dense kernel. Every element of C sees one k step with a non-zero A, 1+2⁻³⁰
// against a B of 1−2⁻³⁰, into a C pre-filled with −1: a fused multiply-add
// keeps the exact −2⁻⁶⁰ where separate rounding would leave 0. The 135 rows
// end, under the 8×8 tile, in a 4-row tile and three scalar rows; the 131
// columns in a remainder. Width 3 takes the row split, width 1 the tile.
func TestMultiplyBoxOneTileFuses(t *testing.T) {
	t.Cleanup(func() { matrix.SetKernelWorkers(0) })
	const m, n, nk, kb = 135, 131, 4, 64
	as := make([]*matrix.Dense, nk)
	bs := make([]*matrix.Dense, nk)
	for k := range as {
		as[k], bs[k] = matrix.NewDense(m, kb), matrix.NewDense(kb, n)
		for i := range bs[k].Data {
			bs[k].Data[i] = 1 - 0x1p-30
		}
	}
	for i := 0; i < m; i++ {
		p := i * 37 % (nk * kb)
		as[p/kb].Set(i, p%kb, 1+0x1p-30)
	}
	box := Box{IHi: 1, JHi: 1, KHi: nk}
	lookupA := func(_, k int) matrix.Block { return as[k] }
	lookupB := func(k, _ int) matrix.Block { return bs[k] }
	for _, w := range []int{1, 3} {
		matrix.SetKernelWorkers(w)
		c := matrix.NewDense(m, n)
		for i := range c.Data {
			c.Data[i] = -1
		}
		got, _ := MultiplyBox(box, lookupA, lookupB, []*matrix.Dense{c})
		for i, v := range got[0].Data {
			if math.Float64bits(v) != math.Float64bits(-0x1p-60) {
				t.Fatalf("%s kernel at %d workers: C[%d][%d] = %v, a fused multiply-add gives %v",
					matrix.KernelName(), w, i/n, i%n, v, -0x1p-60)
			}
		}
	}
}

// TestMultiplyBoxOneTileWidths: a box whose output is one tile splits that
// tile's rows over the kernel workers. Dense chains of every row count
// around the 4-row tile — with a pair missing mid-chain, continued over two
// k ranges — and a chain with one sparse pair in it, which keeps the bare
// kernels, have the bits of the matrix.MulAdd chain at every width.
func TestMultiplyBoxOneTileWidths(t *testing.T) {
	t.Cleanup(func() { matrix.SetKernelWorkers(0) })
	rng := rand.New(rand.NewSource(303))
	const nk, kb, n = 24, 256, 132 // 132 columns: sixteen full panels and a remainder
	box := Box{IHi: 1, JHi: 1, KHi: nk}
	b := bmat.RandomDense(rng, nk*kb, n, kb)
	for _, m := range []int{3, 8, 100, 128, 130} {
		a := bmat.RandomDense(rng, m, nk*kb, kb)
		sparse := matrix.RandomSparse(rng, kb, n, 0.05)
		chains := []struct {
			name             string
			lookupA, lookupB func(i, j int) matrix.Block
		}{
			{"dense", a.Block, b.Block},
			{"dense with gaps", func(i, k int) matrix.Block {
				if k == 5 {
					return nil
				}
				return a.Block(i, k)
			}, func(k, j int) matrix.Block {
				if k == 0 || k == 9 {
					return nil
				}
				return b.Block(k, j)
			}},
			{"one sparse pair", a.Block, func(k, j int) matrix.Block {
				if k == 3 {
					return sparse
				}
				return b.Block(k, j)
			}},
		}
		for _, c := range chains {
			matrix.SetKernelWorkers(1)
			var want *matrix.Dense
			for k := 0; k < nk; k++ {
				if ab, bb := c.lookupA(0, k), c.lookupB(k, 0); ab != nil && bb != nil {
					want = matrix.MulAdd(want, ab, bb)
				}
			}
			// 0 is GOMAXPROCS, which make test sets to 1 and to 4 (-cpu).
			for _, w := range []int{1, 2, 3, 8, 0} {
				matrix.SetKernelWorkers(w)
				got, _ := MultiplyBox(box, c.lookupA, c.lookupB, nil)
				sameTiles(t, c.name+": whole chain", got, []*matrix.Dense{want})
				lo, hi := box, box
				lo.KHi, hi.KLo = nk/2, nk/2
				acc, _ := MultiplyBox(lo, c.lookupA, c.lookupB, nil)
				acc, _ = MultiplyBox(hi, c.lookupA, c.lookupB, acc)
				sameTiles(t, c.name+": continued", acc, []*matrix.Dense{want})
			}
		}
	}

	// A bad pair panics inside a row chunk; the caller sees it.
	matrix.SetKernelWorkers(3)
	a := bmat.RandomDense(rng, 128, nk*kb, kb)
	bad := matrix.RandomDense(rng, 200, n) // wrong inner dimension
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "dimension mismatch") {
			t.Fatalf("mismatched pair in a one-tile chain: recovered %v", r)
		}
	}()
	MultiplyBox(box, a.Block, func(k, j int) matrix.Block {
		if k == 2 {
			return bad
		}
		return b.Block(k, j)
	}, nil)
}
