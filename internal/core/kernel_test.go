package core

import (
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

// TestMultiplyBoxMatchesMulAddChain: on a ragged-edge grid with dense,
// sparse and absent blocks, the box kernel — packed B, tiles fanned out —
// has the bits of the per-block MulAdd chain at every width, whole or
// continued over two k ranges, and counts the chain's flops.
func TestMultiplyBoxMatchesMulAddChain(t *testing.T) {
	t.Cleanup(func() { matrix.SetKernelWorkers(0) })
	rng := rand.New(rand.NewSource(301))
	// 300×410 · 410×275 in 128-blocks: 3×4 and 4×3 grids, every edge ragged.
	a := bmat.RandomDense(rng, 300, 410, 128)
	b := bmat.RandomDense(rng, 410, 275, 128)
	r, c := a.BlockDims(1, 2)
	a.SetBlock(1, 2, matrix.RandomSparse(rng, r, c, 0.05))
	a.SetBlock(2, 0, nil)
	r, c = b.BlockDims(3, 1)
	b.SetBlock(3, 1, matrix.RandomSparse(rng, r, c, 0.1))
	b.SetBlock(0, 2, nil)

	boxes := []Box{
		{IHi: 3, JHi: 3, KHi: 4},                         // the whole product
		{ILo: 1, IHi: 3, JLo: 1, JHi: 3, KLo: 1, KHi: 4}, // an interior cuboid
		{ILo: 2, IHi: 3, JLo: 2, JHi: 3, KHi: 4},         // one tile: the bare kernels
		{IHi: 3, JHi: 3, KLo: 2, KHi: 2},                 // empty k range
	}
	for _, box := range boxes {
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
			sameTiles(t, "whole k range", got, want)
			if flops != wantFlops {
				t.Fatalf("box %+v: %v flops, the block pairs sum to %v", box, flops, wantFlops)
			}
			// The gpu streaming order: the same tiles continued over two k
			// sub-ranges.
			mid := (box.KLo + box.KHi) / 2
			lo, hi := box, box
			lo.KHi, hi.KLo = mid, mid
			acc, f1 := MultiplyBox(lo, a.Block, b.Block, nil)
			acc, f2 := MultiplyBox(hi, a.Block, b.Block, acc)
			sameTiles(t, "two k ranges", acc, want)
			if f1+f2 != wantFlops {
				t.Fatalf("box %+v split at k=%d: %v + %v flops, want %v", box, mid, f1, f2, wantFlops)
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
