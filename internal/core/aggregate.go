package core

import (
	"runtime"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// Partial is one partial C block as a task hands it to the aggregation
// step: the output position it belongs to and its accumulator.
type Partial struct {
	Key   bmat.BlockKey
	Block *matrix.Dense
}

// FoldPartials is the matrix-aggregation step: lists holds each task's
// partials in plan order, and every block of out — empty on entry — becomes
// the sum of its partials in that order — list by list, and within a list in
// the order written (an RMM task holds several k of one block) — so r, and
// with it k, ascends in every block on every plane. sizeOf, when not nil, is
// charged once per partial and the total returned: the aggregation-shuffle
// byte count.
//
// The first partial of a key becomes the output block and the rest are added
// into it by foldInto — the add rule FoldSlab sums a (p,q) column's slabs
// by — on the one goroutine that owns the key (nothing else reads a partial:
// each is visited once, by its key's owner). Keys fan out over up to
// GOMAXPROCS goroutines; the bits are the same at any width. With R = 1 no
// key repeats and nothing is charged: the fold is placement only, and no
// goroutine is started.
func FoldPartials(out *bmat.BlockMatrix, lists [][]Partial, sizeOf func(*matrix.Dense) int64) int64 {
	return foldPartials(out, lists, sizeOf, runtime.GOMAXPROCS(0))
}

// foldPartials is FoldPartials at an explicit width.
func foldPartials(out *bmat.BlockMatrix, lists [][]Partial, sizeOf func(*matrix.Dense) int64, workers int) int64 {
	// A chain is one key with work left after placement: partials to add, a
	// charge to take, or both.
	type chain struct {
		acc   *matrix.Dense
		rest  []*matrix.Dense
		bytes int64
	}
	var chains []chain
	var index map[bmat.BlockKey]int
	for _, list := range lists {
		for _, p := range list {
			acc, _ := out.Block(p.Key.I, p.Key.J).(*matrix.Dense)
			first := acc == nil
			if first {
				out.SetBlock(p.Key.I, p.Key.J, p.Block)
				if sizeOf == nil {
					continue
				}
				acc = p.Block
			}
			c, ok := index[p.Key]
			if !ok {
				if index == nil {
					index = make(map[bmat.BlockKey]int)
				}
				c = len(chains)
				index[p.Key] = c
				chains = append(chains, chain{acc: acc})
			}
			if !first {
				chains[c].rest = append(chains[c].rest, p.Block)
			}
		}
	}
	parallelFor(len(chains), workers, func(c int) {
		ch := &chains[c]
		if sizeOf != nil {
			ch.bytes = sizeOf(ch.acc)
		}
		for _, d := range ch.rest {
			if sizeOf != nil {
				ch.bytes += sizeOf(d)
			}
			ch.acc = foldInto(ch.acc, d)
		}
	})
	var bytes int64
	for c := range chains {
		bytes += chains[c].bytes
	}
	return bytes
}

// foldInto is the rule every partial product is summed by, FoldPartials'
// chains and FoldSlab's slabs alike: the first partial of a block
// becomes the block, and each later one is added into it and released to the
// dense pool. A nil partial — a tile no block pair met — adds nothing.
func foldInto(acc, d *matrix.Dense) *matrix.Dense {
	switch {
	case d == nil:
		return acc
	case acc == nil:
		return d
	}
	matrix.AddInto(acc, d)
	matrix.PutDense(d)
	return acc
}
