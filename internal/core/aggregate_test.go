package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// makeBlockPartials fabricates per-cuboid partial lists over a gridI×gridJ
// output with the given block size: every cuboid contributes a random
// subset of keys, so keys overlap across cuboids like an R>1 partitioning.
func makeBlockPartials(rng *rand.Rand, cuboids, gridI, gridJ, bs int) [][]Partial {
	partials := make([][]Partial, cuboids)
	for t := 0; t < cuboids; t++ {
		part := []Partial{}
		for i := 0; i < gridI; i++ {
			for j := 0; j < gridJ; j++ {
				if rng.Intn(3) == 0 {
					continue
				}
				part = append(part, Partial{Key: bmat.BlockKey{I: i, J: j}, Block: matrix.RandomDense(rng, bs, bs)})
			}
		}
		partials[t] = part
	}
	// A nil and an empty list exercise the skip paths.
	if cuboids > 2 {
		partials[cuboids-1] = nil
		partials[cuboids-2] = []Partial{}
	}
	return partials
}

// makeVoxelPartials fabricates RMM-shaped lists: a task holds several k of
// one (i,j), so keys repeat inside a list as well as across lists.
func makeVoxelPartials(rng *rand.Rand, tasks, gridI, gridJ, gridK, bs int) [][]Partial {
	partials := make([][]Partial, tasks)
	for t := 0; t < tasks; t++ {
		for i := 0; i < gridI; i++ {
			for j := 0; j < gridJ; j++ {
				for k := 0; k < gridK; k++ {
					if rng.Intn(4) != 0 {
						continue
					}
					partials[t] = append(partials[t], Partial{Key: bmat.BlockKey{I: i, J: j}, Block: matrix.RandomDense(rng, bs, bs)})
				}
			}
		}
	}
	return partials
}

// clonePartials deep-copies partial lists so the folds under comparison
// consume independent accumulators (the fold mutates blocks in place).
func clonePartials(src [][]Partial) [][]Partial {
	out := make([][]Partial, len(src))
	for t, part := range src {
		for _, p := range part {
			out[t] = append(out[t], Partial{Key: p.Key, Block: p.Block.Clone()})
		}
	}
	return out
}

// checkFoldWidthInvariance: the fold must produce byte-identical outputs and
// identical shuffle byte counts at every width, the sequential one included.
func checkFoldWidthInvariance(t *testing.T, src [][]Partial, rows, cols, bs int, sizeOf func(*matrix.Dense) int64, widths []int) {
	t.Helper()
	seqOut := bmat.New(rows, cols, bs)
	seqBytes := foldPartials(seqOut, clonePartials(src), sizeOf, 1)
	for _, workers := range widths {
		parOut := bmat.New(rows, cols, bs)
		parBytes := foldPartials(parOut, clonePartials(src), sizeOf, workers)
		if parBytes != seqBytes {
			t.Errorf("workers=%d: aggregation bytes %d != sequential %d", workers, parBytes, seqBytes)
		}
		matricesBitIdentical(t, seqOut, parOut)
	}
}

// matricesBitIdentical compares every stored block of two block matrices
// for exact equality (format and bits).
func matricesBitIdentical(t *testing.T, a, b *bmat.BlockMatrix) {
	t.Helper()
	if a.NumBlocks() != b.NumBlocks() {
		t.Fatalf("block counts differ: %d vs %d", a.NumBlocks(), b.NumBlocks())
	}
	for _, key := range a.Keys() {
		ba := a.Block(key.I, key.J)
		bb := b.Block(key.I, key.J)
		if bb == nil {
			t.Fatalf("block %v missing in second matrix", key)
		}
		da, ok1 := ba.(*matrix.Dense)
		db, ok2 := bb.(*matrix.Dense)
		if ok1 != ok2 {
			t.Fatalf("block %v formats differ", key)
		}
		if ok1 {
			if !da.Equal(db) {
				t.Fatalf("block %v bits differ", key)
			}
			continue
		}
		if !ba.Dense().Equal(bb.Dense()) {
			t.Fatalf("block %v values differ", key)
		}
	}
}

// The two shapes of input the one fold sees — a cuboid's list holds each key
// once, an RMM task's list repeats them — at every width.
func TestAggregateBlockPartialsWorkerInvariance(t *testing.T) {
	src := makeBlockPartials(rand.New(rand.NewSource(200)), 7, 4, 3, 8)
	checkFoldWidthInvariance(t, src, 32, 24, 8, compactSizeBytes, []int{2, 3, 4, 8, 64})
}

func TestAggregateVoxelPartialsWorkerInvariance(t *testing.T) {
	src := makeVoxelPartials(rand.New(rand.NewSource(201)), 6, 3, 3, 4, 5)
	checkFoldWidthInvariance(t, src, 15, 15, 5, (*matrix.Dense).SizeBytes, []int{2, 4, 16})
}

func TestAggregateBlockPartialsEmptyAndNil(t *testing.T) {
	out := bmat.New(8, 8, 4)
	if n := foldPartials(out, nil, nil, 4); n != 0 {
		t.Fatalf("empty partials charged %d bytes", n)
	}
	if n := foldPartials(out, [][]Partial{nil, {}}, nil, 4); n != 0 {
		t.Fatalf("nil/empty lists charged %d bytes", n)
	}
	if out.NumBlocks() != 0 {
		t.Fatal("no blocks expected")
	}
}

// TestMultiplyCuboidAggregationWorkerInvariance runs the full pipeline at
// R>1 with sequential and parallel aggregation (the fold's width follows
// GOMAXPROCS) and requires byte-identical
// output matrices and identical recorded aggregation bytes — dense and
// sparse inputs, fixed seeds.
func TestMultiplyCuboidAggregationWorkerInvariance(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		rng := rand.New(rand.NewSource(202))
		var a, b *bmat.BlockMatrix
		if sparse {
			a = bmat.RandomSparse(rng, 24, 18, 3, 0.3)
			b = bmat.RandomSparse(rng, 18, 12, 3, 0.3)
		} else {
			a = bmat.RandomDense(rng, 24, 18, 3)
			b = bmat.RandomDense(rng, 18, 12, 3)
		}
		params := Params{P: 2, Q: 2, R: 3} // R>1 ⇒ overlapping partials
		run := func(workers int) *bmat.BlockMatrix {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			out, err := MultiplyCuboid(context.Background(), a, b, params, testEnv(t))
			if err != nil {
				t.Fatalf("sparse=%v workers=%d: %v", sparse, workers, err)
			}
			return out
		}
		seq := run(1)
		for _, workers := range []int{2, 4, 8} {
			matricesBitIdentical(t, seq, run(workers))
		}
	}
}

func TestMultiplyRMMAggregationWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	a := bmat.RandomDense(rng, 12, 12, 3)
	b := bmat.RandomDense(rng, 12, 12, 3)
	run := func(workers int) *bmat.BlockMatrix {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		out, err := MultiplyRMM(context.Background(), a, b, 0, testEnv(t))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	seq := run(1)
	for _, workers := range []int{2, 4, 8} {
		matricesBitIdentical(t, seq, run(workers))
	}
}

// TestAggregationReleasesMergedPartials: merged-away partials must return
// their buffers to the dense pool (the whole point of the release points).
func TestAggregationReleasesMergedPartials(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	partials := make([][]Partial, 4)
	for i := range partials {
		// Same key everywhere: 3 of the 4 blocks must be released.
		acc := matrix.MulAdd(nil, matrix.RandomDense(rng, 16, 16), matrix.RandomDense(rng, 16, 16))
		partials[i] = []Partial{{Block: acc}}
	}
	before := matrix.DensePoolStats()
	out := bmat.New(16, 16, 16)
	foldPartials(out, partials, nil, 2)
	after := matrix.DensePoolStats()
	if after.Puts-before.Puts < 3 {
		t.Fatalf("expected ≥3 pool releases, got %d", after.Puts-before.Puts)
	}
}
