package core

import (
	"context"
	"math/rand"
	"testing"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// makeBlockPartials fabricates per-cuboid partial maps over a gridI×gridJ
// output with the given block size: every cuboid contributes a random
// subset of keys, so keys overlap across cuboids like an R>1 partitioning.
func makeBlockPartials(rng *rand.Rand, cuboids, gridI, gridJ, bs int) []map[bmat.BlockKey]*matrix.Dense {
	partials := make([]map[bmat.BlockKey]*matrix.Dense, cuboids)
	for t := 0; t < cuboids; t++ {
		part := make(map[bmat.BlockKey]*matrix.Dense)
		for i := 0; i < gridI; i++ {
			for j := 0; j < gridJ; j++ {
				if rng.Intn(3) == 0 {
					continue
				}
				part[bmat.BlockKey{I: i, J: j}] = matrix.RandomDense(rng, bs, bs)
			}
		}
		partials[t] = part
	}
	// A nil and an empty map exercise the skip paths.
	if cuboids > 2 {
		partials[cuboids-1] = nil
		partials[cuboids-2] = map[bmat.BlockKey]*matrix.Dense{}
	}
	return partials
}

// clonePartials deep-copies partial maps so sequential and parallel merges
// consume independent accumulators (the merge mutates blocks in place).
func clonePartials(src []map[bmat.BlockKey]*matrix.Dense) []map[bmat.BlockKey]*matrix.Dense {
	out := make([]map[bmat.BlockKey]*matrix.Dense, len(src))
	for t, part := range src {
		if part == nil {
			continue
		}
		cp := make(map[bmat.BlockKey]*matrix.Dense, len(part))
		for k, v := range part {
			cp[k] = v.Clone()
		}
		out[t] = cp
	}
	return out
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

// TestAggregateBlockPartialsWorkerInvariance: the sharded parallel merge
// must produce byte-identical outputs and identical shuffle byte counts to
// the sequential merge, for every worker count.
func TestAggregateBlockPartialsWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	src := makeBlockPartials(rng, 7, 4, 3, 8)

	seqOut := bmat.New(32, 24, 8)
	seqBytes := aggregateBlockPartials(seqOut, clonePartials(src), 1, compactSizeBytes)
	for _, workers := range []int{2, 3, 4, 8, 64} {
		parOut := bmat.New(32, 24, 8)
		parBytes := aggregateBlockPartials(parOut, clonePartials(src), workers, compactSizeBytes)
		if parBytes != seqBytes {
			t.Errorf("workers=%d: aggregation bytes %d != sequential %d", workers, parBytes, seqBytes)
		}
		matricesBitIdentical(t, seqOut, parOut)
	}
}

func TestAggregateBlockPartialsEmptyAndNil(t *testing.T) {
	out := bmat.New(8, 8, 4)
	if n := aggregateBlockPartials(out, nil, 4, nil); n != 0 {
		t.Fatalf("empty partials charged %d bytes", n)
	}
	if n := aggregateBlockPartials(out, []map[bmat.BlockKey]*matrix.Dense{nil, {}}, 4, nil); n != 0 {
		t.Fatalf("nil/empty maps charged %d bytes", n)
	}
	if out.NumBlocks() != 0 {
		t.Fatal("no blocks expected")
	}
}

func makeVoxelPartials(rng *rand.Rand, tasks, gridI, gridJ, gridK, bs int) []map[bmat.VoxelKey]*matrix.Dense {
	partials := make([]map[bmat.VoxelKey]*matrix.Dense, tasks)
	for t := 0; t < tasks; t++ {
		part := make(map[bmat.VoxelKey]*matrix.Dense)
		for i := 0; i < gridI; i++ {
			for j := 0; j < gridJ; j++ {
				for k := 0; k < gridK; k++ {
					if rng.Intn(4) != 0 {
						continue
					}
					part[bmat.VoxelKey{I: i, J: j, K: k}] = matrix.RandomDense(rng, bs, bs)
				}
			}
		}
		partials[t] = part
	}
	return partials
}

func cloneVoxelPartials(src []map[bmat.VoxelKey]*matrix.Dense) []map[bmat.VoxelKey]*matrix.Dense {
	out := make([]map[bmat.VoxelKey]*matrix.Dense, len(src))
	for t, part := range src {
		if part == nil {
			continue
		}
		cp := make(map[bmat.VoxelKey]*matrix.Dense, len(part))
		for k, v := range part {
			cp[k] = v.Clone()
		}
		out[t] = cp
	}
	return out
}

func TestAggregateVoxelPartialsWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	src := makeVoxelPartials(rng, 6, 3, 3, 4, 5)

	seqOut := bmat.New(15, 15, 5)
	seqBytes := aggregateVoxelPartials(seqOut, cloneVoxelPartials(src), 1)
	for _, workers := range []int{2, 4, 16} {
		parOut := bmat.New(15, 15, 5)
		parBytes := aggregateVoxelPartials(parOut, cloneVoxelPartials(src), workers)
		if parBytes != seqBytes {
			t.Errorf("workers=%d: aggregation bytes %d != sequential %d", workers, parBytes, seqBytes)
		}
		matricesBitIdentical(t, seqOut, parOut)
	}
}

// TestMultiplyCuboidAggregationWorkerInvariance runs the full pipeline at
// R>1 with sequential and parallel aggregation and requires byte-identical
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
			env := testEnv(t)
			env.AggregationWorkers = workers
			out, err := MultiplyCuboid(context.Background(), a, b, params, env)
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
		env := testEnv(t)
		env.AggregationWorkers = workers
		out, err := MultiplyRMM(context.Background(), a, b, 0, env)
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
	partials := make([]map[bmat.BlockKey]*matrix.Dense, 4)
	for i := range partials {
		// Same key everywhere: 3 of the 4 blocks must be released.
		acc := matrix.MulAdd(nil, matrix.RandomDense(rng, 16, 16), matrix.RandomDense(rng, 16, 16))
		partials[i] = map[bmat.BlockKey]*matrix.Dense{{I: 0, J: 0}: acc}
	}
	before := matrix.DensePoolStats()
	out := bmat.New(16, 16, 16)
	aggregateBlockPartials(out, partials, 2, nil)
	after := matrix.DensePoolStats()
	if after.Puts-before.Puts < 3 {
		t.Fatalf("expected ≥3 pool releases, got %d", after.Puts-before.Puts)
	}
}
