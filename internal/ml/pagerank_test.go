package ml

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"distme/internal/bmat"
	"distme/internal/matrix"
	"distme/internal/plan"
)

// chainGraph builds 0→1→…→n−1 (node n−1 dangling).
func chainGraph(n, bs int) *bmat.BlockMatrix {
	adj := bmat.New(n, n, bs)
	for i := 0; i+1 < n; i++ {
		bi, bj := i/bs, (i+1)/bs
		blk := adj.Block(bi, bj)
		var d *matrix.Dense
		if blk == nil {
			r, c := adj.BlockDims(bi, bj)
			d = matrix.NewDense(r, c)
		} else {
			d = blk.(*matrix.Dense)
		}
		d.Set(i%bs, (i+1)%bs, 1)
		adj.SetBlock(bi, bj, d)
	}
	return adj
}

func TestPageRankSumsToOne(t *testing.T) {
	e := testEngine(t)
	adj := chainGraph(12, 4)
	res, err := PageRank(context.Background(), e, adj, PageRankOptions{MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < 12; i++ {
		v := res.Ranks.At(i, 0)
		if v < 0 {
			t.Fatalf("negative rank at %d: %g", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %g, want 1", sum)
	}
}

func TestPageRankCycleUniform(t *testing.T) {
	// On a directed cycle every node must have identical rank 1/n.
	e := testEngine(t)
	n, bs := 9, 3
	adj := chainGraph(n, bs)
	// close the cycle: n−1 → 0
	bi := (n - 1) / bs
	blk := adj.Block(bi, 0)
	var d *matrix.Dense
	if blk == nil {
		r, c := adj.BlockDims(bi, 0)
		d = matrix.NewDense(r, c)
	} else {
		d = blk.(*matrix.Dense)
	}
	d.Set((n-1)%bs, 0, 1)
	adj.SetBlock(bi, 0, d)

	res, err := PageRank(context.Background(), e, adj, PageRankOptions{MaxIterations: 100, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		if math.Abs(res.Ranks.At(i, 0)-want) > 1e-9 {
			t.Fatalf("cycle rank[%d] = %g, want %g", i, res.Ranks.At(i, 0), want)
		}
	}
}

func TestPageRankHubGetsMost(t *testing.T) {
	// Star pointing into node 0: node 0 must outrank all others.
	e := testEngine(t)
	n, bs := 10, 5
	adj := bmat.New(n, n, bs)
	for bi := 0; bi < adj.IB; bi++ {
		r, c := adj.BlockDims(bi, 0)
		d := matrix.NewDense(r, c)
		for i := 0; i < r; i++ {
			if bi*bs+i != 0 {
				d.Set(i, 0, 1) // i → 0
			}
		}
		adj.SetBlock(bi, 0, d)
	}
	res, err := PageRank(context.Background(), e, adj, PageRankOptions{MaxIterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	hub := res.Ranks.At(0, 0)
	for i := 1; i < n; i++ {
		if res.Ranks.At(i, 0) >= hub {
			t.Fatalf("leaf %d (%g) outranks hub (%g)", i, res.Ranks.At(i, 0), hub)
		}
	}
}

func TestPageRankConverges(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(150))
	adj := bmat.RandomSparse(rng, 24, 24, 6, 0.15)
	res, err := PageRank(context.Background(), e, adj, PageRankOptions{MaxIterations: 200, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta > 1e-10 {
		t.Fatalf("did not converge: delta %g after %d iterations", res.Delta, res.Iterations)
	}
	if res.Iterations >= 200 {
		t.Fatal("hit the iteration cap")
	}
}

func TestPageRankRejectsNonSquare(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(151))
	if _, err := PageRank(context.Background(), e, bmat.RandomSparse(rng, 4, 6, 2, 0.5), PageRankOptions{}); err == nil {
		t.Fatal("non-square adjacency accepted")
	}
}

func TestGNMFPlannedMatchesDirect(t *testing.T) {
	v := ratingMatrix(t, 160, 20, 16)
	direct, err := GNMF(context.Background(), testEngine(t), v, GNMFOptions{Rank: 4, Iterations: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	planned, err := GNMFPlanned(context.Background(), testEngine(t), v, GNMFOptions{Rank: 4, Iterations: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !planned.W.ToDense().EqualApprox(direct.W.ToDense(), 1e-9) {
		t.Fatal("planned W diverges from direct")
	}
	if !planned.H.ToDense().EqualApprox(direct.H.ToDense(), 1e-9) {
		t.Fatal("planned H diverges from direct")
	}
}

func TestGNMFPlansShareTransposes(t *testing.T) {
	hPlan, err := plan.Compile(GNMFHExpr())
	if err != nil {
		t.Fatal(err)
	}
	wPlan, err := plan.Compile(GNMFWExpr())
	if err != nil {
		t.Fatal(err)
	}
	if hPlan.SharedNodes() == 0 {
		t.Fatal("H update plan should share Wᵀ")
	}
	if wPlan.SharedNodes() == 0 {
		t.Fatal("W update plan should share Hᵀ")
	}
}

func TestGNMFPlannedObjectiveDecreases(t *testing.T) {
	v := ratingMatrix(t, 161, 18, 18)
	res, err := GNMFPlanned(context.Background(), testEngine(t), v, GNMFOptions{Rank: 3, Iterations: 5, Seed: 4, TrackObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Objectives); i++ {
		if res.Objectives[i] > res.Objectives[i-1]*(1+1e-9) {
			t.Fatalf("objective increased at %d", i)
		}
	}
}

func TestGNMFPlannedInvalidOptions(t *testing.T) {
	v := ratingMatrix(t, 162, 8, 8)
	if _, err := GNMFPlanned(context.Background(), testEngine(t), v, GNMFOptions{Rank: 0, Iterations: 1}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := GNMFPlanned(context.Background(), testEngine(t), v, GNMFOptions{Rank: 2, Iterations: 0}); err == nil {
		t.Fatal("0 iterations accepted")
	}
}
