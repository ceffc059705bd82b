package ml

import (
	"context"
	"fmt"
	"math"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// PageRankOptions configures the power iteration.
type PageRankOptions struct {
	// Damping is the teleport factor (0.85 conventionally).
	Damping float64
	// MaxIterations bounds the power iteration.
	MaxIterations int
	// Tolerance stops early when the L1 change falls below it.
	Tolerance float64
}

// PageRankResult carries the ranks and convergence facts.
type PageRankResult struct {
	// Ranks is the n×1 rank vector, summing to 1.
	Ranks *bmat.BlockMatrix
	// Iterations actually performed.
	Iterations int
	// Delta is the final L1 change.
	Delta float64
}

// PageRank runs the classical power iteration r ← d·Mᵀr + (1−d)/n over a
// (sparse) adjacency matrix through the engine's distributed multiply —
// one of the intro's motivating linear-algebra applications (betweenness /
// centrality computations), exercising the sparse×dense local kernels on a
// tall-thin product shape.
//
// adj is the n×n adjacency matrix (adj[i][j] ≠ 0 for an edge i→j). Rows
// with no outgoing edges distribute uniformly (dangling-node handling).
func PageRank(ctx context.Context, ops Ops, adj *bmat.BlockMatrix, opt PageRankOptions) (*PageRankResult, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("ml: PageRank: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
	}
	if opt.Damping <= 0 || opt.Damping >= 1 {
		opt.Damping = 0.85
	}
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 50
	}
	if opt.Tolerance <= 0 {
		opt.Tolerance = 1e-9
	}
	n := adj.Rows

	// Column-stochastic transition matrix Mᵀ built once: M[i][j] = 1/deg(i)
	// for each edge i→j, so (Mᵀ·r)[j] = Σ_i r[i]/deg(i).
	mt, dangling := transitionTranspose(adj)

	// Uniform start.
	r := bmat.New(n, 1, adj.BlockSize)
	fillColumn(r, 1/float64(n))

	res := &PageRankResult{}
	for it := 0; it < opt.MaxIterations; it++ {
		spread, err := ops.Multiply(ctx, mt, r)
		if err != nil {
			return nil, fmt.Errorf("ml: PageRank iteration %d: %w", it, err)
		}
		var delta float64
		r, delta = pagerankStep(spread, r, dangling, opt.Damping)
		res.Iterations = it + 1
		res.Delta = delta
		if delta < opt.Tolerance {
			break
		}
	}
	res.Ranks = r
	return res, nil
}

// pagerankStep folds one spread vector (Mᵀ·r) into the next rank vector:
// dangling mass redistributes uniformly, teleport adds (1−d)/n. It returns
// the next vector and the L1 change — the identical arithmetic for the
// driver-materialized and handle-resident iterations, so both variants
// produce byte-identical ranks.
func pagerankStep(spread, r *bmat.BlockMatrix, dangling []bool, damping float64) (*bmat.BlockMatrix, float64) {
	n := r.Rows
	var danglingMass float64
	for i := 0; i < n; i++ {
		if dangling[i] {
			danglingMass += r.At(i, 0)
		}
	}
	base := (1-damping)/float64(n) + damping*danglingMass/float64(n)
	next := bmat.New(n, 1, r.BlockSize)
	var delta float64
	for bi := 0; bi < next.IB; bi++ {
		rows, _ := next.BlockDims(bi, 0)
		blk := matrix.NewDense(rows, 1)
		var nonzero bool
		for i := 0; i < rows; i++ {
			gi := bi*next.BlockSize + i
			var sv float64
			if sb := spread.Block(bi, 0); sb != nil {
				sv = sb.At(i, 0)
			}
			v := base + damping*sv
			blk.Set(i, 0, v)
			nonzero = nonzero || v != 0
			delta += math.Abs(v - r.At(gi, 0))
		}
		if nonzero {
			next.SetBlock(bi, 0, blk)
		}
	}
	return next, delta
}

// transitionTranspose builds Mᵀ (column-stochastic in M's orientation) as a
// block matrix of CSR blocks, plus the dangling-row mask.
func transitionTranspose(adj *bmat.BlockMatrix) (*bmat.BlockMatrix, []bool) {
	n := adj.Rows
	deg := make([]float64, n)
	dangling := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if adj.At(i, j) != 0 {
				deg[i]++
			}
		}
	}
	for i := range deg {
		if deg[i] == 0 {
			dangling[i] = true
		}
	}
	mt := bmat.New(n, n, adj.BlockSize)
	// Build per-block triplets for Mᵀ: entry (j, i) = 1/deg(i) per edge i→j.
	type trip struct {
		r, c int
		v    float64
	}
	buckets := make(map[bmat.BlockKey][]trip)
	bs := adj.BlockSize
	for i := 0; i < n; i++ {
		if deg[i] == 0 {
			continue
		}
		w := 1 / deg[i]
		for j := 0; j < n; j++ {
			if adj.At(i, j) != 0 {
				key := bmat.BlockKey{I: j / bs, J: i / bs}
				buckets[key] = append(buckets[key], trip{r: j % bs, c: i % bs, v: w})
			}
		}
	}
	for key, ts := range buckets {
		rows, cols := mt.BlockDims(key.I, key.J)
		ri := make([]int, len(ts))
		ci := make([]int, len(ts))
		vv := make([]float64, len(ts))
		for x, tr := range ts {
			ri[x], ci[x], vv[x] = tr.r, tr.c, tr.v
		}
		mt.SetBlock(key.I, key.J, matrix.NewCSR(rows, cols, ri, ci, vv))
	}
	return mt, dangling
}

// fillColumn sets every element of an n×1 matrix to v.
func fillColumn(m *bmat.BlockMatrix, v float64) {
	for bi := 0; bi < m.IB; bi++ {
		rows, _ := m.BlockDims(bi, 0)
		blk := matrix.NewDense(rows, 1)
		for i := 0; i < rows; i++ {
			blk.Set(i, 0, v)
		}
		m.SetBlock(bi, 0, blk)
	}
}
