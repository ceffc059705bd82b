package ml

import (
	"context"
	"fmt"
	"math/rand"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// ALSOptions configures alternating least squares.
type ALSOptions struct {
	// Rank is the factor dimension.
	Rank int
	// Iterations is the number of alternating sweeps.
	Iterations int
	// Lambda is the Tikhonov regularizer (λ·I added to each normal
	// equation); the Netflix-prize formulation [41] in the paper's
	// references.
	Lambda float64
	// Seed initializes the factors.
	Seed int64
	// TrackObjective records the regularized squared error per iteration.
	TrackObjective bool
}

// ALSResult carries the factors and the tracked objective.
type ALSResult struct {
	// W is users×rank; H is rank×items, as in GNMF.
	W, H *bmat.BlockMatrix
	// Objectives holds ‖V − W·H‖F² + λ(‖W‖F² + ‖H‖F²) per iteration.
	Objectives []float64
}

// ALS factorizes V ≈ W×H by alternating least squares — the
// collaborative-filtering algorithm of the paper's Netflix-prize citation
// [41]. Each sweep solves, for every user row and item column, an r×r
// ridge-regularized normal equation via the Cholesky kernel:
//
//	W ← V·Hᵀ·(H·Hᵀ + λI)⁻¹      H ← (Wᵀ·W + λI)⁻¹·Wᵀ·V
//
// The large products (V·Hᵀ, Wᵀ·V) and the r×r Grams run distributed on the
// engine; the tiny r×r solves run locally — the same split a production
// implementation uses. This is the dense-V formulation (all cells are
// observations), which matches the synthetic rating matrices.
func ALS(ctx context.Context, ops Ops, v *bmat.BlockMatrix, opt ALSOptions) (*ALSResult, error) {
	if opt.Rank <= 0 {
		return nil, fmt.Errorf("ml: ALS: rank must be positive, got %d", opt.Rank)
	}
	if opt.Iterations <= 0 {
		return nil, fmt.Errorf("ml: ALS: iterations must be positive, got %d", opt.Iterations)
	}
	if opt.Lambda < 0 {
		return nil, fmt.Errorf("ml: ALS: lambda must be non-negative, got %g", opt.Lambda)
	}
	lambda := opt.Lambda
	if lambda == 0 {
		lambda = 1e-9 // keep the normal equations positive definite
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	w := bmat.RandomDense(rng, v.Rows, opt.Rank, v.BlockSize)
	h := bmat.RandomDense(rng, opt.Rank, v.Cols, v.BlockSize)
	res := &ALSResult{}

	for it := 0; it < opt.Iterations; it++ {
		// --- W update: W = V·Hᵀ · (H·Hᵀ + λI)⁻¹ ---
		ht, err := ops.Transpose(ctx, h)
		if err != nil {
			return nil, fmt.Errorf("ml: ALS iteration %d: Hᵀ: %w", it, err)
		}
		vht, err := ops.Multiply(ctx, v, ht)
		if err != nil {
			return nil, fmt.Errorf("ml: ALS iteration %d: V·Hᵀ: %w", it, err)
		}
		hht, err := ops.Multiply(ctx, h, ht)
		if err != nil {
			return nil, fmt.Errorf("ml: ALS iteration %d: H·Hᵀ: %w", it, err)
		}
		w, err = solveRight(vht, hht, lambda, v.BlockSize)
		if err != nil {
			return nil, fmt.Errorf("ml: ALS iteration %d: W solve: %w", it, err)
		}

		// --- H update: H = (Wᵀ·W + λI)⁻¹ · Wᵀ·V ---
		wt, err := ops.Transpose(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("ml: ALS iteration %d: Wᵀ: %w", it, err)
		}
		wtv, err := ops.Multiply(ctx, wt, v)
		if err != nil {
			return nil, fmt.Errorf("ml: ALS iteration %d: Wᵀ·V: %w", it, err)
		}
		wtw, err := ops.Multiply(ctx, wt, w)
		if err != nil {
			return nil, fmt.Errorf("ml: ALS iteration %d: Wᵀ·W: %w", it, err)
		}
		h, err = solveLeft(wtw, wtv, lambda, v.BlockSize)
		if err != nil {
			return nil, fmt.Errorf("ml: ALS iteration %d: H solve: %w", it, err)
		}

		if opt.TrackObjective {
			wh, err := ops.Multiply(ctx, w, h)
			if err != nil {
				return nil, fmt.Errorf("ml: ALS iteration %d: objective: %w", it, err)
			}
			diff := bmat.Sub(v, wh).FrobeniusNorm()
			wn := w.FrobeniusNorm()
			hn := h.FrobeniusNorm()
			res.Objectives = append(res.Objectives, diff*diff+opt.Lambda*(wn*wn+hn*hn))
		}
	}
	res.W, res.H = w, h
	return res, nil
}

// solveRight computes X = B · (G + λI)⁻¹ for an m×r B and r×r Gram G:
// transpose to (G + λI)·Xᵀ = Bᵀ and Cholesky-solve (G symmetric).
func solveRight(b, g *bmat.BlockMatrix, lambda float64, blockSize int) (*bmat.BlockMatrix, error) {
	gd := ridge(g, lambda)
	xt, err := matrix.SolveSPD(gd, b.ToDense().Transpose())
	if err != nil {
		return nil, err
	}
	return bmat.FromDense(xt.Transpose(), blockSize), nil
}

// solveLeft computes X = (G + λI)⁻¹ · B for an r×r Gram G and r×n B.
func solveLeft(g, b *bmat.BlockMatrix, lambda float64, blockSize int) (*bmat.BlockMatrix, error) {
	gd := ridge(g, lambda)
	x, err := matrix.SolveSPD(gd, b.ToDense())
	if err != nil {
		return nil, err
	}
	return bmat.FromDense(x, blockSize), nil
}

// ridge materializes G + λI locally: the Grams are r×r, driver-sized.
func ridge(g *bmat.BlockMatrix, lambda float64) *matrix.Dense {
	d := g.ToDense()
	for i := 0; i < d.RowsN && i < d.ColsN; i++ {
		d.Set(i, i, d.At(i, i)+lambda)
	}
	return d
}
