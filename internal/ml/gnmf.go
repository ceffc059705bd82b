// Package ml implements the machine-learning query of the paper's
// evaluation: Gaussian Non-negative Matrix Factorization (GNMF, Appendix A),
// the collaborative-filtering workload run on MovieLens / Netflix /
// YahooMusic in §6.4. The update rules run entirely on distributed engine
// operators, so every multiplication goes through the system under test.
package ml

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"distme/internal/bmat"
)

// Ops is the subset of engine operators the queries need; engine.Engine and
// systems.System satisfy it, so the same query runs on every compared
// system. Each operator observes ctx, so a cancelled context
// stops a query between operators.
type Ops interface {
	Multiply(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error)
	Transpose(ctx context.Context, a *bmat.BlockMatrix) (*bmat.BlockMatrix, error)
	Hadamard(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error)
	DivElem(ctx context.Context, a, b *bmat.BlockMatrix, eps float64) (*bmat.BlockMatrix, error)
}

// eps is the denominator guard of the multiplicative updates.
const eps = 1e-9

// GNMFOptions configures a factorization run.
type GNMFOptions struct {
	// Rank is the factor dimension (200 in Figures 8(a–c); swept in 8(d)).
	Rank int
	// Iterations is the update count (the paper runs up to ten).
	Iterations int
	// Seed initializes the random factors.
	Seed int64
	// TrackObjective records ‖V − W·H‖F after every iteration. It costs an
	// extra full multiplication per iteration, so benches leave it off.
	TrackObjective bool
}

// GNMFResult carries the factors and per-iteration observations.
type GNMFResult struct {
	// W is the users×rank factor; H is the rank×items factor.
	W, H *bmat.BlockMatrix
	// Objectives holds ‖V − W·H‖F after each iteration when tracked.
	Objectives []float64
}

// GNMF factorizes V ≈ W×H with the multiplicative updates of Lee & Seung
// (Appendix A, Eq. 7):
//
//	H ← H ∘ (Wᵀ·V) ⊘ (Wᵀ·W·H)
//	W ← W ∘ (V·Hᵀ) ⊘ (W·H·Hᵀ)
//
// The small Gram products (Wᵀ·W, H·Hᵀ) are r×r and multiply cheaply; the
// V-sided products dominate, exactly the workload mix §6.4 measures.
func GNMF(ctx context.Context, ops Ops, v *bmat.BlockMatrix, opt GNMFOptions) (*GNMFResult, error) {
	if opt.Rank <= 0 {
		return nil, fmt.Errorf("ml: GNMF: rank must be positive, got %d", opt.Rank)
	}
	if opt.Iterations <= 0 {
		return nil, fmt.Errorf("ml: GNMF: iterations must be positive, got %d", opt.Iterations)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	w := bmat.RandomDense(rng, v.Rows, opt.Rank, v.BlockSize)
	h := bmat.RandomDense(rng, opt.Rank, v.Cols, v.BlockSize)
	res := &GNMFResult{}

	for it := 0; it < opt.Iterations; it++ {
		// --- H update ---
		wt, err := ops.Transpose(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: Wᵀ: %w", it, err)
		}
		wtv, err := ops.Multiply(ctx, wt, v)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: Wᵀ·V: %w", it, err)
		}
		wtw, err := ops.Multiply(ctx, wt, w)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: Wᵀ·W: %w", it, err)
		}
		wtwh, err := ops.Multiply(ctx, wtw, h)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: Wᵀ·W·H: %w", it, err)
		}
		ratio, err := ops.DivElem(ctx, wtv, wtwh, eps)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: H ratio: %w", it, err)
		}
		h, err = ops.Hadamard(ctx, h, ratio)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: H update: %w", it, err)
		}

		// --- W update ---
		ht, err := ops.Transpose(ctx, h)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: Hᵀ: %w", it, err)
		}
		vht, err := ops.Multiply(ctx, v, ht)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: V·Hᵀ: %w", it, err)
		}
		hht, err := ops.Multiply(ctx, h, ht)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: H·Hᵀ: %w", it, err)
		}
		whht, err := ops.Multiply(ctx, w, hht)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: W·H·Hᵀ: %w", it, err)
		}
		ratio, err = ops.DivElem(ctx, vht, whht, eps)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: W ratio: %w", it, err)
		}
		w, err = ops.Hadamard(ctx, w, ratio)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMF iteration %d: W update: %w", it, err)
		}

		if opt.TrackObjective {
			wh, err := ops.Multiply(ctx, w, h)
			if err != nil {
				return nil, fmt.Errorf("ml: GNMF iteration %d: objective: %w", it, err)
			}
			res.Objectives = append(res.Objectives, bmat.Sub(v, wh).FrobeniusNorm())
		}
	}
	res.W, res.H = w, h
	return res, nil
}

// GNMFObjective computes ‖V − W·H‖F without materializing W·H, using the
// Gram expansion SystemML's optimizer applies to the same pattern:
//
//	‖V − W·H‖² = ‖V‖² − 2·⟨Vᵀ·W, Hᵀ⟩ + ⟨Wᵀ·W, H·Hᵀ⟩
//
// Only r-width products are formed (Vᵀ·W is items×r; the Grams are r×r),
// so the cost is O(nnz(V)·r + (m+n)·r²) instead of the dense m×n of W·H.
// Negative round-off under the square root clamps to zero.
//
// It takes no context and runs under context.Background(): the repository
// benchmark calls it with exactly these four parameters, and a benchmark
// file cannot change in the same PR as the code it measures.
func GNMFObjective(ops Ops, v, w, h *bmat.BlockMatrix) (float64, error) {
	ctx := context.Background()
	vt, err := ops.Transpose(ctx, v)
	if err != nil {
		return 0, fmt.Errorf("ml: GNMFObjective: Vᵀ: %w", err)
	}
	vtw, err := ops.Multiply(ctx, vt, w)
	if err != nil {
		return 0, fmt.Errorf("ml: GNMFObjective: Vᵀ·W: %w", err)
	}
	ht, err := ops.Transpose(ctx, h)
	if err != nil {
		return 0, fmt.Errorf("ml: GNMFObjective: Hᵀ: %w", err)
	}
	wt, err := ops.Transpose(ctx, w)
	if err != nil {
		return 0, fmt.Errorf("ml: GNMFObjective: Wᵀ: %w", err)
	}
	wtw, err := ops.Multiply(ctx, wt, w)
	if err != nil {
		return 0, fmt.Errorf("ml: GNMFObjective: Wᵀ·W: %w", err)
	}
	hht, err := ops.Multiply(ctx, h, ht)
	if err != nil {
		return 0, fmt.Errorf("ml: GNMFObjective: H·Hᵀ: %w", err)
	}
	vNorm := v.FrobeniusNorm()
	sq := vNorm*vNorm - 2*bmat.Dot(vtw, ht) + bmat.Dot(wtw, hht)
	if sq < 0 {
		sq = 0
	}
	return math.Sqrt(sq), nil
}
