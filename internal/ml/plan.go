package ml

import (
	"context"
	"fmt"
	"math/rand"

	"distme/internal/bmat"
	"distme/internal/engine"
)

// The repository benchmark passes its reference *engine.Engine straight to
// GNMFObjective, so the engine must keep satisfying Ops with no adapter.
var _ Ops = (*engine.Engine)(nil)

// GNMFPlanned runs GNMF through the plan compiler and engine — functionally
// identical to GNMF but exercising the declarative path (§5), where each
// update (GNMFHExpr, GNMFWExpr) is rewritten into a physical plan before
// execution and the shared Wᵀ (respectively Hᵀ) subterm is computed once
// thanks to common-subexpression elimination. It returns the factors after
// opt.Iterations updates.
func GNMFPlanned(ctx context.Context, eng *engine.Engine, v *bmat.BlockMatrix, opt GNMFOptions) (*GNMFResult, error) {
	if opt.Rank <= 0 {
		return nil, fmt.Errorf("ml: GNMFPlanned: rank must be positive, got %d", opt.Rank)
	}
	if opt.Iterations <= 0 {
		return nil, fmt.Errorf("ml: GNMFPlanned: iterations must be positive, got %d", opt.Iterations)
	}
	hExpr, wExpr := GNMFHExpr(), GNMFWExpr()
	rng := rand.New(rand.NewSource(opt.Seed))
	w := bmat.RandomDense(rng, v.Rows, opt.Rank, v.BlockSize)
	h := bmat.RandomDense(rng, opt.Rank, v.Cols, v.BlockSize)
	res := &GNMFResult{}
	for it := 0; it < opt.Iterations; it++ {
		binds := map[string]*bmat.BlockMatrix{"v": v, "w": w, "h": h}
		var err error
		h, _, err = eng.Run(ctx, hExpr, binds)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMFPlanned iteration %d: H: %w", it, err)
		}
		binds["h"] = h
		w, _, err = eng.Run(ctx, wExpr, binds)
		if err != nil {
			return nil, fmt.Errorf("ml: GNMFPlanned iteration %d: W: %w", it, err)
		}
		if opt.TrackObjective {
			wh, err := eng.Multiply(ctx, w, h)
			if err != nil {
				return nil, fmt.Errorf("ml: GNMFPlanned iteration %d: objective: %w", it, err)
			}
			res.Objectives = append(res.Objectives, bmat.Sub(v, wh).FrobeniusNorm())
		}
	}
	res.W, res.H = w, h
	return res, nil
}
