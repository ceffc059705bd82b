package ml

import (
	"context"
	"fmt"
	"math/rand"

	"distme/internal/bmat"
	"distme/internal/plan"
)

// Handle-resident variants of the iterative queries: instead of routing every
// operator's inputs and output through the driver, the factors live on the
// workers as session handles and each iteration runs as one lazy pipeline —
// the driver ships only the expression and fetches only what it needs (the
// final factors; PageRank's n×1 vectors). The math is the exact operator
// sequence of GNMF / PageRank above, so the results match their
// driver-materialized twins.

// PipelineSession is the handle-based session surface the queries run
// against, generic over the handle type so this package does not depend on
// the network layer. distnet.Session satisfies
// PipelineSession[*distnet.Handle].
type PipelineSession[H any] interface {
	// Put uploads a driver matrix, returning its resident handle.
	Put(ctx context.Context, m *bmat.BlockMatrix) (H, error)
	// Run compiles and executes an expression over bound handles, returning
	// the (still remote) result handle.
	Run(ctx context.Context, x plan.Expr, binds map[string]H) (H, error)
	// Fetch downloads a handle's matrix to the driver.
	Fetch(ctx context.Context, h H) (*bmat.BlockMatrix, error)
	// Free drops a handle's resident blocks.
	Free(ctx context.Context, h H) error
	// Pin protects a handle's blocks against store eviction.
	Pin(ctx context.Context, h H) error
}

// GNMFHExpr is one H update, H ← H ∘ (Wᵀ·V) ⊘ (Wᵀ·W·H), over the bound
// names "v", "w", "h". The shared Wᵀ is computed once (the plan layer
// hash-conses it), exactly as the eager GNMF reuses its wt.
func GNMFHExpr() plan.Expr {
	wt := plan.T(plan.V("w"))
	return plan.EMul(plan.V("h"),
		plan.EDiv(plan.Mul(wt, plan.V("v")),
			plan.Mul(plan.Mul(wt, plan.V("w")), plan.V("h")), eps))
}

// GNMFWExpr is one W update, W ← W ∘ (V·Hᵀ) ⊘ (W·(H·Hᵀ)), over the bound
// names "v", "w", "h".
func GNMFWExpr() plan.Expr {
	ht := plan.T(plan.V("h"))
	return plan.EMul(plan.V("w"),
		plan.EDiv(plan.Mul(plan.V("v"), ht),
			plan.Mul(plan.V("w"), plan.Mul(plan.V("h"), ht)), eps))
}

// GNMFPipeline is a factorization whose V, W and H live on the workers. Each
// Step runs both multiplicative updates as lazy pipelines; nothing but the
// expressions crosses the driver until Factors.
type GNMFPipeline[H any] struct {
	sess    PipelineSession[H]
	v, w, h H
	closed  bool
}

// NewGNMFPipeline uploads V and the seeded random factors (the same
// initialization sequence as GNMF) and pins V — the one operand every
// iteration reads — against eviction. On an error nothing stays resident.
func NewGNMFPipeline[H any](ctx context.Context, s PipelineSession[H], v *bmat.BlockMatrix, opt GNMFOptions) (*GNMFPipeline[H], error) {
	if opt.Rank <= 0 {
		return nil, fmt.Errorf("ml: GNMFPipeline: rank must be positive, got %d", opt.Rank)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	w0 := bmat.RandomDense(rng, v.Rows, opt.Rank, v.BlockSize)
	h0 := bmat.RandomDense(rng, opt.Rank, v.Cols, v.BlockSize)

	// A failed step frees the handles already uploaded: nothing else holds
	// them, so they would stay resident until the session closes.
	var put []H
	fail := func(step string, err error) (*GNMFPipeline[H], error) {
		for _, h := range put {
			_ = s.Free(ctx, h) // best effort; the step's error is the one reported
		}
		return nil, fmt.Errorf("ml: GNMFPipeline: %s: %w", step, err)
	}
	hv, err := s.Put(ctx, v)
	if err != nil {
		return fail("put V", err)
	}
	put = append(put, hv)
	if err := s.Pin(ctx, hv); err != nil {
		return fail("pin V", err)
	}
	hw, err := s.Put(ctx, w0)
	if err != nil {
		return fail("put W", err)
	}
	put = append(put, hw)
	hh, err := s.Put(ctx, h0)
	if err != nil {
		return fail("put H", err)
	}
	return &GNMFPipeline[H]{sess: s, v: hv, w: hw, h: hh}, nil
}

// Step runs one full GNMF iteration (H update, then W update against the new
// H) entirely worker-resident.
func (g *GNMFPipeline[H]) Step(ctx context.Context) error {
	if g.closed {
		return fmt.Errorf("ml: GNMFPipeline: closed")
	}
	binds := map[string]H{"v": g.v, "w": g.w, "h": g.h}
	newH, err := g.sess.Run(ctx, GNMFHExpr(), binds)
	if err != nil {
		return fmt.Errorf("ml: GNMFPipeline: H update: %w", err)
	}
	if err := g.sess.Free(ctx, g.h); err != nil {
		return fmt.Errorf("ml: GNMFPipeline: free old H: %w", err)
	}
	g.h = newH
	binds["h"] = newH
	newW, err := g.sess.Run(ctx, GNMFWExpr(), binds)
	if err != nil {
		return fmt.Errorf("ml: GNMFPipeline: W update: %w", err)
	}
	if err := g.sess.Free(ctx, g.w); err != nil {
		return fmt.Errorf("ml: GNMFPipeline: free old W: %w", err)
	}
	g.w = newW
	return nil
}

// Handles exposes the current resident factors (for chaining into further
// expressions).
func (g *GNMFPipeline[H]) Handles() (v, w, h H) { return g.v, g.w, g.h }

// Factors fetches W and H to the driver — the pipeline's only bulk
// driver-bound transfer.
func (g *GNMFPipeline[H]) Factors(ctx context.Context) (*GNMFResult, error) {
	if g.closed {
		return nil, fmt.Errorf("ml: GNMFPipeline: closed")
	}
	w, err := g.sess.Fetch(ctx, g.w)
	if err != nil {
		return nil, fmt.Errorf("ml: GNMFPipeline: fetch W: %w", err)
	}
	h, err := g.sess.Fetch(ctx, g.h)
	if err != nil {
		return nil, fmt.Errorf("ml: GNMFPipeline: fetch H: %w", err)
	}
	return &GNMFResult{W: w, H: h}, nil
}

// Close frees the pipeline's resident handles. Further calls fail.
func (g *GNMFPipeline[H]) Close(ctx context.Context) error {
	if g.closed {
		return nil
	}
	g.closed = true
	var first error
	for _, h := range []H{g.v, g.w, g.h} {
		if err := g.sess.Free(ctx, h); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PageRankHandles is PageRank with the transition matrix resident: Mᵀ (the
// n×n operand) uploads once and stays pinned on the workers; per iteration
// only two n×1 vectors cross the driver — the current ranks up, the spread
// down. The rank arithmetic is pagerankStep, shared with PageRank, so the
// results are byte-identical to the driver-materialized run.
func PageRankHandles[H any](ctx context.Context, s PipelineSession[H], adj *bmat.BlockMatrix, opt PageRankOptions) (*PageRankResult, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("ml: PageRankHandles: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
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

	mt, dangling := transitionTranspose(adj)
	hmt, err := s.Put(ctx, mt)
	if err != nil {
		return nil, fmt.Errorf("ml: PageRankHandles: put Mᵀ: %w", err)
	}
	defer func() { _ = s.Free(ctx, hmt) }()
	if err := s.Pin(ctx, hmt); err != nil {
		return nil, fmt.Errorf("ml: PageRankHandles: pin Mᵀ: %w", err)
	}

	r := bmat.New(n, 1, adj.BlockSize)
	fillColumn(r, 1/float64(n))

	res := &PageRankResult{}
	spreadExpr := plan.Mul(plan.V("mt"), plan.V("r"))
	for it := 0; it < opt.MaxIterations; it++ {
		hr, err := s.Put(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("ml: PageRankHandles iteration %d: put r: %w", it, err)
		}
		hs, err := s.Run(ctx, spreadExpr, map[string]H{"mt": hmt, "r": hr})
		if err != nil {
			_ = s.Free(ctx, hr)
			return nil, fmt.Errorf("ml: PageRankHandles iteration %d: %w", it, err)
		}
		spread, err := s.Fetch(ctx, hs)
		_ = s.Free(ctx, hs)
		_ = s.Free(ctx, hr)
		if err != nil {
			return nil, fmt.Errorf("ml: PageRankHandles iteration %d: fetch: %w", it, err)
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
