package distnet

import (
	"context"
	"errors"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/engine"
	"distme/internal/ml"
)

// Hybrid runs multiplications on remote workers and everything else
// (transpose, element-wise) on a local engine — the driver/executor split
// of a real deployment, where only the heavy products leave the driver.
// It satisfies ml.Ops, so the whole GNMF query (or PageRank) can run with
// its multiplications crossing real sockets. When the worker pool dies out
// from under it, Multiply degrades to the local engine instead of failing.
type Hybrid struct {
	// Driver executes multiplications remotely.
	Driver *Driver
	// Engine executes the remaining operators locally.
	Engine *engine.Engine
	// WorkerMemBytes is the per-worker budget handed to the optimizer.
	WorkerMemBytes int64
	// DisableLocalFallback propagates remote failures (ErrWorkerDead,
	// ErrNoWorkers, ErrDeadlineExceeded) instead of degrading to the local
	// engine.
	DisableLocalFallback bool

	// slots pins the optimizer's slot count to the membership at
	// construction time: mid-query churn then changes scheduling but never
	// the (P,Q,R) plan, which keeps iterative queries (GNMF) byte-identical
	// under any failure schedule.
	slots int
}

// NewHybrid wires a driver and a local engine together.
func NewHybrid(d *Driver, e *engine.Engine, workerMemBytes int64) *Hybrid {
	if workerMemBytes <= 0 {
		workerMemBytes = 1 << 30
	}
	slots := d.Workers()
	if slots < 1 {
		slots = 1
	}
	return &Hybrid{Driver: d, Engine: e, WorkerMemBytes: workerMemBytes, slots: slots}
}

// Multiply optimizes (P,Q,R) for the worker pool and multiplies remotely.
// If the pool has drained (every worker dead or removed), the product is
// computed on the local engine instead — the last rung of graceful
// degradation below the driver's own per-cuboid local fallback.
func (h *Hybrid) Multiply(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	params, err := core.Optimize(core.ShapeOf(a, b), h.WorkerMemBytes, h.slots)
	if err != nil {
		return nil, err
	}
	c, _, err := h.Driver.Execute(ctx, a, b, MultiplyOptions{Params: &params})
	if err != nil && !h.DisableLocalFallback &&
		(errors.Is(err, ErrWorkerDead) || errors.Is(err, ErrNoWorkers) ||
			errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrDriverClosed)) {
		return h.Engine.Multiply(ctx, a, b)
	}
	return c, err
}

// Transpose runs locally.
func (h *Hybrid) Transpose(ctx context.Context, a *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	return h.Engine.Transpose(ctx, a)
}

// Hadamard runs locally.
func (h *Hybrid) Hadamard(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	return h.Engine.Hadamard(ctx, a, b)
}

// DivElem runs locally.
func (h *Hybrid) DivElem(ctx context.Context, a, b *bmat.BlockMatrix, eps float64) (*bmat.BlockMatrix, error) {
	return h.Engine.DivElem(ctx, a, b, eps)
}

var _ ml.Ops = (*Hybrid)(nil)
