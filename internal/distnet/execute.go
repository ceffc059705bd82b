package distnet

import (
	"context"
	"fmt"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
)

// MultiplyOptions configures one Execute or Session.Multiply call. The zero
// value asks the optimizer to choose the partitioning with a 1 GiB
// per-worker budget.
type MultiplyOptions struct {
	// Params, when non-nil, fixes the (P,Q,R) cuboid partitioning
	// explicitly; nil lets the optimizer choose from WorkerMemBytes, the
	// live worker count, and Eq.(4).
	Params *core.Params
	// WorkerMemBytes is the per-worker memory budget θt (0 takes 1 GiB): the
	// optimizer's bound on one cuboid when Params is nil, and, with or
	// without Params, the bound on the operand bytes one worker call
	// carries — a (p,q) column whose R cuboids' inputs exceed it goes out
	// as R calls, one cuboid each, whose partials the driver folds.
	WorkerMemBytes int64
	// Transfer selects the operand data plane. TransferPush is the classic
	// mode: the driver ships every cuboid slice. TransferPull seeds each
	// operand once into a block-store session and ships only placement
	// manifests; workers fetch the replicated slices from the owning peers,
	// so the driver moves |A|+|B| instead of Q·|A|+P·|B|. TransferAuto (the
	// zero value) prices both with Eq.(4) when the optimizer chooses the
	// partitioning; with explicit Params, Execute keeps push — the
	// established behavior — while Session.Multiply, whose operands are
	// already resident, prices both planes at those params. Pull is ignored
	// by Execute when only one worker is live. Results are bit-identical
	// across modes.
	Transfer core.Transfer
}

// planMultiply resolves one call's options against the operand shape: the
// (P,Q,R) to run and the data plane to run it on. pc says how pull is priced
// (its Workers is also the optimizer's slot count). Explicit Params under
// TransferAuto settle by where the operands are: resident ones (Session.
// Multiply — no seed to pay) take whichever plane Eq.(4) prices cheaper at
// those params; cold ones (Execute) keep push, the established behavior.
func (d *Driver) planMultiply(opts MultiplyOptions, shape core.Shape, pc core.PullCost) (core.Params, core.Transfer, error) {
	if !opts.Transfer.Valid() {
		return core.Params{}, 0, fmt.Errorf("distnet: unknown transfer mode %d", opts.Transfer)
	}
	params, mode := core.Params{}, opts.Transfer
	if opts.Params != nil {
		params = *opts.Params
		if mode == core.TransferAuto {
			mode = core.TransferPush
			if pc.SeedResident && shape.CostBytesPull(params, pc) < shape.CostBytes(params) {
				mode = core.TransferPull
			}
		}
		return params, mode, nil
	}
	mem := opts.workerMem()
	var err error
	switch mode {
	case core.TransferPush:
		params, err = core.Optimize(shape, mem, pc.Workers)
	case core.TransferPull:
		params, err = core.OptimizePull(shape, mem, pc.Workers, pc)
	default:
		params, mode, err = core.OptimizeTransfer(shape, mem, pc.Workers, pc)
	}
	return params, mode, err
}

// workerMem is θt: WorkerMemBytes, or 1 GiB when it is unset.
func (opts MultiplyOptions) workerMem() int64 {
	if opts.WorkerMemBytes > 0 {
		return opts.WorkerMemBytes
	}
	return 1 << 30
}

// callBytes is the most operand bytes one multiply call may carry: θt, and
// never more than half a wire frame, which leaves the frame's record headers
// room. A (p,q) column over it goes out as its R cuboids (runCuboids).
func (opts MultiplyOptions) callBytes() int64 {
	return min(opts.workerMem(), codec.MaxFrameBytes/2)
}

// Execute is the driver's multiply entry point for one-shot operands:
// C = A×B across the live workers, context-first, with partitioning,
// optimizer budget and transfer mode in one options struct. The returned
// params are the partitioning actually run. A failed call recovers as the
// cuboid job path does (job.go). Cancelling ctx abandons unscheduled cuboids
// and returns its error.
func (d *Driver) Execute(ctx context.Context, a, b *bmat.BlockMatrix, opts MultiplyOptions) (*bmat.BlockMatrix, core.Params, error) {
	// Cold operands: pull pays the seed.
	params, mode, err := d.planMultiply(opts, core.ShapeOf(a, b), core.PullCost{Workers: max(d.Workers(), 1)})
	if err != nil {
		return nil, core.Params{}, err
	}
	var c *bmat.BlockMatrix
	if mode == core.TransferPull && d.Workers() > 1 {
		c, err = d.executePull(ctx, a, b, params, opts)
	} else {
		c, err = d.multiply(ctx, a, b, params, opts)
	}
	return c, params, err
}

// executePull runs one cold-operand pull multiply: seed each operand once
// into a throwaway block-store session (the driver's one-copy |A|+|B|
// contribution), then manifest-multiply over the resident handles, then
// retire the session. Failures inside fall back per call — a worker that
// cannot resolve its manifest is re-pushed inline by runJob.
func (d *Driver) executePull(ctx context.Context, a, b *bmat.BlockMatrix, params core.Params, opts MultiplyOptions) (*bmat.BlockMatrix, error) {
	s, err := d.NewSession(ctx)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Close(ctx) }()
	ha, err := s.Put(ctx, a)
	if err != nil {
		return nil, err
	}
	hb, err := s.Put(ctx, b)
	if err != nil {
		return nil, err
	}
	opts.Params, opts.Transfer = &params, core.TransferPull
	c, _, err := s.Multiply(ctx, ha, hb, opts)
	return c, err
}
