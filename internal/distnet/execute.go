package distnet

import (
	"context"
	"errors"
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
	// explicitly; nil lets core.Optimize choose from WorkerMemBytes, the
	// schedulable worker count, and Eq.(4).
	Params *core.Params
	// WorkerMemBytes is the per-worker memory budget θt (0 takes 1 GiB): the
	// optimizer's bound on one cuboid when Params is nil, and, with or
	// without Params, the bound on the operand bytes one worker call
	// carries — a holder's slabs of a (p,q) column whose inputs exceed it
	// go out as consecutive links on that holder, each taking the running
	// sum the one before left there, so C still comes back once.
	WorkerMemBytes int64
	// Transfer is the entry point's own plane or zero: Execute pushes the
	// driver-side operands it is given, Session.Multiply pulls resident
	// ones. Any other value is refused with an error that names the entry
	// point for it. Results are bit-identical across the planes.
	Transfer core.Transfer
}

// planMultiply resolves one call's options against the operand shape: the
// (P,Q,R) to run — opts.Params, else core.Optimize's choice over the
// schedulable workers. plane is the calling entry point's; opts.Transfer
// may only repeat it.
func (d *Driver) planMultiply(opts MultiplyOptions, shape core.Shape, plane core.Transfer) (core.Params, error) {
	if t := opts.Transfer; t != core.TransferAuto && t != plane {
		switch t {
		case core.TransferPush:
			return core.Params{}, errors.New("distnet: Session.Multiply pulls resident handles; push driver-side operands with Driver.Execute")
		case core.TransferPull:
			return core.Params{}, errors.New("distnet: Driver.Execute pushes driver-side operands; pull resident handles with Session.Multiply")
		}
		return core.Params{}, fmt.Errorf("distnet: unknown transfer mode %v", t)
	}
	if opts.Params != nil {
		return *opts.Params, nil
	}
	return core.Optimize(shape, opts.workerMem(), max(d.Workers(), 1))
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
// room. A holder's slab group over it is cut into more links (cuboidRun.cut).
func (opts MultiplyOptions) callBytes() int64 {
	return min(opts.workerMem(), codec.MaxFrameBytes/2)
}

// Execute is the driver's multiply entry point for driver-side operands:
// C = A×B across the live workers, context-first, with partitioning and
// optimizer budget in one options struct. It pushes the operands, each
// column's slices to its home or, where core.ChoosePlacement prices it
// cheaper, along the k-ordered chain (chain.go). The returned params are the
// partitioning actually run. A failed call recovers as the cuboid job path
// does (job.go). Cancelling ctx abandons unscheduled cuboids and returns its
// error.
func (d *Driver) Execute(ctx context.Context, a, b *bmat.BlockMatrix, opts MultiplyOptions) (*bmat.BlockMatrix, core.Params, error) {
	params, err := d.planMultiply(opts, core.ShapeOf(a, b), core.TransferPush)
	if err != nil {
		return nil, core.Params{}, err
	}
	c, err := d.multiply(ctx, a, b, params, opts)
	return c, params, err
}
