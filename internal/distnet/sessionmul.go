package distnet

import (
	"context"
	"fmt"

	"distme/internal/bmat"
	"distme/internal/core"
)

// Multiply runs C = A×B over two resident handles and returns the product
// driver-side along with the partitioning actually run. It pulls: each
// call names the handles' bands and its worker reads the operand slices from
// the owning peers. The job runs the one cuboid path, so a JobMeter on ctx,
// the driver's gauges and tracing all apply, and it recovers as that path
// does (job.go). Results are bit-identical to Driver.Execute on the same sources,
// under any fault schedule.
func (s *Session) Multiply(ctx context.Context, a, b *Handle, opts MultiplyOptions) (*bmat.BlockMatrix, core.Params, error) {
	if err := s.checkHandle(a); err != nil {
		return nil, core.Params{}, err
	}
	if err := s.checkHandle(b); err != nil {
		return nil, core.Params{}, err
	}
	for _, h := range []*Handle{a, b} {
		if err := s.force(ctx, h); err != nil {
			return nil, core.Params{}, err
		}
	}
	if err := core.CheckConformable(a.rows, a.cols, a.blockSize, b.rows, b.cols, b.blockSize); err != nil {
		return nil, core.Params{}, fmt.Errorf("distnet: %w", err)
	}
	params, err := s.d.planMultiply(opts, s.handleShape(a, b), core.TransferPull)
	if err != nil {
		return nil, core.Params{}, err
	}

	// Recovery defaults to a; an eviction the worker pinned on b's handle
	// rebuilds b instead (evictedHandle).
	var out *bmat.BlockMatrix
	err = s.withRecovery(ctx, a, func(ctx context.Context) error {
		var err error
		out, err = s.pullMultiply(ctx, a, b, params, opts)
		return err
	})
	if err != nil {
		return nil, core.Params{}, err
	}
	return out, params, nil
}

// handleShape renders two resident handles as the optimizer's Shape, using
// each handle's resident payload as its stored size.
func (s *Session) handleShape(a, b *Handle) core.Shape {
	return core.Shape{
		I:      a.ib,
		J:      ceilDivInt(b.cols, b.blockSize),
		K:      ceilDivInt(a.cols, a.blockSize),
		ABytes: a.bytes,
		BBytes: b.bytes,
		CBytes: int64(a.rows) * int64(b.cols) * 8,
	}
}

// pullMultiply is the pull job: each call names the handles and the bands
// they live in, and the assigned worker reads the slices of its box from its
// own store, its replicas and the owning peers. When both handles kept their
// Put source, the call also carries the inline records — off the wire — so
// runColumn can downgrade it to push or compute it locally. Placement is read
// per call: a recovery re-runs this on the new one.
func (s *Session) pullMultiply(ctx context.Context, a, b *Handle, params core.Params, opts MultiplyOptions) (*bmat.BlockMatrix, error) {
	aRef := bandRef{handle: a.id, parts: s.partLocs(a), sourceless: a.src == nil}
	bRef := bandRef{handle: b.id, parts: s.partLocs(b), sourceless: b.src == nil}
	return s.d.runCuboids(ctx, cuboidJob{
		rows: a.rows, inner: a.cols, cols: b.cols, blockSize: a.blockSize,
		params: params, transfer: core.TransferPull, callBytes: opts.callBytes(),
		fill: func(args *multiplyArgs) {
			args.pull = true
			args.pullInline = a.src != nil && b.src != nil
			args.cacheEpoch = s.epoch
			args.aRef, args.bRef = aRef, bRef
			box := args.operandBox()
			if a.src != nil {
				args.ABlocks = boxRecs(a.src, box.ILo, box.IHi, box.KLo, box.KHi)
			}
			if b.src != nil {
				args.BBlocks = boxRecs(b.src, box.KLo, box.KHi, box.JLo, box.JHi)
			}
		},
	})
}
