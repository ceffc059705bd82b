package distnet

import (
	"context"
	"fmt"
	"sync"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
	"distme/internal/shuffle"
)

// Session.Multiply: the classic cuboid multiply over warm operands — handles
// already resident on the workers. In pull mode the driver ships only a
// placement manifest per cuboid (digests + owner addresses per slice) and
// the assigned worker demand-fetches the slices from their owners, so no
// operand byte crosses the driver link. Push mode materializes the operands
// driver-side and runs the established push multiply.

// Multiply runs C = A×B over two resident handles and returns the product
// driver-side along with the partitioning actually run. opts.Transfer picks
// the data plane: TransferPull ships manifests and lets workers fetch
// operand slices from the owning peers; TransferPush materializes the
// operands driver-side and pushes cuboids classically; TransferAuto prices
// both with Eq.(4) (pull's peer term at fan-out, seed dropped since the
// operands are resident) and takes the cheaper. Results are bit-identical
// across modes and under any fault schedule — a failed pull resolution
// downgrades that cuboid to an inline push retry.
func (s *Session) Multiply(ctx context.Context, a, b *Handle, opts MultiplyOptions) (*bmat.BlockMatrix, core.Params, error) {
	if err := s.checkHandle(a); err != nil {
		return nil, core.Params{}, err
	}
	if err := s.checkHandle(b); err != nil {
		return nil, core.Params{}, err
	}
	if !opts.Transfer.Valid() {
		return nil, core.Params{}, fmt.Errorf("distnet: unknown transfer mode %d", opts.Transfer)
	}
	if opts.CheckpointDir != "" {
		return nil, core.Params{}, fmt.Errorf("distnet: Session.Multiply does not checkpoint; use Driver.Execute")
	}
	if a.cols != b.rows || a.blockSize != b.blockSize {
		return nil, core.Params{}, fmt.Errorf("distnet: operands not conformable")
	}

	shape := s.handleShape(a, b)
	wc := core.WireCost{InputRatio: s.d.opts.Encoding.PlanRatio(), AggRatio: 1}
	pc := core.PullCost{Workers: len(s.workers), SeedResident: true}
	mode := opts.Transfer
	var params core.Params
	if opts.Params != nil {
		params = *opts.Params
		if mode == core.TransferAuto {
			// Fixed partitioning: Eq.(4) prices both planes at these params.
			if shape.CostBytesPull(params, wc, pc) < shape.CostBytesWire(params, wc) {
				mode = core.TransferPull
			} else {
				mode = core.TransferPush
			}
		}
	} else {
		mem := opts.WorkerMemBytes
		if mem <= 0 {
			mem = 1 << 30
		}
		slots := len(s.workers)
		var err error
		switch mode {
		case core.TransferPush:
			params, err = core.OptimizeWire(shape, mem, slots, wc)
		case core.TransferPull:
			params, err = core.OptimizePull(shape, mem, slots, wc, pc)
		default:
			params, mode, err = core.OptimizeTransfer(shape, mem, slots, wc, pc)
		}
		if err != nil {
			return nil, core.Params{}, err
		}
	}
	if params.P < 1 || params.P > shape.I || params.Q < 1 || params.Q > shape.J || params.R < 1 || params.R > shape.K {
		return nil, core.Params{}, fmt.Errorf("distnet: params %v outside grid %dx%dx%d", params, shape.I, shape.J, shape.K)
	}

	if mode == core.TransferPush {
		am, err := s.materialize(ctx, a)
		if err != nil {
			return nil, core.Params{}, err
		}
		bm, err := s.materialize(ctx, b)
		if err != nil {
			return nil, core.Params{}, err
		}
		c, err := s.d.multiply(ctx, am, bm, params, nil)
		return c, params, err
	}

	var out *bmat.BlockMatrix
	err := s.withRecovery(ctx, a, func(ctx context.Context) error {
		var err error
		out, err = s.pullMultiply(ctx, a, b, params)
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

// materialize returns a driver-side copy of the handle: the retained Put
// source when present, else a Fetch.
func (s *Session) materialize(ctx context.Context, h *Handle) (*bmat.BlockMatrix, error) {
	if h.src != nil {
		return h.src, nil
	}
	return s.Fetch(ctx, h)
}

// ownerTable renders a handle's placement as a manifest owner list plus a
// block-row → owner-index lookup.
func (s *Session) ownerTable(h *Handle) ([]string, func(int) int) {
	ps := s.parts(h.ib)
	addrs := make([]string, len(ps))
	for i, p := range ps {
		addrs[i] = p.m.addr
	}
	return addrs, func(row int) int {
		for i, p := range ps {
			if row >= p.lo && row < p.hi {
				return i
			}
		}
		return 0
	}
}

// digestAt returns the content digest of the Put-source block at (i, j),
// memoized on the handle. Nil for absent blocks, blocks under the cacheable
// threshold, and handles without a retained source (pipeline outputs) —
// their manifest entries carry no digest and skip cache dedup.
func (h *Handle) digestAt(i, j int) *codec.Digest {
	if h.src == nil {
		return nil
	}
	key := bmat.BlockKey{I: i, J: j}
	if dg, ok := h.dig[key]; ok {
		return dg
	}
	var dg *codec.Digest
	if blk := h.src.Block(i, j); blk != nil {
		// Manifest digests hash the bit-exact fp64 encoding regardless of
		// Options.Encoding: pull fetches move exact blocks (GetBlocks is
		// always fp64), so a lossy job encoding must not unify a fetched
		// exact block with a rounded pushed one.
		if p, err := codec.Prepare(blk, codec.EncodingFP64); err == nil && p.Size() >= minCacheableBytes {
			p.Hash()
			dg = &p.Digest
		}
	}
	if h.dig == nil {
		h.dig = map[bmat.BlockKey]*codec.Digest{}
	}
	h.dig[key] = dg
	return dg
}

// pullMultiply builds one manifest-mode cuboid job per voxel and dispatches
// them through the driver's scheduler — runJob's retry, downgrade-to-push,
// and local-fallback machinery all apply. Aggregation order is fixed by
// cuboid index, exactly like the push multiply.
func (s *Session) pullMultiply(ctx context.Context, a, b *Handle, params core.Params) (*bmat.BlockMatrix, error) {
	d := s.d
	gi := a.ib
	gj := ceilDivInt(b.cols, b.blockSize)
	gk := ceilDivInt(a.cols, a.blockSize)

	root := d.tracer.Start(0, "distnet.multiply", obs.KindDriver)
	if root.Active() {
		root.SetAttr("params", fmt.Sprintf("%v", params))
		root.SetAttr("grid", fmt.Sprintf("%dx%dx%d blocks", gi, gj, gk))
		root.SetAttr("transfer", "pull")
	}
	defer root.End()

	aOwners, aOwnerOf := s.ownerTable(a)
	bOwners, bOwnerOf := s.ownerTable(b)

	var jobs []*MultiplyArgs
	for p := 0; p < params.P; p++ {
		ilo, ihi := shuffle.GridSpan(p, gi, params.P)
		for q := 0; q < params.Q; q++ {
			jlo, jhi := shuffle.GridSpan(q, gj, params.Q)
			for r := 0; r < params.R; r++ {
				klo, khi := shuffle.GridSpan(r, gk, params.R)
				if ihi <= ilo || jhi <= jlo || khi <= klo {
					continue
				}
				args := &MultiplyArgs{
					ILo: ilo, IHi: ihi, JLo: jlo, JHi: jhi, KLo: klo, KHi: khi,
					cuboidP: p, cuboidQ: q, cuboidR: r,
					encoding:   d.opts.Encoding,
					pull:       true,
					pullInline: a.src != nil && b.src != nil,
					cacheEpoch: s.epoch,
					aManifest:  &codec.Manifest{Handle: a.id, Owners: aOwners},
					bManifest:  &codec.Manifest{Handle: b.id, Owners: bOwners},
				}
				for i := ilo; i < ihi; i++ {
					for k := klo; k < khi; k++ {
						var blk matrix.Block
						if a.src != nil {
							if blk = a.src.Block(i, k); blk == nil {
								continue // known absent: stays off the manifest
							}
						}
						e := codec.ManifestEntry{KeyI: i, KeyJ: k, Owner: aOwnerOf(i)}
						if dg := a.digestAt(i, k); dg != nil {
							e.HasDigest, e.Digest = true, *dg
						}
						args.aManifest.Entries = append(args.aManifest.Entries, e)
						if blk != nil {
							// Retained driver-side for the downgrade-to-push
							// retry and local fallback; pull frames skip it.
							args.ABlocks = append(args.ABlocks, BlockRec{Key: bmat.BlockKey{I: i, J: k}, Block: blk})
						}
					}
				}
				for k := klo; k < khi; k++ {
					for j := jlo; j < jhi; j++ {
						var blk matrix.Block
						if b.src != nil {
							if blk = b.src.Block(k, j); blk == nil {
								continue
							}
						}
						e := codec.ManifestEntry{KeyI: k, KeyJ: j, Owner: bOwnerOf(k)}
						if dg := b.digestAt(k, j); dg != nil {
							e.HasDigest, e.Digest = true, *dg
						}
						args.bManifest.Entries = append(args.bManifest.Entries, e)
						if blk != nil {
							args.BBlocks = append(args.BBlocks, BlockRec{Key: bmat.BlockKey{I: k, J: j}, Block: blk})
						}
					}
				}
				jobs = append(jobs, args)
			}
		}
	}

	replies := make([]*MultiplyReply, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for idx, args := range jobs {
		wg.Add(1)
		d.inflight.Add(1)
		go func(idx int, args *MultiplyArgs) {
			defer wg.Done()
			defer d.inflight.Add(-1)
			csp := d.tracer.Start(root.ID(), "cuboid", obs.KindDriver)
			csp.SetCuboid(args.cuboidP, args.cuboidQ, args.cuboidR)
			defer csp.End()
			reply, err := d.runJob(ctx, args, csp)
			if err != nil {
				if csp.Active() {
					csp.SetAttr("error", err.Error())
				}
				errs[idx] = err
				return
			}
			replies[idx] = reply
		}(idx, args)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("distnet: multiply: %w", err)
		}
	}

	agg := d.tracer.Start(root.ID(), "aggregate", obs.KindDriver)
	out := bmat.New(a.rows, b.cols, a.blockSize)
	for _, reply := range replies {
		for _, rec := range reply.CBlocks {
			dense, ok := rec.Block.(*matrix.Dense)
			if !ok {
				dense = rec.Block.Dense()
			}
			if existing := out.Block(rec.Key.I, rec.Key.J); existing != nil {
				matrix.AddInto(existing.(*matrix.Dense), dense)
			} else {
				out.SetBlock(rec.Key.I, rec.Key.J, dense)
			}
		}
	}
	agg.End()
	return out, nil
}
