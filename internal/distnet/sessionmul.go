package distnet

import (
	"context"
	"fmt"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
)

// Multiply runs C = A×B over two resident handles and returns the product
// driver-side along with the partitioning actually run. It pulls: each
// column ships manifests and its worker fetches the operand slices from the
// owning peers. The job runs the one cuboid path, so a JobMeter on ctx, the
// driver's gauges and tracing all apply, and it recovers as that path does
// (job.go). Results are bit-identical to Driver.Execute on the same sources,
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
		if p, err := codec.Prepare(blk); err == nil && p.Size() >= minCacheableBytes {
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

// pullMultiply is the pull job: each column's slices are the placement
// manifests of the handles' bands inside its voxel box, which the assigned
// worker resolves against its cache, its own store and the owning peers.
// When both handles kept their Put source, the column also carries the inline
// records — off the wire — so runColumn can downgrade it to push or compute it
// locally. Placement is read per call: a recovery re-runs this on the new one.
func (s *Session) pullMultiply(ctx context.Context, a, b *Handle, params core.Params, opts MultiplyOptions) (*bmat.BlockMatrix, error) {
	aParts, bParts := s.parts(a.ib), s.parts(b.ib)
	return s.d.runCuboids(ctx, cuboidJob{
		rows: a.rows, inner: a.cols, cols: b.cols, blockSize: a.blockSize,
		params: params, transfer: core.TransferPull, callBytes: opts.callBytes(),
		fill: func(args *multiplyArgs) {
			args.pull = true
			args.pullInline = a.src != nil && b.src != nil
			args.cacheEpoch = s.epoch
			args.aManifest, args.ABlocks = a.boxManifest(aParts, args.ILo, args.IHi, args.KLo, args.KHi)
			args.bManifest, args.BBlocks = b.boxManifest(bParts, args.KLo, args.KHi, args.JLo, args.JHi)
		},
	})
}

// boxManifest renders the handle's blocks inside [rlo,rhi)×[clo,chi) as a
// placement manifest over its parts, row-major, plus — when the Put source is
// retained — the same blocks as inline records. Blocks the source knows absent
// stay off both; without a source every position is listed and the owner's
// band decides.
func (h *Handle) boxManifest(ps []part, rlo, rhi, clo, chi int) (*codec.Manifest, []blockRec) {
	m := &codec.Manifest{Handle: h.id, Owners: make([]string, len(ps))}
	for i, p := range ps {
		m.Owners[i] = p.m.addr
	}
	var recs []blockRec
	owner := 0 // parts ascend with the rows, so the owner only moves forward
	for i := rlo; i < rhi; i++ {
		for owner+1 < len(ps) && i >= ps[owner].hi {
			owner++
		}
		for j := clo; j < chi; j++ {
			var blk matrix.Block
			if h.src != nil {
				if blk = h.src.Block(i, j); blk == nil {
					continue
				}
			}
			dg := h.digestAt(i, j)
			if blk != nil {
				recs = append(recs, blockRec{Key: bmat.BlockKey{I: i, J: j}, Block: blk, digest: dg})
			}
			e := codec.ManifestEntry{KeyI: i, KeyJ: j, Owner: owner}
			if dg != nil {
				e.HasDigest, e.Digest = true, *dg
			}
			m.Entries = append(m.Entries, e)
		}
	}
	return m, recs
}
