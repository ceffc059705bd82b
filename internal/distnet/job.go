package distnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// The cuboid job path: the package's only copy of CuboidMM — enumerate the
// (P,Q,R) cuboids, get each its slices, multiply, sum over k — as plan →
// prepare → dispatch → place. The unit of work is a (p,q) column, the R
// cuboids of one (p,q): its worker multiplies them and sums over k in
// ascending r (core.MultiplyColumn), so every C block comes back once and the
// driver only places it — Eq.(4)'s aggregation happens where the partials
// are made. A column whose operands are over the job's call bound (θt, at
// most half a wire frame) goes out as its R cuboids instead, and the driver
// folds their partials by the same rule (core.FoldSlab). A transfer mode is
// just a fill step; span tree, job meter, gauges and the retry/downgrade/
// local-fallback scheduler exist once, for every mode.
//
// That scheduler is how a multiply recovers, and all of it: a failed call is
// re-dispatched to the next live member, a pull call whose worker cannot
// resolve its manifest is downgraded to push, and a call that exhausts its
// attempts is computed on the driver with the workers' arithmetic. Nothing is
// persisted; a job that still fails is re-run whole.

// cuboidJob describes one multiply C = A×B to that path.
type cuboidJob struct {
	// A is rows×inner, B inner×cols, C rows×cols, all in blockSize blocks.
	rows, inner, cols, blockSize int
	params                       core.Params
	// transfer labels the root span; it never steers the path — fill does.
	transfer core.Transfer
	// callBytes bounds the operand bytes of one call (MultiplyOptions.
	// callBytes): a column over it goes out as its R cuboids.
	callBytes int64
	// fill gives one call — its voxel box already set — its slices while the
	// job is planned: inline records for push (Driver.multiply), placement
	// manifests for pull (Session.pullMultiply).
	fill func(args *multiplyArgs)
}

// column is one (p,q) column of a job. whole is the column as one call, all
// R slabs; calls is what goes out: whole itself, or — when whole's operands
// are over the job's callBytes — its R cuboids, one slab each, in ascending
// r, whose replies the driver folds.
type column struct {
	whole *multiplyArgs
	calls []*multiplyArgs
}

// cuboidRun is one job in flight: what its column goroutines share.
type cuboidRun struct {
	d       *Driver
	ctx     context.Context
	job     *cuboidJob
	root    obs.Span
	meter   *JobMeter
	columns []column
	replies []*multiplyReply
	errs    []error
}

// runCuboids runs one cuboid job end to end: the repartition (each column's
// slices reach its worker however fill arranged), the local multiplication
// and aggregation of each column on its worker, and the placement of the C
// blocks that come back. Aggregation order is fixed by slab index inside a
// column, and reassigned, downgraded or locally-recomputed columns use the
// workers' exact arithmetic, so the product is byte-identical to a
// failure-free run under any failure schedule and any transfer mode.
func (d *Driver) runCuboids(ctx context.Context, job cuboidJob) (*bmat.BlockMatrix, error) {
	if err := d.checkOpen(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gi, gj, gk := ceilDivInt(job.rows, job.blockSize), ceilDivInt(job.cols, job.blockSize), ceilDivInt(job.inner, job.blockSize)
	params := job.params
	if err := params.Check(gi, gj, gk); err != nil {
		return nil, fmt.Errorf("distnet: %w", err)
	}

	d.activeJobs.Add(1)
	defer d.activeJobs.Add(-1)
	r := &cuboidRun{d: d, ctx: ctx, job: &job, meter: jobMeterFrom(ctx)}
	r.root = d.tracer.Start(0, "distnet.multiply", obs.KindDriver)
	if r.root.Active() {
		r.root.SetAttr("params", fmt.Sprintf("%v", params))
		r.root.SetAttr("grid", fmt.Sprintf("%dx%dx%d blocks", gi, gj, gk))
		r.root.SetAttr("transfer", job.transfer.String())
	}
	defer r.root.End()

	// Plan: one column per (p,q) — the (P,Q,1) cuboid, its k range cut into
	// R slabs — in core's plan order, each with its home on the member ring:
	// column g = p·Q+q starts at base+g, and cuboid r of a column sent out in
	// R calls at base+g+r. The cursor advances by the job's P·Q·R cuboids,
	// not its P·Q columns: every job's base is where it was when each cuboid
	// was its own call, so an R = 1 job is placed exactly as then, and a
	// stream of repeated jobs mixing R = 1 and R > 1 keeps the cross-job
	// references that placement gave it.
	core.ForEachCuboid(core.Params{P: params.P, Q: params.Q, R: 1}, gi, gj, gk, func(p, q, _ int, box core.Box) {
		r.columns = append(r.columns, r.planColumn(p, q, box))
	})
	base := d.reserveHomes(params.Tasks())
	for g, col := range r.columns {
		for rr, call := range col.calls {
			call.home = base + g + rr
		}
	}
	r.replies = make([]*multiplyReply, len(r.columns))
	r.errs = make([]error, len(r.columns))

	// Prepare and dispatch, one column at a time on this goroutine: the first
	// column is on the wire while later blocks are still being encoded and
	// keyed, and the column goroutines only ever read.
	prep := d.newJobPrep()
	var wg sync.WaitGroup
	for idx, col := range r.columns {
		for _, call := range col.calls {
			call.prep = prep
			if r.errs[idx] == nil && !call.pull {
				r.errs[idx] = prep.prepare(call)
			}
		}
		if r.errs[idx] != nil {
			continue
		}
		wg.Add(1)
		d.inflight.Add(1)
		go func(idx int) {
			defer wg.Done()
			defer d.inflight.Add(-1)
			r.runOne(idx)
		}(idx)
	}
	wg.Wait()
	for _, err := range r.errs {
		if err != nil {
			return nil, fmt.Errorf("distnet: multiply: %w", err)
		}
	}

	// Aggregate: the columns are disjoint in (i,j) and each is folded by now,
	// so the step is placement only — the bits of core.MultiplyCuboid at the
	// same (P,Q,R).
	agg := d.tracer.Start(r.root.ID(), "aggregate", obs.KindDriver)
	out := bmat.New(job.rows, job.cols, job.blockSize)
	for _, reply := range r.replies {
		for _, rec := range reply.CBlocks {
			out.SetBlock(rec.Key.I, rec.Key.J, denseOf(rec.Block))
		}
	}
	agg.End()
	return out, nil
}

// planColumn fills (p,q)'s column as one call of R slabs and, when that
// call's operands are over the job's callBytes, as its R cuboids too: the
// calls that then go out in its place, each about an R-th of the column —
// the size θt bounds when the optimizer chose the plan.
func (r *cuboidRun) planColumn(p, q int, box core.Box) column {
	call := func(box core.Box, slabs int) *multiplyArgs {
		args := &multiplyArgs{
			ILo: box.ILo, IHi: box.IHi, JLo: box.JLo, JHi: box.JHi, KLo: box.KLo, KHi: box.KHi,
			slabs:   slabs,
			cuboidP: p, cuboidQ: q,
			meter: r.meter,
		}
		r.job.fill(args)
		return args
	}
	R := r.job.params.R
	col := column{whole: call(box, R)}
	col.calls = []*multiplyArgs{col.whole}
	if R > 1 && col.whole.inputBytes(r.job.blockSize) > r.job.callBytes {
		col.calls = make([]*multiplyArgs, R)
		for rr := range col.calls {
			col.calls[rr] = call(box.Slab(rr, R), 1)
		}
	}
	return col
}

// inputBytes is what the call's operands take in a worker's memory, the
// measure θt bounds: each inline record's stored size, or — for an operand
// pulled from a handle that kept no source, whose blocks the driver never
// sees — a dense block for each manifest entry.
func (a *multiplyArgs) inputBytes(blockSize int) int64 {
	var n int64
	for _, side := range [2]struct {
		recs []blockRec
		man  *codec.Manifest
	}{{a.ABlocks, a.aManifest}, {a.BBlocks, a.bManifest}} {
		if len(side.recs) == 0 && side.man != nil {
			n += int64(len(side.man.Entries)) * int64(blockSize) * int64(blockSize) * 8
		}
		for _, rec := range side.recs {
			n += rec.Block.SizeBytes()
		}
	}
	return n
}

// denseOf is b as a dense block, converting (copying) only other formats.
func denseOf(b matrix.Block) *matrix.Dense {
	if dense, ok := b.(*matrix.Dense); ok {
		return dense
	}
	return b.Dense()
}

// commit records one column's result: the reply slot and the job meter.
// Commits are first-writer-wins by construction — a column is run by exactly
// one goroutine.
func (r *cuboidRun) commit(idx int, reply *multiplyReply) {
	r.replies[idx] = reply
	r.meter.noteCommit(r.job.params.R)
}

// runOne dispatches one column's calls, each with runJob's full retry,
// downgrade and local-fallback machinery, under the span of the column's
// scheduling lifetime. The span keeps the name "cuboid": a column is its R
// cuboids, counted in the span's slabs attribute.
func (r *cuboidRun) runOne(idx int) {
	col := r.columns[idx]
	csp := r.d.tracer.Start(r.root.ID(), "cuboid", obs.KindDriver)
	col.whole.label(csp)
	defer csp.End()
	reply, err := r.runCalls(col, csp)
	if err != nil {
		if csp.Active() {
			csp.SetAttr("error", err.Error())
		}
		r.errs[idx] = err
		return
	}
	r.commit(idx, reply)
}

// runCalls runs a column's calls in order: its one call, or its R cuboids
// one after another — a column holds one worker slot either way — each
// partial folded into the column's tiles in ascending r by core.FoldSlab,
// the rule the worker folds a whole column's slabs by, so the C blocks have
// the same bits whichever way the column went out.
func (r *cuboidRun) runCalls(col column, sp obs.Span) (*multiplyReply, error) {
	box := col.whole.box()
	nj := box.JHi - box.JLo
	var tiles []*matrix.Dense
	for _, call := range col.calls {
		reply, err := r.d.runJob(r.ctx, call, sp)
		if err != nil {
			return nil, err
		}
		r.meter.noteReply(reply)
		if len(col.calls) == 1 {
			return reply, nil
		}
		slab := make([]*matrix.Dense, (box.IHi-box.ILo)*nj)
		for _, rec := range reply.CBlocks {
			slab[(rec.Key.I-box.ILo)*nj+rec.Key.J-box.JLo] = denseOf(rec.Block)
		}
		tiles = core.FoldSlab(tiles, slab)
	}
	folded := new(multiplyReply)
	for t, d := range tiles {
		if d != nil {
			folded.CBlocks = append(folded.CBlocks, blockRec{Key: box.TileKey(t), Block: d})
		}
	}
	return folded, nil
}

// jobAttempts is how many scheduling attempts one call gets across the
// membership before the local fallback.
const jobAttempts = 6

// acrossMembers is runJob's scheduling loop: acquire a live member, run one
// attempt on it, and on a failure try calls retryable back off (d.backoff)
// and move to the next live member, reconnecting dead ones when the pool
// looks empty, for at most jobAttempts attempts. Attempt a walks the ring
// from position home+a.
// A nil error is success; exhausted means the attempts ran out or the pool
// drained, err being the last failure (ErrNoWorkers if no member was ever
// reached); any other error ended the loop for good — ctx, or a final try.
func (d *Driver) acrossMembers(ctx context.Context, meter *JobMeter, home int, try func(m *member) (retry bool, err error)) (exhausted bool, err error) {
	var lastErr error
	for attempt := 0; attempt < jobAttempts; {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		m, anyLive := d.acquireMember(home + attempt)
		if m == nil {
			if anyLive {
				// Every live member's in-flight window is full: wait for a
				// slot (or a new member) without burning a retry attempt.
				time.Sleep(200 * time.Microsecond)
				continue
			}
			if d.reconnectAny() {
				continue
			}
			// Keep the real failure when a call already failed; the drained
			// pool is only the reason we stopped retrying.
			if lastErr == nil {
				lastErr = ErrNoWorkers
			}
			break
		}
		retry, err := try(m)
		m.release()
		if err == nil {
			return false, nil
		}
		if !retry {
			return false, err
		}
		atomic.AddInt64(&m.events.Live().Retries, 1)
		lastErr = err
		attempt++
		if attempt < jobAttempts {
			atomic.AddInt64(&d.rec.Net.Live().CuboidRetries, 1)
			meter.noteRetry()
			time.Sleep(d.backoff.Delay(attempt))
		}
	}
	return true, lastErr
}

// runJob schedules one call across the membership (acrossMembers). When
// every attempt fails — or no worker is left — the call is computed locally
// with the workers' exact arithmetic, when the driver holds its operand
// blocks. Every attempt runs the whole call: its cuboids are idempotent.
//
// parent is the column's span: each RPC attempt (and the local fallback)
// records a child under it, so retries and reassignments are visible as
// sibling attempts on the timeline.
func (d *Driver) runJob(ctx context.Context, args *multiplyArgs, parent obs.Span) (*multiplyReply, error) {
	if args.pull {
		atomic.AddInt64(&d.rec.Net.Live().PullJobs, 1)
	}
	var reply *multiplyReply
	exhausted, err := d.acrossMembers(ctx, args.meter, args.home, func(m *member) (bool, error) {
		asp := d.tracer.Start(parent.ID(), "rpc.multiply", obs.KindRPC)
		defer asp.End()
		args.label(asp)
		if asp.Active() {
			asp.SetWorker(m.addr)
		}
		args.traceSpan = uint64(asp.ID())
		if args.pull {
			// The assigned worker must know which manifest owner is itself;
			// ownership is decided at dispatch, not plan time.
			args.pullSelf = m.addr
		}
		rep := new(multiplyReply)
		callStart := time.Now()
		err := d.call(m, methodMultiply, asp.ID(), codec.Writes(blockSender{&m.tracker, d.rec}.appendMultiplyArgs, args),
			codec.Reads(decodeMultiplyReply, rep), d.opts.CallTimeout)
		if err == nil {
			if d.noteRPCDuration(m, time.Since(callStart)) && asp.Active() {
				asp.SetAttr("straggler", "true")
			}
			if args.pull {
				n := d.rec.Net.Live()
				atomic.AddInt64(&n.PullCacheHits, rep.pullHits)
				atomic.AddInt64(&n.PullPeerFetches, rep.pullFetches)
				atomic.AddInt64(&n.PullPeerBytes, rep.pullPeerBytes)
			}
			reply = rep
			return false, nil
		}
		if asp.Active() {
			asp.SetAttr("error", err.Error())
		}
		if errors.Is(err, codec.ErrFrameTooLarge) {
			// No worker can be sent this call: the plan, not the pool, is at
			// fault, so neither a retry nor the local fallback applies. A
			// column over half a frame already went out as its cuboids
			// (planColumn), so this call is one cuboid, and a finer
			// partition on any axis makes it smaller.
			return false, fmt.Errorf("distnet: a cuboid does not fit one wire frame; partition finer: %w", err)
		}
		var re *codec.RemoteError
		var pe *pullError
		if !errors.As(err, &re) {
			return true, err
		}
		switch {
		case errors.Is(re, errUnknownDigest):
			// The worker no longer holds blocks we sent as references
			// (restart, eviction, or epoch turnover). Forget what we
			// believed it had; the retry ships everything inline.
			atomic.AddInt64(&d.rec.Net.Live().CacheRefMisses, 1)
			m.tracker.forget()
		case errors.As(re, &pe):
			// Pull resolution failed on the worker — a peer died mid-fetch,
			// or a manifest entry points at an evicted band. The driver is
			// the pull plane's last resort: when it holds the operand
			// blocks, the call downgrades to push — prepared now, like any
			// push call, so this retry and every later one frame the same
			// encoded records — and the retry ships them inline.
			atomic.AddInt64(&d.rec.Net.Live().PullFallbacks, 1)
			if args.pull && args.pullInline {
				args.pull = false
				if perr := args.prep.prepare(args); perr != nil {
					return false, perr
				}
			}
		case !transientRefusal(re):
			// The worker computed and rejected the request: retrying the
			// same malformed call elsewhere cannot help.
			return false, fmt.Errorf("distnet: worker %s rejected multiply: %w", m.addr, err)
		}
		return true, err
	})
	if err == nil {
		return reply, nil
	}
	if !exhausted {
		return nil, err
	}
	// Local fallback needs the operand blocks driver-side; a pull call whose
	// blocks the driver never fully held cannot be computed locally.
	if args.pull && !args.pullInline {
		return nil, fmt.Errorf("distnet: multiply failed after %d attempts: %w", jobAttempts, err)
	}
	atomic.AddInt64(&d.rec.Net.Live().LocalFallbacks, 1)
	args.meter.noteLocalFallback()
	lsp := d.tracer.Start(parent.ID(), "local-fallback", obs.KindDriver)
	defer lsp.End()
	args.label(lsp)
	if lsp.Active() {
		lsp.SetAttr("cause", err.Error())
	}
	reply = new(multiplyReply)
	if _, err := computeCuboid(args, reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// jobPrep prepares the operand blocks one job ships inline: each distinct
// block is planned, encoded and (when cacheable) given its cache key exactly
// once — a SHA-256 digest or a fresh key (blockKeys), either bound to one
// content — and the record is shared by every column that replicates the
// block: the same block pointer appears in Q or P columns, the replication
// Eq. (4) counts, so the replicas share one key. The record's size feeds the
// job meter, its key the worker cache references, and blockSender frames
// every send from it.
// Push prepares every call as it dispatches; pull only the calls that
// downgrade, when they do — a failure-free pull prepares nothing. Records
// live until the multiply returns — retries resend from them; a record holds
// the block's index structure, its values stay in the block's own storage.
type jobPrep struct {
	d *Driver
	// epoch stamps the job's cache inserts and references; 0 with the block
	// cache off, when no block is keyed either.
	epoch uint64
	// mu guards recs: downgrades prepare from the column goroutines.
	mu   sync.Mutex
	recs map[matrix.Block]*codec.Prepared
}

func (d *Driver) newJobPrep() *jobPrep {
	jp := &jobPrep{d: d, recs: map[matrix.Block]*codec.Prepared{}}
	if !d.opts.DisableBlockCache {
		jp.epoch = d.epoch.Add(1)
	}
	return jp
}

// prepare stamps the job epoch on one call, points each of its block records
// at the block's prepared form — building it on first sight — and charges the
// job meter the call's payload bytes.
func (jp *jobPrep) prepare(args *multiplyArgs) error {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	args.cacheEpoch = jp.epoch
	var payload int64
	for _, list := range [2][]blockRec{args.ABlocks, args.BBlocks} {
		for i := range list {
			rec := &list[i]
			p, ok := jp.recs[rec.Block]
			if !ok {
				var err error
				if p, err = codec.Prepare(rec.Block); err != nil {
					return fmt.Errorf("distnet: block %v: %w", rec.Key, err)
				}
				n := jp.d.rec.Net.Live()
				// Blocks below the cacheable threshold stay keyless and
				// always ship inline. A handle's block ships under the
				// digest its pull manifests carry.
				switch {
				case jp.d.opts.DisableBlockCache || p.Size() < minCacheableBytes:
				case rec.digest != nil:
					p.Digest, p.HasDigest = *rec.digest, true
				case jp.d.keys.assign(jp.epoch, p):
					atomic.AddInt64(&n.BlocksHashed, 1)
				}
				atomic.AddInt64(&n.BlocksPrepared, 1)
				jp.recs[rec.Block] = p
			}
			rec.prep = p
			payload += p.Size()
		}
	}
	args.meter.noteDispatch(payload)
	return nil
}

// multiply is the push job: each column's slices are the operand blocks
// inside its voxel box, shipped inline (or as digest references to blocks
// the worker already holds).
func (d *Driver) multiply(ctx context.Context, a, b *bmat.BlockMatrix, params core.Params, opts MultiplyOptions) (*bmat.BlockMatrix, error) {
	if err := core.CheckConformable(a.Rows, a.Cols, a.BlockSize, b.Rows, b.Cols, b.BlockSize); err != nil {
		return nil, fmt.Errorf("distnet: %w", err)
	}
	return d.runCuboids(ctx, cuboidJob{
		rows: a.Rows, inner: a.Cols, cols: b.Cols, blockSize: a.BlockSize,
		params: params, transfer: core.TransferPush, callBytes: opts.callBytes(),
		fill: func(args *multiplyArgs) {
			args.ABlocks = boxRecs(a, args.ILo, args.IHi, args.KLo, args.KHi)
			args.BBlocks = boxRecs(b, args.KLo, args.KHi, args.JLo, args.JHi)
		},
	})
}

// boxRecs lists m's present blocks inside [rlo,rhi)×[clo,chi), row-major.
func boxRecs(m *bmat.BlockMatrix, rlo, rhi, clo, chi int) []blockRec {
	var recs []blockRec
	for i := rlo; i < rhi; i++ {
		for j := clo; j < chi; j++ {
			if blk := m.Block(i, j); blk != nil {
				recs = append(recs, blockRec{Key: bmat.BlockKey{I: i, J: j}, Block: blk})
			}
		}
	}
	return recs
}
