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
// prepare → dispatch → aggregate. A transfer mode is just a fill step; span
// tree, job meter, gauges, checkpointing, the retry/downgrade/local-fallback
// scheduler and the aggregation fold exist once, for every mode.

// cuboidJob describes one multiply C = A×B to that path.
type cuboidJob struct {
	// A is rows×inner, B inner×cols, C rows×cols, all in blockSize blocks.
	rows, inner, cols, blockSize int
	params                       core.Params
	// transfer labels the root span; it never steers the path — fill does.
	transfer core.Transfer
	// ckpt, when non-nil, persists each committed cuboid and restores the
	// ones a previous run of the same job already finished.
	ckpt *checkpointer
	// fill gives one cuboid — its voxel box already set — its slices, once,
	// in index order, while the job is planned: inline records for push
	// (Driver.multiply), placement manifests for pull (Session.pullMultiply).
	fill func(args *multiplyArgs)
}

// cuboidRun is one job in flight: what its cuboid goroutines share.
type cuboidRun struct {
	d       *Driver
	ctx     context.Context
	job     *cuboidJob
	root    obs.Span
	meter   *JobMeter
	cuboids []*multiplyArgs
	replies []*multiplyReply
	errs    []error
}

// runCuboids runs one cuboid job end to end: the repartition (each cuboid's
// slices reach its worker however fill arranged) and the aggregation (summing
// the partial C blocks that come back). Aggregation order is fixed by cuboid
// index, and reassigned, downgraded or locally-recomputed cuboids use the
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

	// Plan: one filled cuboid per voxel box, in core's (p,q,r) plan order.
	core.ForEachCuboid(params, gi, gj, gk, func(p, q, rr int, box core.Box) {
		args := &multiplyArgs{
			ILo: box.ILo, IHi: box.IHi, JLo: box.JLo, JHi: box.JHi, KLo: box.KLo, KHi: box.KHi,
			cuboidP: p, cuboidQ: q, cuboidR: rr,
			encoding: d.opts.Encoding,
			meter:    r.meter,
		}
		job.fill(args)
		r.cuboids = append(r.cuboids, args)
	})
	if job.ckpt != nil {
		if err := job.ckpt.ensureManifest(&job, len(r.cuboids)); err != nil {
			return nil, err
		}
	}
	r.replies = make([]*multiplyReply, len(r.cuboids))
	r.errs = make([]error, len(r.cuboids))

	// Prepare and dispatch, one cuboid at a time on this goroutine: the first
	// cuboid is on the wire while later blocks are still being encoded and
	// hashed, and the cuboid goroutines only ever read.
	prep := d.newJobPrep()
	var restored int
	var wg sync.WaitGroup
	for idx, args := range r.cuboids {
		if job.ckpt != nil {
			if reply, ok := job.ckpt.load(idx, job.rows, job.cols, job.blockSize); ok {
				r.replies[idx] = reply
				restored++
				continue
			}
		}
		args.prep = prep
		if !args.pull {
			if err := prep.prepare(args); err != nil {
				r.errs[idx] = err
				continue
			}
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
	if restored > 0 && r.root.Active() {
		r.root.SetAttr("checkpoint-restored", fmt.Sprintf("%d", restored))
	}
	for _, err := range r.errs {
		if err != nil {
			return nil, fmt.Errorf("distnet: multiply: %w", err)
		}
	}

	// Aggregate with core's fold, in plan order: the bits of core.MultiplyCuboid
	// at the same (P,Q,R).
	agg := d.tracer.Start(r.root.ID(), "aggregate", obs.KindDriver)
	out := bmat.New(job.rows, job.cols, job.blockSize)
	lists := make([][]core.Partial, len(r.replies))
	for idx, reply := range r.replies {
		lists[idx] = make([]core.Partial, len(reply.CBlocks))
		for i, rec := range reply.CBlocks {
			lists[idx][i] = core.Partial{Key: rec.Key, Block: denseOf(rec.Block)}
		}
	}
	core.FoldPartials(out, lists, nil)
	agg.End()
	return out, nil
}

// denseOf is b as a dense block, converting (copying) only other formats.
func denseOf(b matrix.Block) *matrix.Dense {
	if dense, ok := b.(*matrix.Dense); ok {
		return dense
	}
	return b.Dense()
}

// commit records one cuboid's result: the reply slot, the job meter and,
// when the job checkpoints, the disk. Commits are first-writer-wins by
// construction — a cuboid is run by exactly one goroutine.
func (r *cuboidRun) commit(idx int, reply *multiplyReply) {
	r.replies[idx] = reply
	r.meter.noteCommit(reply)
	if ckpt := r.job.ckpt; ckpt != nil {
		ckpt.store(idx, reply, r.job.rows, r.job.cols, r.job.blockSize)
	}
}

// runOne dispatches one cuboid with runJob's full retry, downgrade and
// local-fallback machinery, under the span of its scheduling lifetime.
func (r *cuboidRun) runOne(idx int) {
	args := r.cuboids[idx]
	csp := r.d.tracer.Start(r.root.ID(), "cuboid", obs.KindDriver)
	csp.SetCuboid(args.cuboidP, args.cuboidQ, args.cuboidR)
	defer csp.End()
	reply, err := r.d.runJob(r.ctx, args, csp)
	if err != nil {
		if csp.Active() {
			csp.SetAttr("error", err.Error())
		}
		r.errs[idx] = err
		return
	}
	r.commit(idx, reply)
}

// jobAttempts is how many scheduling attempts one cuboid gets across the
// membership before the local fallback.
const jobAttempts = 6

// acrossMembers is runJob's scheduling loop: acquire a live member, run one
// attempt on it, and on a failure try calls retryable back off (d.backoff)
// and move to the next live member, reconnecting dead ones when the pool
// looks empty, for at most jobAttempts attempts.
// A nil error is success; exhausted means the attempts ran out or the pool
// drained, err being the last failure (ErrNoWorkers if no member was ever
// reached); any other error ended the loop for good — ctx, or a final try.
func (d *Driver) acrossMembers(ctx context.Context, meter *JobMeter, try func(m *member) (retry bool, err error)) (exhausted bool, err error) {
	var lastErr error
	for attempt := 0; attempt < jobAttempts; {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		m, anyLive := d.acquireMember()
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

// runJob schedules one cuboid across the membership (acrossMembers). When
// every attempt fails — or no worker is left — the cuboid is computed
// locally with the workers' exact arithmetic, unless fallback is disabled.
//
// parent is the cuboid's span: each RPC attempt (and the local fallback)
// records a child under it, so retries and reassignments are visible as
// sibling attempts on the timeline.
func (d *Driver) runJob(ctx context.Context, args *multiplyArgs, parent obs.Span) (*multiplyReply, error) {
	if args.pull {
		atomic.AddInt64(&d.rec.Net.Live().PullJobs, 1)
	}
	var reply *multiplyReply
	exhausted, err := d.acrossMembers(ctx, args.meter, func(m *member) (bool, error) {
		asp := d.tracer.Start(parent.ID(), "rpc.multiply", obs.KindRPC)
		defer asp.End()
		if asp.Active() {
			asp.SetWorker(m.addr)
			asp.SetCuboid(args.cuboidP, args.cuboidQ, args.cuboidR)
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
			// No worker can be sent this cuboid: the plan, not the pool, is
			// at fault, so neither a retry nor the local fallback applies.
			return false, fmt.Errorf("distnet: cuboid does not fit one wire frame; partition finer: %w", err)
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
			// blocks, the cuboid downgrades to push — prepared now, like any
			// push cuboid, so this retry and every later one frame the same
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
			// same malformed cuboid elsewhere cannot help.
			return false, fmt.Errorf("distnet: worker %s rejected cuboid: %w", m.addr, err)
		}
		return true, err
	})
	if err == nil {
		return reply, nil
	}
	if !exhausted {
		return nil, err
	}
	// Local fallback needs the operand blocks driver-side; a pull cuboid
	// whose blocks the driver never fully held cannot be computed locally.
	if d.opts.DisableLocalFallback || (args.pull && !args.pullInline) {
		return nil, fmt.Errorf("distnet: cuboid failed after %d attempts: %w", jobAttempts, err)
	}
	atomic.AddInt64(&d.rec.Net.Live().LocalFallbacks, 1)
	args.meter.noteLocalFallback()
	lsp := d.tracer.Start(parent.ID(), "local-fallback", obs.KindDriver)
	defer lsp.End()
	if lsp.Active() {
		lsp.SetCuboid(args.cuboidP, args.cuboidQ, args.cuboidR)
		lsp.SetAttr("cause", err.Error())
	}
	reply = new(multiplyReply)
	if _, err := computeCuboid(args, reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// jobPrep prepares the operand blocks one job ships inline: each distinct
// block is planned, encoded and (when cacheable) digested exactly once, and
// the record is shared by every cuboid that replicates the block — the same
// block pointer appears in Q or P cuboids, the replication Eq. (4) counts.
// The record's size feeds the job meter, its digest the worker cache
// references, and blockSender frames every send from it.
// Push prepares every cuboid as it dispatches; pull only the cuboids that
// downgrade, when they do — a failure-free pull prepares nothing. Records
// live until the multiply returns — retries resend from them — which under an
// opt-in encoding means a second, encoded copy of the operands (see
// Options.Encoding).
type jobPrep struct {
	d *Driver
	// epoch scopes the job's digest references; 0 with the block cache off,
	// when no block is digested either.
	epoch uint64
	// mu guards recs: downgrades prepare from the cuboid goroutines.
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

// prepare stamps the job epoch on one cuboid, points each of its block
// records at the block's prepared form — building it on first sight — and
// charges the job meter the cuboid's payload bytes under the job's encoding.
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
				if p, err = codec.Prepare(rec.Block, jp.d.opts.Encoding); err != nil {
					return fmt.Errorf("distnet: block %v: %w", rec.Key, err)
				}
				// Blocks below the cacheable threshold stay digestless and
				// always ship inline. The digest covers the encoded bytes, so
				// it is taken under the job's encoding — the worker caches
				// what the bytes decoded to.
				if !jp.d.opts.DisableBlockCache && p.Size() >= minCacheableBytes {
					p.Hash()
				}
				atomic.AddInt64(&jp.d.rec.Net.Live().BlocksPrepared, 1)
				jp.recs[rec.Block] = p
			}
			rec.prep = p
			payload += p.Size()
		}
	}
	args.meter.noteDispatch(payload)
	return nil
}

// multiply is the push job: each cuboid's slices are the operand blocks
// inside its voxel box, shipped inline (or as digest references to blocks
// the worker already holds).
func (d *Driver) multiply(ctx context.Context, a, b *bmat.BlockMatrix, params core.Params, ckpt *checkpointer) (*bmat.BlockMatrix, error) {
	if err := core.CheckConformable(a.Rows, a.Cols, a.BlockSize, b.Rows, b.Cols, b.BlockSize); err != nil {
		return nil, fmt.Errorf("distnet: %w", err)
	}
	return d.runCuboids(ctx, cuboidJob{
		rows: a.Rows, inner: a.Cols, cols: b.Cols, blockSize: a.BlockSize,
		params: params, transfer: core.TransferPush, ckpt: ckpt,
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
