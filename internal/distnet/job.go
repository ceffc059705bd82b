package distnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
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
// cuboids of one (p,q), and a column is a list of links: each one
// contiguous slab group on one holder, in ascending r. A holder multiplies
// its slabs, folds them into the running sum of the slabs before them —
// taken from the link before it, on its own worker or another — in
// ascending r (core.MultiplyColumn's order), and keeps the sum for the next
// link or, as the last link, returns the column's C blocks: every C block
// comes back once and the driver only places it. Under homes a column has
// one holder; under the k-ordered chain (chain.go) one per slab group; and a
// holder's group whose operands are over the job's call bound (θt, at most
// half a wire frame) is cut into consecutive links on that holder. A
// transfer mode is just a fill step; span tree, job meter, gauges and the
// retry/downgrade/local-fallback scheduler exist once, for every mode.
//
// That scheduler is how a multiply recovers, and all of it: a failed column
// re-runs all its links on holders picked afresh from the live members, a
// pull link whose worker cannot read its operands is downgraded to push,
// and a column that exhausts its attempts is computed on the driver with the
// workers' arithmetic. Nothing is persisted; a job that still fails is re-run
// whole.

// cuboidJob describes one multiply C = A×B to that path.
type cuboidJob struct {
	// A is rows×inner, B inner×cols, C rows×cols, all in blockSize blocks.
	rows, inner, cols, blockSize int
	params                       core.Params
	// transfer labels the root span; it never steers the path — fill does.
	transfer core.Transfer
	// callBytes bounds the operand bytes of one link (MultiplyOptions.
	// callBytes): a slab group over it is cut into more links.
	callBytes int64
	// fill gives one call — its voxel box and link already set — the slices
	// of its operand box while the job is planned: inline records for push
	// (Driver.multiply), band references for pull (Session.pullMultiply).
	fill func(args *multiplyArgs)
}

// column is one (p,q) column of a job: its links in ascending r, each one
// contiguous slab group on one holder. A column of one link is a lone call
// over all R slabs and carries no chain fields.
type column struct {
	links []*multiplyArgs
	// holders are the chain's holders, link group g's on holders[g], for the
	// first attempt; nil under homes, where the first link acquires a member
	// and every link follows it.
	holders []*member
	// home is the ring position runCuboids reserved for the column at plan
	// time (Driver.reserveHomes); attempt a starts there plus a.
	home int
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

// runCuboids runs one cuboid job end to end: the repartition (each link's
// slices reach its holder however fill arranged), the local multiplication
// and aggregation of each column on its holders, and the placement of the C
// blocks that come back. Aggregation order is fixed by slab index inside a
// column, and re-run, downgraded or locally-recomputed columns use the
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
	// column g = p·Q+q starts at base+g. The cursor advances by the job's
	// P·Q·R cuboids, not its P·Q columns: every job's base is where it was
	// when each cuboid was its own call, so an R = 1 job is placed exactly as
	// then, and a stream of repeated jobs mixing R = 1 and R > 1 keeps the
	// cross-job references that placement gave it.
	var wholes []*multiplyArgs
	core.ForEachCuboid(core.Params{P: params.P, Q: params.Q, R: 1}, gi, gj, gk, func(p, q, _ int, box core.Box) {
		wholes = append(wholes, r.newCall(p, q, box, nil))
	})
	slabs := r.slabBytes(wholes, gk)
	r.cut(wholes, slabs, r.planChain(wholes, slabs))
	if r.root.Active() {
		placement := core.PlaceHomes
		if r.columns[0].holders != nil {
			placement = core.PlaceChain
		}
		r.root.SetAttr("placement", placement.String())
	}
	r.replies = make([]*multiplyReply, len(r.columns))
	r.errs = make([]error, len(r.columns))

	// Prepare and dispatch, one column at a time on this goroutine: the first
	// column is on the wire while later blocks are still being encoded and
	// keyed, and the column goroutines only ever read.
	prep := d.newJobPrep()
	var wg sync.WaitGroup
	for idx := range r.columns {
		for _, link := range r.columns[idx].links {
			link.prep = prep
			if r.errs[idx] == nil && !link.pull {
				r.errs[idx] = prep.prepare(link)
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
	// same (P,Q,R). Every reply was checked on arrival (checkReply): each
	// block is dense, inside its column and of its slot's size.
	agg := d.tracer.Start(r.root.ID(), "aggregate", obs.KindDriver)
	out := bmat.New(job.rows, job.cols, job.blockSize)
	for _, reply := range r.replies {
		for _, rec := range reply.CBlocks {
			out.SetBlock(rec.Key.I, rec.Key.J, rec.Block)
		}
	}
	agg.End()
	return out, nil
}

// cut makes the job's columns from their whole calls and the placement's
// holders (planChain; nil under homes): each column's slab groups — all R
// slabs under homes, one per holder under the chain — are cut into links
// whose operands fit the call bound, a slab over it alone. A homes column
// inside the bound is its whole call. slabs are the columns' slab bytes.
func (r *cuboidRun) cut(wholes []*multiplyArgs, slabs [][2][]int64, holders []*member) {
	R := r.job.params.R
	base := r.d.reserveHomes(r.job.params.Tasks())
	// A link waits for its incoming sum, and keeps its outgoing one, for a
	// quarter of the call timeout, so a link whose predecessor is lost fails
	// well inside its own call's deadline.
	wait := r.d.opts.CallTimeout / 4
	r.columns = make([]column, len(wholes))
	for g, whole := range wholes {
		col := &r.columns[g]
		col.home, col.holders = base+g, holders
		bytes := func(rr int) int64 { return slabs[g][0][rr] + slabs[g][1][rr] }
		groups := max(len(holders), 1)
		for h := 0; h < groups; h++ {
			glo, ghi := core.ChainSlabs(h, groups, R)
			for lo := glo; lo < ghi; {
				hi, n := lo+1, bytes(lo)
				for ; hi < ghi && n+bytes(hi) <= r.job.callBytes; hi++ {
					n += bytes(hi)
				}
				link := whole // a lone link of all R slabs is the whole call
				if hi-lo < R {
					link = r.newLink(whole, lo, hi, h, wait)
				}
				col.links = append(col.links, link)
				lo = hi
			}
		}
	}
}

// newCall is the call of column (p,q) over box, all R slabs, as link (nil
// for the whole call), filled with the slices of its operand box.
func (r *cuboidRun) newCall(p, q int, box core.Box, link *chainLink) *multiplyArgs {
	args := &multiplyArgs{
		ILo: box.ILo, IHi: box.IHi, JLo: box.JLo, JHi: box.JHi, KLo: box.KLo, KHi: box.KHi,
		slabs:   r.job.params.R,
		cuboidP: p, cuboidQ: q,
		meter: r.meter,
		job:   r.job,
		link:  link,
	}
	r.job.fill(args)
	return args
}

// newLink is whole's link of slabs [lo, hi) on the column's holder group:
// the box is still the whole column and slabs its R, but the blocks are
// only those of the link's slabs. Its chain id and holders are set when it
// goes out (runLinks).
func (r *cuboidRun) newLink(whole *multiplyArgs, lo, hi, group int, wait time.Duration) *multiplyArgs {
	return r.newCall(whole.cuboidP, whole.cuboidQ, whole.box(), &chainLink{lo: lo, hi: hi, wait: wait, group: group})
}

// slabBytes is what each of a column's R slabs holds of A ([0]) and of B
// ([1]) in a worker's memory, column by column, the measure θt bounds: each
// inline record's stored size, or — for an operand pulled from a handle
// that kept no source, whose blocks the driver never sees — a dense block
// for each slot of its box.
func (r *cuboidRun) slabBytes(wholes []*multiplyArgs, gk int) [][2][]int64 {
	R, dense := r.job.params.R, int64(r.job.blockSize)*int64(r.job.blockSize)*8
	slabOf := make([]int, gk)
	for rr := 0; rr < R; rr++ {
		lo, hi := core.GridSpan(rr, gk, R)
		for k := lo; k < hi; k++ {
			slabOf[k] = rr
		}
	}
	out := make([][2][]int64, len(wholes))
	for g, call := range wholes {
		a, b := make([]int64, R), make([]int64, R)
		for _, rec := range call.ABlocks {
			a[slabOf[rec.Key.J]] += rec.Block.SizeBytes()
		}
		for _, rec := range call.BBlocks {
			b[slabOf[rec.Key.I]] += rec.Block.SizeBytes()
		}
		for k := call.KLo; call.aRef.sourceless && k < call.KHi; k++ {
			a[slabOf[k]] += dense * int64(call.IHi-call.ILo)
		}
		for k := call.KLo; call.bRef.sourceless && k < call.KHi; k++ {
			b[slabOf[k]] += dense * int64(call.JHi-call.JLo)
		}
		out[g] = [2][]int64{a, b}
	}
	return out
}

// checkReply places a reply's C blocks as the call's tiles (boxTiles), each
// of the dimensions C's block has there, and refuses, as errWire, a reply
// that does not fit: a worker's answer is checked where it arrives, before
// the driver indexes or places anything by it. A call built without its job
// checks placement only.
func (a *multiplyArgs) checkReply(reply *multiplyReply) ([]*matrix.Dense, error) {
	box := a.box()
	return boxTiles(box, reply.CBlocks, func(t int) (rows, cols int, ok bool) {
		if a.job == nil {
			return 0, 0, false
		}
		key, bs := box.TileKey(t), a.job.blockSize
		return min(bs, a.job.rows-key.I*bs), min(bs, a.job.cols-key.J*bs), true
	})
}

// runOne runs one column (runColumn) under the span of its scheduling
// lifetime and commits its C blocks: the reply slot and the job meter.
// Commits are first-writer-wins by construction — a column is run by
// exactly one goroutine. The span keeps the name "cuboid": a column is its
// R cuboids, counted in the span's slabs attribute.
func (r *cuboidRun) runOne(idx int) {
	first := r.columns[idx].links[0]
	csp := r.d.tracer.Start(r.root.ID(), "cuboid", obs.KindDriver)
	if csp.Active() {
		csp.SetCuboid(first.cuboidP, first.cuboidQ, 0)
		csp.SetAttr("slabs", strconv.Itoa(first.slabs))
	}
	defer csp.End()
	reply, err := r.d.runColumn(r.ctx, &r.columns[idx], csp)
	if err != nil {
		if csp.Active() {
			csp.SetAttr("error", err.Error())
		}
		r.errs[idx] = err
		return
	}
	r.replies[idx] = reply
	r.meter.noteReply(reply)
	r.meter.noteCommit(r.job.params.R)
}

// jobAttempts is how many scheduling attempts one column gets across the
// membership before the local fallback.
const jobAttempts = 6

// runColumn is the one runner of a column: each attempt runs all its links
// (runLinks) on holders picked for it (pickHolders), and a failed attempt
// is classified link by link (classify) and, when every failure is
// retryable, backed off (d.backoff) and re-run, for at most jobAttempts
// attempts; dead members are reconnected when the pool looks empty. When
// every attempt fails — or no worker is left — the column is computed
// locally with the workers' exact arithmetic, when the driver holds its
// operand blocks. Every attempt runs the whole column: its cuboids are
// idempotent.
//
// parent is the column's span: each RPC (and the local fallback) records a
// child under it, so retries and reassignments are visible as sibling
// attempts on the timeline.
func (d *Driver) runColumn(ctx context.Context, col *column, parent obs.Span) (*multiplyReply, error) {
	first := col.links[0]
	if first.pull {
		atomic.AddInt64(&d.rec.Net.Live().PullJobs, 1)
	}
	var lastErr error
	for attempt := 0; attempt < jobAttempts; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		holders, held, anyLive := d.pickHolders(col, attempt)
		if holders == nil {
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
		reply, failed, retry, err := d.runLinks(ctx, col, holders, held, parent)
		if err == nil {
			return reply, nil
		}
		if !retry {
			return nil, err
		}
		for _, m := range failed {
			atomic.AddInt64(&m.events.Live().Retries, 1)
		}
		lastErr = err
		attempt++
		if attempt < jobAttempts {
			atomic.AddInt64(&d.rec.Net.Live().CuboidRetries, 1)
			first.meter.noteRetry()
			time.Sleep(d.backoff.Delay(attempt))
		}
	}
	return d.computeLocally(col, parent, lastErr)
}

// pickHolders is attempt's holders, one per slab group. Under homes it is
// the first live member with a free slot from the column's home plus
// attempt, its slot taken (held); under the chain, the plan's holders on
// the first attempt and then as many live members, picked from the ring at
// the same position and put in member order (pickLive). Nil holders with
// anyLive set mean every live member is busy.
func (d *Driver) pickHolders(col *column, attempt int) (holders []*member, held, anyLive bool) {
	switch {
	case col.holders == nil:
		m, anyLive := d.acquireMember(col.home + attempt)
		if m == nil {
			return nil, false, anyLive
		}
		return []*member{m}, true, true
	case attempt == 0:
		return col.holders, false, true
	}
	live := d.liveMembers()
	if len(live) == 0 {
		return nil, false, false
	}
	return pickLive(live, col.home+attempt, len(col.holders)), false, true
}

// runLinks runs a column's links once, each on its group's holder, and
// returns the last link's reply; failed are the holders whose links failed
// for a reason of their own — a link that lost its running sum failed for
// its predecessor's — and retry whether every failure allows another
// attempt. The links all go out at once where each has a holder of its
// own — the chain's holders ascend in member order, so a link waits only on
// a holder of lower index and concurrent chains cannot wait on each other
// in a cycle. Otherwise each goes out once its predecessor has replied, so
// the sum it takes is already made, and a holder's slot is kept across its
// consecutive links, so a self-take never queues behind other columns while
// its sum waits. held says the caller holds holders[0]'s slot.
func (d *Driver) runLinks(ctx context.Context, col *column, holders []*member, held bool, parent obs.Span) (reply *multiplyReply, failed []*member, retry bool, err error) {
	links := col.links
	if len(links) > 1 {
		id := rand.Uint64()
		for i, link := range links {
			l := link.link
			l.id, l.self, l.prev = id, holderOf(link, holders).addr, ""
			if i > 0 {
				l.prev = holderOf(links[i-1], holders).addr
			}
		}
	}
	concurrent := len(links) > 1 && len(links) == len(holders)
	for g := 1; concurrent && g < len(holders); g++ {
		concurrent = holders[g] != holders[g-1]
	}
	errs := make([]error, len(links))
	if concurrent {
		var wg sync.WaitGroup
		for i, link := range links {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := d.runLink(ctx, link, holders[i], false, false, parent)
				if errs[i] = err; i == len(links)-1 {
					reply = rep
				}
			}()
		}
		wg.Wait()
	} else {
		for i, link := range links {
			m := holderOf(link, holders)
			keep := i+1 < len(links) && holderOf(links[i+1], holders) == m
			if reply, errs[i] = d.runLink(ctx, link, m, held, keep, parent); errs[i] != nil {
				break
			}
			held = keep
		}
	}
	if err = errors.Join(errs...); err == nil {
		return reply, nil, false, nil
	}
	retry = true
	for i, e := range errs {
		if e == nil {
			continue
		}
		m := holderOf(links[i], holders)
		if !lostSum(e) {
			failed = append(failed, m)
		}
		if ok, e := d.classify(links[i], m, e); !ok && retry {
			retry, err = false, e
		}
	}
	return nil, failed, retry, err
}

// lostSum is whether a link failed because the running sum it takes was
// lost with its predecessor's attempt.
func lostSum(err error) bool {
	var re *codec.RemoteError
	var fe *peerFetchError
	return errors.As(err, &re) && (errors.Is(re, errNoSum) || errors.As(re, &fe))
}

// holderOf is the member of holders that runs link: its group's.
func holderOf(link *multiplyArgs, holders []*member) *member {
	if link.link == nil {
		return holders[0]
	}
	return holders[link.link.group]
}

// pickLive is h of live, picked from ring position start on and put in
// member order; fewer than h live members repeat.
func pickLive(live []*member, start, h int) []*member {
	picks := make([]int, h)
	for g := range picks {
		picks[g] = (start + g) % len(live)
	}
	sort.Ints(picks)
	holders := make([]*member, h)
	for g, i := range picks {
		holders[g] = live[i]
	}
	return holders
}

// runLink runs one link on m under an rpc.multiply span, first taking a
// slot of m unless held says the caller took it, and gives the slot back
// unless keep says the next link runs on m too and this one succeeded. A
// reply that does not fit its call fails like a broken frame.
func (d *Driver) runLink(ctx context.Context, args *multiplyArgs, m *member, held, keep bool, parent obs.Span) (_ *multiplyReply, err error) {
	if !held {
		select {
		case <-m.slots:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer func() {
		if err != nil || !keep {
			m.release()
		}
	}()
	asp := d.tracer.Start(parent.ID(), "rpc.multiply", obs.KindRPC)
	defer asp.End()
	args.label(asp)
	if asp.Active() {
		asp.SetWorker(m.addr)
	}
	args.traceSpan = uint64(asp.ID())
	if args.pull {
		// The assigned worker must know which band is its own; ownership is
		// decided at dispatch, not plan time.
		args.pullSelf = m.addr
	}
	rep := new(multiplyReply)
	callStart := time.Now()
	err = d.call(m, methodMultiply, asp.ID(), codec.Writes(blockSender{&m.tracker, d.rec}.appendMultiplyArgs, args),
		codec.Reads(decodeMultiplyReply, rep), d.opts.CallTimeout)
	if err == nil {
		_, err = args.checkReply(rep)
	}
	if err != nil {
		if asp.Active() {
			asp.SetAttr("error", err.Error())
		}
		return nil, err
	}
	// A link past the first waits for its sum, so only a lone call's time
	// says how fast its worker is.
	if args.link == nil && d.noteRPCDuration(m, time.Since(callStart)) && asp.Active() {
		asp.SetAttr("straggler", "true")
	}
	if args.pull {
		n := d.rec.Net.Live()
		atomic.AddInt64(&n.PullPeerFetches, rep.pullFetches)
		atomic.AddInt64(&n.PullPeerBytes, rep.pullPeerBytes)
	}
	return rep, nil
}

// classify is what one failed link on m means for its column: retry, after
// whatever the failure asks of the driver, or an error final for the job.
func (d *Driver) classify(args *multiplyArgs, m *member, err error) (retry bool, _ error) {
	if errors.Is(err, codec.ErrFrameTooLarge) {
		// No worker can be sent this link: the plan, not the pool, is at
		// fault, so neither a retry nor the local fallback applies. A slab
		// group over half a frame is already cut into links of one slab
		// (cut), so this link is one cuboid, and a finer partition on any
		// axis makes it smaller.
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
		// A pull read failed on the worker — a peer died mid-fetch, or a
		// band it names was evicted. The driver is the pull plane's last
		// resort: when it holds the operand blocks, the link downgrades to
		// push — prepared now, like any push link, so this retry and every
		// later one frame the same encoded records — and the retry ships
		// them inline.
		atomic.AddInt64(&d.rec.Net.Live().PullFallbacks, 1)
		if args.pull && args.pullInline {
			args.pull = false
			if perr := args.prep.prepare(args); perr != nil {
				return false, perr
			}
		}
	case lostSum(re):
		// The running sum the link needed was lost with its predecessor's
		// attempt: the column re-runs all its links.
	case !transientRefusal(re):
		// The worker computed and rejected the request: retrying the
		// same malformed call elsewhere cannot help.
		return false, fmt.Errorf("distnet: worker %s rejected multiply: %w", m.addr, err)
	}
	return true, err
}

// computeLocally is the local fallback: the whole column — every link's
// blocks, all R slabs — computed on the driver by the workers' arithmetic.
// A pull column whose blocks the driver never fully held cannot be.
func (d *Driver) computeLocally(col *column, parent obs.Span, cause error) (*multiplyReply, error) {
	first := col.links[0]
	if first.pull && !first.pullInline {
		return nil, fmt.Errorf("distnet: multiply failed after %d attempts: %w", jobAttempts, cause)
	}
	atomic.AddInt64(&d.rec.Net.Live().LocalFallbacks, 1)
	first.meter.noteLocalFallback()
	whole := *first
	whole.link, whole.ABlocks, whole.BBlocks = nil, nil, nil
	for _, link := range col.links {
		whole.ABlocks = append(whole.ABlocks, link.ABlocks...)
		whole.BBlocks = append(whole.BBlocks, link.BBlocks...)
	}
	lsp := d.tracer.Start(parent.ID(), "local-fallback", obs.KindDriver)
	defer lsp.End()
	whole.label(lsp)
	if lsp.Active() {
		lsp.SetAttr("cause", cause.Error())
	}
	tiles, _, err := foldLink(&whole, nil)
	if err != nil {
		return nil, err
	}
	return &multiplyReply{CBlocks: tileRecs(whole.box(), tiles)}, nil
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
				// always ship inline.
				if !jp.d.opts.DisableBlockCache && p.Size() >= minCacheableBytes && jp.d.keys.assign(jp.epoch, p) {
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
			box := args.operandBox()
			args.ABlocks = boxRecs(a, box.ILo, box.IHi, box.KLo, box.KHi)
			args.BBlocks = boxRecs(b, box.KLo, box.KHi, box.JLo, box.JHi)
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
