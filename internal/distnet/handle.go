package distnet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/obs"
)

// The driver half of the distributed block store. A Session snapshots a
// worker placement and an epoch; Handles name matrices whose blocks stay
// resident on those workers across pipeline operators, so intermediates move
// worker→worker and only Fetch results cross back to the driver. Losing a
// worker mid-pipeline is recoverable: every handle carries its lineage (the
// Put source or the operator and operand handles that produced it), and the
// session rebuilds resident state on a fresh placement.

// sessionAttempts bounds how many recovery rounds one session operation gets
// before it reports the underlying failure.
const sessionAttempts = 4

// Session is one epoch of the distributed block store: a placement snapshot
// (the live workers at NewSession or the last recovery) plus the handles
// resident on it. Sessions are NOT safe for concurrent use — pipelines are
// sequenced by the driver program, like a database session.
type Session struct {
	d       *Driver
	epoch   uint64
	workers []*member // ordered placement; bands assign by position

	handles    map[uint64]*Handle // live (unfreed) handles
	closed     bool
	recoveries int
	peerBytes  int64 // worker→worker payload the session's operators have moved
}

// Handle names a matrix resident in a session's workers, co-partitioned by
// block rows. The driver holds only this stub — the blocks stay remote until
// Fetch. A handle also carries its lineage so eviction or worker loss can be
// answered by recomputation.
type Handle struct {
	s          *Session
	id         uint64
	rows, cols int
	blockSize  int
	ib         int // block-row count, the partitioned axis

	freed  bool
	pinned bool
	bytes  int64 // resident payload at last build, for the gauge

	// Lineage: exactly one of src (Put) or op+la[+lb[+lc]] (pipeline
	// operator); transA and transB make a multiply read la or lb through a
	// transpose.
	src            *bmat.BlockMatrix
	op             uint8
	la, lb, lc     *Handle
	scalar         float64
	transA, transB bool

	// deferred marks a handle Run returned without running its operator —
	// a transpose or a guarded division a consumer may absorb (pipeline.go)
	// — with no bands and not registered until forced. holds counts the
	// deferred handles that read this one; unheld records that Run dropped
	// it meanwhile, so the last of them to go frees it.
	deferred bool
	holds    int
	unheld   bool
}

// Rows returns the handle's element row count.
func (h *Handle) Rows() int { return h.rows }

// Cols returns the handle's element column count.
func (h *Handle) Cols() int { return h.cols }

// BlockSize returns the handle's block side length.
func (h *Handle) BlockSize() int { return h.blockSize }

// liveMembers snapshots the schedulable members in table order. Leaving the
// draining ones out is what lets a session recovery re-snapshot pinned bands
// onto workers that will still exist when the drain window closes.
func (d *Driver) liveMembers() []*member {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []*member
	for _, m := range d.members {
		if m.schedulable() {
			out = append(out, m)
		}
	}
	return out
}

// placement snapshots the live members a session places bands on,
// reconnecting dead ones once when none is live.
func (d *Driver) placement() ([]*member, error) {
	workers := d.liveMembers()
	if len(workers) == 0 {
		d.reconnectAny()
		if workers = d.liveMembers(); len(workers) == 0 {
			return nil, ErrNoWorkers
		}
	}
	return workers, nil
}

// NewSession opens a distributed-block-store session on the current live
// membership. The returned session pins a placement snapshot; workers that
// die later are handled by lineage recovery, and workers added later join
// the placement at the next recovery.
func (d *Driver) NewSession(ctx context.Context) (*Session, error) {
	if err := d.checkOpen(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers, err := d.placement()
	if err != nil {
		return nil, err
	}
	return &Session{
		d:       d,
		epoch:   d.epoch.Add(1),
		workers: workers,
		handles: map[uint64]*Handle{},
	}, nil
}

// Workers returns the session's current placement width.
func (s *Session) Workers() int { return len(s.workers) }

// part is one worker's slice of a handle: block rows [lo, hi).
type part struct {
	m      *member
	lo, hi int
}

// parts splits ib block rows across the placement, in order. Empty parts are
// kept: a Put still creates the (empty) store entry there, so existence
// checks stay definite.
func (s *Session) parts(ib int) []part {
	w := len(s.workers)
	ps := make([]part, 0, w)
	for t := 0; t < w; t++ {
		lo, hi := core.GridSpan(t, ib, w)
		ps = append(ps, part{m: s.workers[t], lo: lo, hi: hi})
	}
	return ps
}

// partLocs renders a handle's placement for execArgs.
func (s *Session) partLocs(h *Handle) []partLoc {
	ps := s.parts(h.ib)
	locs := make([]partLoc, len(ps))
	for i, p := range ps {
		locs[i] = partLoc{Addr: p.m.addr, Lo: p.lo, Hi: p.hi}
	}
	return locs
}

// callMember performs one store call on a member under its in-flight window
// and the driver's call deadline; parent is the span the wire spans go under.
func (s *Session) callMember(ctx context.Context, m *member, method byte, parent obs.SpanID, args func(*codec.FrameWriter) error, reply func(*codec.FrameReader) error) error {
	select {
	case <-m.slots:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer m.release()
	return s.d.call(m, method, parent, args, reply, s.d.opts.CallTimeout)
}

// recoverableHandleErr recognizes failures lineage recovery can answer: dead
// or drained workers, missed deadlines, evicted or never-received handles,
// and worker→worker fetches that hit a dead peer.
func recoverableHandleErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrWorkerDead) || errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrNoWorkers) {
		return true
	}
	var re *codec.RemoteError
	var pe *pullError
	var fe *peerFetchError
	return errors.As(err, &re) && (errors.Is(re, ErrWorkerDraining) || errors.Is(re, errUnknownHandle) ||
		errors.As(re, &pe) || errors.As(re, &fe))
}

// evictionErr recognizes the specific recoverable failure that does not mean
// a worker died: the handle's bands are simply gone from a live worker's
// store (evicted, or never landed). Those are answered by rebuilding only
// the missing lineage, not by wiping and re-pushing the whole session —
// which, against a store smaller than the session's working set, would just
// re-trigger the eviction.
func evictionErr(err error) bool {
	var re *codec.RemoteError
	return errors.As(err, &re) && errors.Is(re, errUnknownHandle)
}

// sameSnapshot reports whether the driver's live membership still matches
// the session's placement — the discriminator between eviction (rebuild one
// handle) and churn (rebuild the session on a new placement).
func (s *Session) sameSnapshot() bool {
	live := s.d.liveMembers()
	if len(live) != len(s.workers) {
		return false
	}
	for i := range live {
		if live[i] != s.workers[i] {
			return false
		}
	}
	return true
}

// evictedHandle picks the handle an eviction error hit: the live handle a
// failed pull resolution names (a multiply reads two handles and only the
// worker knows whose band was gone), else target.
func (s *Session) evictedHandle(err error, target *Handle) *Handle {
	var pe *pullError
	if errors.As(err, &pe) && s.handles[pe.handle] != nil {
		return s.handles[pe.handle]
	}
	return target
}

// withRecovery runs fn, and on a recoverable failure rebuilds lost state
// from lineage and retries — the elasticity story of PR 2's Multiply,
// lifted to resident state. target, when non-nil, is the handle fn reads;
// an eviction on an unchanged placement rebuilds just the lineage chain of
// the handle it hit (first retry only), anything else re-snapshots the
// placement and rebuilds every live handle. When every attempt fails, the
// error wraps the failure that started the recovery beside the last one, so
// errors.Is finds the cause — a dead or lagging worker — even when the
// recoveries ended on something else, such as an empty placement.
func (s *Session) withRecovery(ctx context.Context, target *Handle, fn func(context.Context) error) error {
	var firstErr, lastErr error
	for attempt := 0; attempt < sessionAttempts; attempt++ {
		if attempt > 0 {
			var err error
			if attempt == 1 && target != nil && evictionErr(lastErr) && s.sameSnapshot() {
				err = s.rebuildTargeted(ctx, s.evictedHandle(lastErr, target))
			} else {
				err = s.recover(ctx)
			}
			if err != nil {
				if !recoverableHandleErr(err) {
					return err
				}
				lastErr = err
				continue
			}
		}
		err := fn(ctx)
		if err == nil {
			return nil
		}
		if !recoverableHandleErr(err) || ctx.Err() != nil {
			return err
		}
		if firstErr == nil {
			firstErr = err
		}
		lastErr = err
	}
	if lastErr != firstErr {
		return fmt.Errorf("distnet: pipeline failed after %d recovery attempts: %w (first failure: %w)", sessionAttempts, lastErr, firstErr)
	}
	return fmt.Errorf("distnet: pipeline failed after %d recovery attempts: %w", sessionAttempts, lastErr)
}

// rebuildTargeted recomputes one handle's lineage chain on the unchanged
// placement — the eviction path. The target lands last, so it is the
// store's most-recent entry when the caller retries.
func (s *Session) rebuildTargeted(ctx context.Context, target *Handle) error {
	sp := s.startRecovery()
	defer sp.End()
	if sp.Active() {
		sp.SetAttr("targeted", "true")
		sp.SetAttr("handle", fmt.Sprintf("%d", target.id))
	}
	return s.rebuildAll(ctx, []*Handle{target})
}

// recover re-snapshots the live placement, wipes the session epoch on it
// (stale bands from the old placement), and rebuilds every live handle from
// lineage under fresh ids. Fresh ids make bands on a worker that was dead
// during the wipe — and so still holds old ones — unreachable rather than
// wrong; its LRU retires them.
func (s *Session) recover(ctx context.Context) error {
	sp := s.startRecovery()
	defer sp.End()

	workers, err := s.d.placement()
	if err != nil {
		return err
	}
	s.workers = workers
	if sp.Active() {
		sp.SetAttr("workers", fmt.Sprintf("%d", len(workers)))
	}
	for _, m := range workers {
		// Best effort: a worker that dies here fails the rebuild below and
		// the next recovery round drops it from the snapshot.
		_ = s.callMember(ctx, m, methodFreeHandles, 0, codec.Writes(appendFreeArgs, &freeArgs{Epoch: s.epoch, AllEpoch: true}), nil)
	}

	live := make([]*Handle, 0, len(s.handles))
	for _, h := range s.handles {
		live = append(live, h)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	return s.rebuildAll(ctx, live)
}

// startRecovery counts one lineage recovery and opens its span.
func (s *Session) startRecovery() obs.Span {
	s.recoveries++
	atomic.AddInt64(&s.d.rec.Net.Live().PipelineRecoveries, 1)
	return s.d.tracer.Start(0, "pipeline.recover", obs.KindDriver)
}

// rebuildAll rebuilds the listed handles in order (ancestors first, each
// handle once), re-frees the freed ancestors it had to rebuild transiently
// for their consumers, and re-keys the live registry under the fresh ids.
func (s *Session) rebuildAll(ctx context.Context, hs []*Handle) error {
	rebuilt := map[*Handle]bool{}
	for _, h := range hs {
		if err := s.rebuild(ctx, h, rebuilt); err != nil {
			return err
		}
	}
	for h := range rebuilt {
		if h.freed {
			s.freeParts(ctx, h)
		}
	}
	reg := make(map[uint64]*Handle, len(s.handles))
	for _, h := range s.handles {
		reg[h.id] = h
	}
	s.handles = reg
	return nil
}

// rebuild recomputes one handle's resident bands (ancestors first, memoized)
// on the current placement under a fresh id.
func (s *Session) rebuild(ctx context.Context, h *Handle, done map[*Handle]bool) error {
	if done[h] {
		return nil
	}
	for _, o := range h.operands() {
		if err := s.rebuild(ctx, o, done); err != nil {
			return err
		}
	}
	h.id = s.d.handleID.Add(1)
	var err error
	if h.src != nil {
		err = s.push(ctx, h)
	} else {
		err = s.execParts(ctx, h)
	}
	if err != nil {
		return err
	}
	if h.pinned {
		if err := s.pinParts(ctx, h, false); err != nil {
			return err
		}
	}
	done[h] = true
	return nil
}

// Put uploads a matrix into the session, one block-row band per worker, and
// returns its handle. The source matrix is retained driver-side as the
// handle's lineage (recovery re-uploads it); callers must not mutate it
// while the handle lives.
func (s *Session) Put(ctx context.Context, m *bmat.BlockMatrix) (*Handle, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("distnet: put of nil matrix")
	}
	h := &Handle{
		s: s, id: s.d.handleID.Add(1),
		rows: m.Rows, cols: m.Cols, blockSize: m.BlockSize, ib: m.IB,
		src: m,
	}
	if err := s.withRecovery(ctx, h, func(ctx context.Context) error { return s.push(ctx, h) }); err != nil {
		return nil, err
	}
	s.handles[h.id] = h
	return h, nil
}

// push ships h's source matrix to the current placement.
func (s *Session) push(ctx context.Context, h *Handle) error {
	sp := s.d.tracer.Start(0, "pipeline.put", obs.KindDriver)
	if sp.Active() {
		sp.SetAttr("handle", fmt.Sprintf("%d", h.id))
	}
	defer sp.End()
	var bytes int64
	for _, p := range s.parts(h.ib) {
		args := &putArgs{Handle: h.id, Epoch: s.epoch, Pin: h.pinned, traceSpan: uint64(sp.ID()),
			Blocks: boxRecs(h.src, p.lo, p.hi, 0, h.src.JB)}
		if err := s.callMember(ctx, p.m, methodPutBlocks, sp.ID(), codec.Writes(appendPutArgs, args), nil); err != nil {
			return err
		}
		for i := range args.Blocks {
			bytes += args.Blocks[i].Block.SizeBytes()
		}
	}
	n := s.d.rec.Net.Live()
	atomic.AddInt64(&n.PipelinePuts, 1)
	atomic.AddInt64(&n.PipelinePutBytes, bytes)
	atomic.AddInt64(&n.ResidentBytes, bytes-h.bytes)
	h.bytes = bytes
	return nil
}

// Fetch materializes a handle back on the driver — the only point where a
// pipeline's data crosses driver-ward.
func (s *Session) Fetch(ctx context.Context, h *Handle) (*bmat.BlockMatrix, error) {
	if err := s.checkHandle(h); err != nil {
		return nil, err
	}
	if err := s.force(ctx, h); err != nil {
		return nil, err
	}
	var out *bmat.BlockMatrix
	err := s.withRecovery(ctx, h, func(ctx context.Context) error {
		out = bmat.New(h.rows, h.cols, h.blockSize)
		var bytes int64
		for _, p := range s.parts(h.ib) {
			var reply getReply
			if err := s.callMember(ctx, p.m, methodGetBlocks, 0, codec.Writes(appendGetArgs, &getArgs{Handle: h.id, blockRect: blockRect{ILo: p.lo, IHi: p.hi, JHi: ceilDivInt(h.cols, h.blockSize)}}), codec.Reads(decodeGetReply, &reply)); err != nil {
				return err
			}
			for _, r := range reply.Blocks {
				out.SetBlock(r.Key.I, r.Key.J, r.Block)
				if r.Block != nil {
					bytes += r.Block.SizeBytes()
				}
			}
		}
		atomic.AddInt64(&s.d.rec.Net.Live().PipelineFetches, 1)
		atomic.AddInt64(&s.d.rec.Net.Live().PipelineFetchBytes, bytes)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Free drops a handle's resident bands (best effort — a dead worker's band
// is gone anyway) and unregisters it. Freeing overrides pins. A deferred
// handle has no bands: freeing it lets go of its operands.
func (s *Session) Free(ctx context.Context, h *Handle) error {
	if err := s.checkHandle(h); err != nil {
		return err
	}
	if h.deferred {
		h.freed = true
		s.unhold(ctx, h)
		return nil
	}
	s.freeParts(ctx, h)
	h.freed = true
	delete(s.handles, h.id)
	return nil
}

func (s *Session) freeParts(ctx context.Context, h *Handle) {
	for _, p := range s.parts(h.ib) {
		_ = s.callMember(ctx, p.m, methodFreeHandles, 0, codec.Writes(appendFreeArgs, &freeArgs{Handles: []uint64{h.id}}), nil)
	}
	if h.bytes != 0 {
		atomic.AddInt64(&s.d.rec.Net.Live().ResidentBytes, -h.bytes)
		h.bytes = 0
	}
}

// Pin excludes a handle's bands from worker-store eviction (a promise the
// stores honor even past their byte bound); Unpin releases it.
func (s *Session) Pin(ctx context.Context, h *Handle) error {
	if err := s.checkHandle(h); err != nil {
		return err
	}
	if h.pinned {
		return nil
	}
	if err := s.force(ctx, h); err != nil {
		return err
	}
	if err := s.withRecovery(ctx, h, func(ctx context.Context) error { return s.pinParts(ctx, h, false) }); err != nil {
		return err
	}
	h.pinned = true
	return nil
}

// Unpin releases a Pin, returning the handle's bands to LRU eviction.
func (s *Session) Unpin(ctx context.Context, h *Handle) error {
	if err := s.checkHandle(h); err != nil {
		return err
	}
	if !h.pinned {
		return nil
	}
	h.pinned = false
	return s.withRecovery(ctx, h, func(ctx context.Context) error { return s.pinParts(ctx, h, true) })
}

func (s *Session) pinParts(ctx context.Context, h *Handle, unpin bool) error {
	for _, p := range s.parts(h.ib) {
		if err := s.callMember(ctx, p.m, methodPinHandle, 0, codec.Writes(appendPinArgs, &pinArgs{Handle: h.id, Unpin: unpin}), nil); err != nil {
			return err
		}
	}
	return nil
}

// Close retires the whole session epoch on its workers (best effort) and
// invalidates every handle.
func (s *Session) Close(ctx context.Context) error {
	if s.closed {
		return nil
	}
	s.closed = true
	for _, m := range s.workers {
		_ = s.callMember(ctx, m, methodFreeHandles, 0, codec.Writes(appendFreeArgs, &freeArgs{Epoch: s.epoch, AllEpoch: true}), nil)
	}
	var resident int64
	for _, h := range s.handles {
		resident += h.bytes
		h.freed = true
	}
	if resident != 0 {
		atomic.AddInt64(&s.d.rec.Net.Live().ResidentBytes, -resident)
	}
	s.handles = map[uint64]*Handle{}
	return nil
}

func (s *Session) check() error {
	if s.closed {
		return fmt.Errorf("distnet: session closed")
	}
	return s.d.checkOpen()
}

func (s *Session) checkHandle(h *Handle) error {
	if err := s.check(); err != nil {
		return err
	}
	if h == nil || h.s != s {
		return fmt.Errorf("distnet: handle belongs to a different session")
	}
	if h.freed {
		return fmt.Errorf("distnet: handle %d already freed", h.id)
	}
	return nil
}
