package distnet

import (
	"encoding/binary"
	"fmt"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// The k-ordered chain, the second placement of a push job (core.PlaceChain).
// Under homes, the holder of a (p,q) column receives the column's whole A
// row band and B column band, so a band two columns on two workers share
// crosses the driver twice. Under the chain, the job's R slabs are cut into
// h = min(R, live workers) contiguous groups with one holder each, and a
// holder receives only the operand blocks of its own slabs, so every block
// crosses the driver once. A holder computes its slabs into fresh tiles as
// soon as its operands arrive, takes the running sum of the slabs before
// its own from the link before it (methodTakeSum, worker to worker, or from
// its own sums when that link ran there too), and folds its slabs into it in
// ascending r — MultiplyColumn's order, so the bits are those of
// core.MultiplyCuboid at the same (P,Q,R). A link that is not the last keeps
// its sum for the next one to take; the last returns the column's C blocks,
// which the driver only places. The links go out and recover as any
// column's do (runColumn).

// planChain prices the job's two placements from its columns' slab bytes
// (slabBytes) and, when the chain is the cheaper (core.ChoosePlacement),
// returns its holders; nil keeps homes. Only push jobs of R ≥ 2 on two or
// more live members are candidates. The holders are h live members taken
// from the driver's chain cursor on, and then put in member order
// (pickLive). The cursor advances by h a chain, so successive chains rotate
// over a larger pool whatever their P·Q·R; the job's ring base would land
// every repeat of a plan whose P·Q·R is a multiple of the live count on the
// same h holders.
func (r *cuboidRun) planChain(wholes []*multiplyArgs, slabs [][2][]int64) []*member {
	params := r.job.params
	if params.R < 2 || wholes[0].pull {
		return nil
	}
	live := r.d.liveMembers()
	if len(live) < 2 || core.ChoosePlacement(params, r.faces(wholes, slabs), len(live)) != core.PlaceChain {
		return nil
	}
	h := core.ChainHolders(params.R, len(live))
	return pickLive(live, r.d.reserve(&r.d.chains, h), h)
}

// faces cuts the job's operand bytes by its plan (core.Faces) from the
// columns' slab bytes: A's row bands from the columns of q = 0, B's column
// bands from those of p = 0, each record at the stored size the call bound
// is measured in, and each column's C at its dense size.
func (r *cuboidRun) faces(wholes []*multiplyArgs, slabs [][2][]int64) core.Faces {
	params, bs := r.job.params, r.job.blockSize
	f := core.Faces{A: make([][]int64, params.P), B: make([][]int64, params.R), C: make([][]int64, params.P)}
	for rr := range f.B {
		f.B[rr] = make([]int64, params.Q)
	}
	for g, call := range wholes {
		p, q := call.cuboidP, call.cuboidQ
		if q == 0 {
			f.A[p] = slabs[g][0]
			f.C[p] = make([]int64, params.Q)
		}
		if p == 0 {
			for rr, n := range slabs[g][1] {
				f.B[rr][q] = n
			}
		}
		rows := min(call.IHi*bs, r.job.rows) - call.ILo*bs
		cols := min(call.JHi*bs, r.job.cols) - call.JLo*bs
		f.C[p][q] = int64(rows) * int64(cols) * 8
	}
	return f
}

// ---------------------------------------------------------------------------
// The worker's side

// serveLink computes one link of a column (foldLink) — a lone call is the
// link of all R slabs, with no predecessor — taking, past the first link,
// the running sum from the predecessor, on another worker or this one. The
// last link's tiles are the column's C blocks; any other link's are kept for
// its successor to take.
func (w *Worker) serveLink(args *multiplyArgs, reply *multiplyReply, parent obs.SpanID) (float64, error) {
	l := args.link
	var take func() ([]blockRec, error)
	if l != nil && l.lo > 0 {
		take = func() ([]blockRec, error) {
			if l.prev == l.self {
				// A self-take: the link before ran on this worker.
				return w.getStore().takeSum(sumKey{id: l.id, upTo: l.lo}, l.wait)
			}
			return w.takeSum(parent, l)
		}
	}
	tiles, flops, err := foldLink(args, take)
	if err != nil {
		return 0, err
	}
	recs := tileRecs(args.box(), tiles)
	if l == nil || l.hi == args.slabs {
		reply.CBlocks = recs
	} else {
		w.getStore().putSum(sumKey{id: l.id, upTo: l.hi}, args.cacheEpoch, recs, l.wait)
	}
	return flops, nil
}

// foldLink is the arithmetic of one call wherever it runs, a worker's link
// or the driver's local fallback of a whole column: its slabs (slabRange)
// computed and folded by core.FoldSlab in ascending r — for the first link
// from nothing, core.MultiplyColumn's loop bit for bit; for a later one into
// the running sum take returns. The take starts with the link, so the sum
// crosses while the slabs are computed; only the fold waits for both. It
// reports the flops spent.
func foldLink(args *multiplyArgs, take func() ([]blockRec, error)) ([]*matrix.Dense, float64, error) {
	box := args.box()
	if err := checkBox(box); err != nil {
		return nil, 0, err
	}
	type taken struct {
		recs []blockRec
		err  error
	}
	var sum chan taken
	if take != nil {
		sum = make(chan taken, 1)
		go func() { recs, err := take(); sum <- taken{recs, err} }()
	}
	lo, hi := args.slabRange()
	lookupA, lookupB := args.lookups()
	var tiles []*matrix.Dense
	var fresh [][]*matrix.Dense
	var flops float64
	for r := lo; r < hi; r++ {
		slab, f := core.MultiplyBox(box.Slab(r, args.slabs), lookupA, lookupB, nil)
		flops += f
		if take == nil {
			tiles = core.FoldSlab(tiles, slab)
		} else {
			fresh = append(fresh, slab)
		}
	}
	if take != nil {
		t := <-sum
		if t.err != nil {
			return nil, 0, t.err
		}
		var err error
		if tiles, err = sumTiles(box, t.recs, fresh); err != nil {
			return nil, 0, err
		}
		for _, slab := range fresh {
			tiles = core.FoldSlab(tiles, slab)
		}
	}
	return tiles, flops, nil
}

// tileRecs lists a box's tiles, nil where no pair met, as keyed records.
func tileRecs(box core.Box, tiles []*matrix.Dense) []blockRec {
	var recs []blockRec
	for t, d := range tiles {
		if d != nil {
			recs = append(recs, blockRec{Key: box.TileKey(t), Block: d})
		}
	}
	return recs
}

// boxTiles is tileRecs' inverse for blocks that arrived off the wire: it
// places recs as box's tiles. A block keyed outside the box, twice over, not
// dense, or of other dimensions than dims gives its tile is refused as
// errWire; dims reports ok false for a tile whose dimensions it does not
// know.
func boxTiles(box core.Box, recs []blockRec, dims func(t int) (rows, cols int, ok bool)) ([]*matrix.Dense, error) {
	nj := box.JHi - box.JLo
	tiles := make([]*matrix.Dense, (box.IHi-box.ILo)*nj)
	for _, rec := range recs {
		d, ok := rec.Block.(*matrix.Dense)
		i, j := rec.Key.I-box.ILo, rec.Key.J-box.JLo
		if !ok || i < 0 || j < 0 || rec.Key.I >= box.IHi || rec.Key.J >= box.JHi || tiles[i*nj+j] != nil {
			return nil, fmt.Errorf("%w: block %v off its box, repeated or not dense", errWire, rec.Key)
		}
		t := i*nj + j
		if rows, cols, known := dims(t); known && (d.RowsN != rows || d.ColsN != cols) {
			return nil, fmt.Errorf("%w: block %v is %dx%d, its tile %dx%d", errWire, rec.Key, d.RowsN, d.ColsN, rows, cols)
		}
		tiles[t] = d
	}
	return tiles, nil
}

// takeSum fetches the running sum of slabs [0, l.lo) from the predecessor
// (peerFetch). The predecessor answers within l.wait; the call gives up at
// twice that.
func (w *Worker) takeSum(parent obs.SpanID, l *chainLink) ([]blockRec, error) {
	recs, _, err := w.peerFetch(parent, l.prev, methodTakeSum, 2*l.wait,
		func(sp obs.Span) { sp.SetAttr("sum", fmt.Sprintf("slabs [0,%d)", l.lo)) },
		codec.Writes(appendSumArgs, &sumArgs{id: l.id, upTo: l.lo, wait: l.wait}), decodePlainBlocks)
	return recs, err
}

// sumTiles places a taken running sum's blocks as the box's tiles
// (boxTiles), each of the dimensions of the link's own tile there where it
// has one.
func sumTiles(box core.Box, recs []blockRec, fresh [][]*matrix.Dense) ([]*matrix.Dense, error) {
	return boxTiles(box, recs, func(t int) (rows, cols int, ok bool) {
		for _, slab := range fresh {
			if own := slab[t]; own != nil {
				return own.RowsN, own.ColsN, true
			}
		}
		return 0, 0, false
	})
}

// sumArgs asks a worker for the running sum of chain id's slabs [0, upTo),
// waiting at most wait for it to be made.
type sumArgs struct {
	id   uint64
	upTo int
	wait time.Duration
}

func appendSumArgs(w *codec.FrameWriter, a *sumArgs) error {
	appendChainID(w, a.id)
	w.Uvarint(uint64(a.upTo))
	w.Uvarint(uint64(a.wait / time.Millisecond))
	return nil
}

func decodeSumArgs(rd *codec.FrameReader, a *sumArgs) error {
	var err error
	if a.id, err = readChainID(rd); err != nil {
		return err
	}
	if a.upTo, err = rd.Int(); err != nil {
		return err
	}
	wait, err := rd.Uvarint()
	a.wait = time.Duration(min(wait, uint64(maxChainWait/time.Millisecond))) * time.Millisecond
	return err
}

// A chain id travels as 8 fixed bytes: ids are random, and a request's size
// should not depend on which one it drew.
func appendChainID(w *codec.FrameWriter, id uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], id)
	w.Bytes(b[:])
}

func readChainID(rd *codec.FrameReader) (uint64, error) {
	var b [8]byte
	err := rd.ReadFull(b[:])
	return binary.LittleEndian.Uint64(b[:]), err
}

// sumReply is a taken running sum: the column's tiles some pair met.
type sumReply struct{ blocks []blockRec }

func appendSumReply(w *codec.FrameWriter, r *sumReply) error { return appendPlainBlocks(w, r.blocks) }

// giveSum answers a successor's take: the sum once it is made, within the
// take's wait, else errNoSum.
func (w *Worker) giveSum(args *sumArgs, reply *sumReply) error {
	recs, err := w.getStore().takeSum(sumKey{id: args.id, upTo: args.upTo}, args.wait)
	reply.blocks = recs
	return err
}

// sumKey names a running sum: chain id's slabs [0, upTo).
type sumKey struct {
	id   uint64
	upTo int
}

// The running sums a worker keeps for the links after its own live in its
// store, under the memory budget: a held sum is never dropped for room, but
// its bytes count. A sum leaves when it is taken, when its bound passes, or
// at the store's sweep after its epoch falls out of the window — so a sum
// whose successor died is dropped without anyone asking. A sum is kept
// under the newest epoch seen when it is put: a pull link carries its
// session's epoch, which may be far older than the push jobs' beside it.

// sumSlot is one sum, made or awaited: a take that comes first waits on
// ready, which putSum closes.
type sumSlot struct {
	ready chan struct{}
	made  bool
	recs  []blockRec
	bytes int64
	epoch uint64
	timer *time.Timer
}

// sumSlotLocked is k's slot, made when absent.
func (s *handleStore) sumSlotLocked(k sumKey) *sumSlot {
	sl, ok := s.sums[k]
	if !ok {
		sl = &sumSlot{ready: make(chan struct{})}
		s.sums[k] = sl
	}
	return sl
}

// dropSumLocked removes k's slot and releases its bytes.
func (s *handleStore) dropSumLocked(k sumKey, sl *sumSlot) {
	delete(s.sums, k)
	if sl.timer != nil {
		sl.timer.Stop()
	}
	s.sumBytes -= sl.bytes
}

// putSum keeps recs as k's sum for at most keep. A second sum under a made
// key is dropped.
func (s *handleStore) putSum(k sumKey, epoch uint64, recs []blockRec, keep time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ageLocked(epoch)
	sl := s.sumSlotLocked(k)
	if sl.made {
		return
	}
	sl.made, sl.recs, sl.epoch = true, recs, s.win.newest
	for _, r := range recs {
		sl.bytes += r.Block.SizeBytes()
	}
	s.sumBytes += sl.bytes
	close(sl.ready)
	sl.timer = time.AfterFunc(keep, func() {
		s.mu.Lock()
		if s.sums[k] == sl {
			s.dropSumLocked(k, sl)
		}
		s.mu.Unlock()
	})
	s.evictLocked()
}

// takeSum removes and returns k's sum, waiting at most wait for it to be
// made.
func (s *handleStore) takeSum(k sumKey, wait time.Duration) ([]blockRec, error) {
	s.mu.Lock()
	sl := s.sumSlotLocked(k)
	s.mu.Unlock()
	timer := time.NewTimer(wait)
	select {
	case <-sl.ready:
	case <-timer.C:
	}
	timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	mine := s.sums[k] == sl
	if mine {
		s.dropSumLocked(k, sl)
	}
	if !sl.made || !mine {
		// Never made within the wait, or taken or expired already.
		return nil, fmt.Errorf("%w: chain %x, slabs [0,%d)", errNoSum, k.id, k.upTo)
	}
	return sl.recs, nil
}

// lookups are the call's A and B blocks by global block key, absent as nil.
func (a *multiplyArgs) lookups() (lookupA, lookupB func(row, col int) matrix.Block) {
	aBlocks, bBlocks := blockMap(a.ABlocks), blockMap(a.BBlocks)
	return func(i, k int) matrix.Block { return aBlocks[bmat.BlockKey{I: i, J: k}] },
		func(k, j int) matrix.Block { return bBlocks[bmat.BlockKey{I: k, J: j}] }
}
