package distnet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// The worker half of the distributed block store: handle bands live in
// w.store, pipeline operators run here against them, and operand bands this
// worker lacks are fetched worker→worker — the driver never sees
// intermediate payloads.

const (
	peerDialTimeout = 5 * time.Second
	peerCallTimeout = 60 * time.Second
)

// getStore returns the worker's handle store, creating one under the default
// budget for workers constructed directly (tests, stand-ins) rather than via
// ServeOptions.
func (w *Worker) getStore() *handleStore {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.store == nil {
		w.store = newHandleStore(0)
	}
	return w.store
}

// StoreStats snapshots the worker's handle-store counters.
func (w *Worker) StoreStats() StoreStats { return w.getStore().stats() }

// peerClient returns (dialing on demand) the client for a peer worker.
func (w *Worker) peerClient(addr string) (*codec.Client, error) {
	w.peersMu.Lock()
	defer w.peersMu.Unlock()
	if c, ok := w.peers[addr]; ok {
		return c, nil
	}
	c, err := dialWorker(addr, peerDialTimeout, nil)
	if err != nil {
		return nil, err
	}
	if w.peers == nil {
		w.peers = map[string]*codec.Client{}
	}
	w.peers[addr] = c
	return c, nil
}

// dropPeer discards a peer client after a failed connection so the next
// exec redials instead of reusing a wedged one.
func (w *Worker) dropPeer(addr string, c *codec.Client) {
	w.peersMu.Lock()
	if cur, ok := w.peers[addr]; ok && cur == c {
		delete(w.peers, addr)
	}
	w.peersMu.Unlock()
	c.Close()
}

func (w *Worker) closePeers() {
	w.peersMu.Lock()
	peers := w.peers
	w.peers = nil
	w.peersMu.Unlock()
	for _, c := range peers {
		c.Close()
	}
}

// peerFetch makes one call of method to the peer at addr, bounded by
// timeout, under a peer.fetch span (label adds the call's own attributes to
// it), and reads the reply's blocks with decode. It charges the blocks'
// payload bytes, which it also returns, to the link to that peer. A refusal
// came back over a working connection, which the calls sharing it still
// need; only a failed connection is dropped, so the next call redials.
func (w *Worker) peerFetch(parent obs.SpanID, addr string, method byte, timeout time.Duration, label func(obs.Span),
	args func(*codec.FrameWriter) error, decode func(*codec.FrameReader) ([]blockRec, error)) ([]blockRec, int64, error) {
	sp := w.tracer.Start(parent, "peer.fetch", obs.KindWorker)
	if sp.Active() {
		sp.SetWorker(w.addr)
		sp.SetAttr("peer", addr)
		if label != nil {
			label(sp)
		}
	}
	defer sp.End()
	var recs []blockRec
	client, err := w.peerClient(addr)
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err = client.Call(ctx, method, args, func(rd *codec.FrameReader) (err error) {
			recs, err = decode(rd)
			return err
		})
		cancel()
		var re *codec.RemoteError
		if err != nil && !errors.As(err, &re) {
			w.dropPeer(addr, client)
		}
	}
	if err != nil {
		if sp.Active() {
			sp.SetAttr("error", err.Error())
		}
		return nil, 0, &peerFetchError{addr: addr, err: err}
	}
	var bytes int64
	for _, r := range recs {
		if r.Block != nil {
			bytes += r.Block.SizeBytes()
		}
	}
	if sp.Active() {
		sp.SetAttr("bytes", fmt.Sprintf("%d", bytes))
	}
	w.getStore().addPeerFetch(addr, bytes)
	return recs, bytes, nil
}

// bandReader is what reading operand bands needs of the call that reads
// them: this worker's address, the session epoch a kept replica is filed
// under, and the span peer fetches go under.
type bandReader struct {
	self   string
	epoch  uint64
	parent obs.SpanID
}

// reader is the band reader of a pipeline operator.
func (a *execArgs) reader() bandReader {
	return bandReader{self: a.Self, epoch: a.Epoch, parent: obs.SpanID(a.traceSpan)}
}

// fetchStats is what band reads moved: the peer fetches they issued and the
// payload bytes those returned.
type fetchStats struct {
	fetches, bytes int64
}

func (a *fetchStats) add(b fetchStats) {
	a.fetches += b.fetches
	a.bytes += b.bytes
}

// A cut is what one operand read gives (readCut): the blocks of a handle
// inside rect, band b answering for its rows [lo, hi).
type cut struct {
	rect  blockRect
	bands []cutBand
}

type cutBand struct {
	addr   string
	lo, hi int
	e      *storeEntry
}

// block is the cut's block at (i, j), nil where it holds none.
func (c *cut) block(i, j int) matrix.Block {
	for _, b := range c.bands {
		if i >= b.lo && i < b.hi && j >= c.rect.JLo && j < c.rect.JHi {
			return b.e.blocks[bmat.BlockKey{I: i, J: j}]
		}
	}
	return nil
}

// each calls f with every block of the cut.
func (c *cut) each(f func(k bmat.BlockKey, blk matrix.Block)) {
	for _, b := range c.bands {
		for k, blk := range b.e.blocks {
			if blk != nil && k.I >= b.lo && k.I < b.hi && k.J >= c.rect.JLo && k.J < c.rect.JHi {
				f(k, blk)
			}
		}
	}
}

// pullFetchConcurrency bounds the concurrent band reads of one readCut.
const pullFetchConcurrency = 4

// readCut is a worker's one operand read — a pull call's and a pipeline
// operator's alike: it cuts rect out of every band of handle (parts) whose
// rows meet it, the bands concurrently under pullFetchConcurrency, and also
// returns what the reads moved. A band the cut misses holds nothing to read.
func (w *Worker) readCut(rd bandReader, handle uint64, parts []partLoc, rect blockRect) (*cut, fetchStats, error) {
	c := &cut{rect: rect}
	for _, p := range parts {
		if lo, hi := max(p.Lo, rect.ILo), min(p.Hi, rect.IHi); lo < hi {
			c.bands = append(c.bands, cutBand{addr: p.Addr, lo: lo, hi: hi})
		}
	}
	moved := make([]fetchStats, len(c.bands))
	errs := make([]error, len(c.bands))
	sem := make(chan struct{}, pullFetchConcurrency)
	var wg sync.WaitGroup
	for i := range c.bands {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			b := &c.bands[i]
			b.e, moved[i], errs[i] = w.readBand(rd, handle, b.addr, blockRect{ILo: b.lo, IHi: b.hi, JLo: rect.JLo, JHi: rect.JHi})
		}()
	}
	wg.Wait()
	var total fetchStats
	for i := range c.bands {
		if errs[i] != nil {
			return nil, fetchStats{}, errs[i]
		}
		total.add(moved[i])
	}
	return c, total, nil
}

// readBand reads the cut of handle's band at addr: this worker's own band
// from the store, a missing one answering errUnknownHandle (the driver
// rebuilds it from lineage); a peer's from a replica whose rectangle
// contains the cut, failing that from one GetBlocks for exactly the cut,
// kept as a replica under the rectangle the peer's reply answers for.
func (w *Worker) readBand(rd bandReader, handle uint64, addr string, cut blockRect) (*storeEntry, fetchStats, error) {
	st := w.getStore()
	if addr == rd.self {
		e, ok := st.get(handle)
		if !ok {
			return nil, fetchStats{}, errUnknownHandle
		}
		return e, fetchStats{}, nil
	}
	if e, ok := st.replica(handle, addr, cut); ok {
		return e, fetchStats{}, nil
	}
	var reply getReply
	recs, bytes, err := w.peerFetch(rd.parent, addr, methodGetBlocks, peerCallTimeout, nil,
		codec.Writes(appendGetArgs, &getArgs{Handle: handle, blockRect: cut}),
		func(r *codec.FrameReader) ([]blockRec, error) {
			err := decodeGetReply(r, &reply)
			return reply.Blocks, err
		})
	if err != nil {
		return nil, fetchStats{}, err
	}
	if !reply.Cover.contains(cut) {
		return nil, fetchStats{}, fmt.Errorf("%w: a read of %v answered for %v", errWire, cut, reply.Cover)
	}
	return st.addReplica(handle, rd.epoch, addr, reply.Cover, blockMap(recs)), fetchStats{fetches: 1, bytes: bytes}, nil
}

// putBlocks installs one handle's band in the store and reports its resident
// payload bytes.
func (w *Worker) putBlocks(args *putArgs, bytes *int64) error {
	sp := w.tracer.Start(obs.SpanID(args.traceSpan), "worker.put", obs.KindWorker)
	if sp.Active() {
		sp.SetWorker(w.addr)
	}
	blocks := blockMap(args.Blocks)
	*bytes = w.getStore().set(args.Handle, args.Epoch, args.Pin, blocks, true)
	if sp.Active() {
		sp.SetAttr("handle", fmt.Sprintf("%d", args.Handle))
		sp.SetAttr("blocks", fmt.Sprintf("%d", len(blocks)))
	}
	sp.End()
	return nil
}

// getBlocks reads the blocks of a handle's band this worker owns — never a
// replica of a peer's — inside the asked rectangle, and names the rectangle
// the reply answers for (getReply.Cover): on each side, the cut's edge where
// a block of the band lies beyond it, else the grid's. A missing handle
// answers with the unknown-handle error, which the driver resolves by
// lineage rebuild. Reads stay admitted during a shutdown's drain window
// (begin) so peers can copy bands off a draining worker before it goes away.
func (w *Worker) getBlocks(args *getArgs, reply *getReply) error {
	e, ok := w.getStore().get(args.Handle)
	if !ok {
		return errUnknownHandle
	}
	cover := blockRect{IHi: math.MaxInt, JHi: math.MaxInt}
	var keys []bmat.BlockKey
	for k := range e.blocks {
		in := true // beyond none of the cut's sides
		if k.I < args.ILo {
			cover.ILo, in = args.ILo, false
		}
		if k.I >= args.IHi {
			cover.IHi, in = args.IHi, false
		}
		if k.J < args.JLo {
			cover.JLo, in = args.JLo, false
		}
		if k.J >= args.JHi {
			cover.JHi, in = args.JHi, false
		}
		if in {
			keys = append(keys, k)
		}
	}
	// Deterministic order keeps replies byte-stable for equal stores.
	slices.SortFunc(keys, func(a, b bmat.BlockKey) int { return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J)) })
	reply.Blocks = make([]blockRec, 0, len(keys))
	for _, k := range keys {
		reply.Blocks = append(reply.Blocks, blockRec{Key: k, Block: e.blocks[k]})
	}
	reply.Cover = cover
	return nil
}

// freeHandles drops handles (or a whole session epoch) from the store and
// reports how many were resident.
func (w *Worker) freeHandles(args *freeArgs, freed *int64) error {
	st := w.getStore()
	if args.AllEpoch {
		*freed = int64(st.freeEpoch(args.Epoch))
	} else {
		*freed = int64(st.free(args.Handles))
	}
	return nil
}

// pinHandle adjusts a resident band's pin count.
func (w *Worker) pinHandle(args *pinArgs, _ *struct{}) error {
	if !w.getStore().pin(args.Handle, args.Unpin) {
		return errUnknownHandle
	}
	return nil
}

// exec runs one pipeline operator over resident handles, installing the
// output band in the store. Arithmetic is deterministic and placement-
// independent: multiplication accumulates k-ascending per output block (the
// same order as a multiply call's column), element-wise ops mirror the engine's
// nil-block zip semantics exactly — so resident, materialized, and rebuilt
// executions are byte-identical.
func (w *Worker) exec(args *execArgs, reply *execReply) error {
	sp := w.tracer.Start(obs.SpanID(args.traceSpan), "worker.exec", obs.KindWorker)
	if sp.Active() {
		sp.SetWorker(w.addr)
		sp.SetAttr("op", execOpKinds[args.Op].String())
		if a := absorbed(args.Op, args.TransA, args.TransB); a != "" {
			sp.SetAttr("deferred", a)
		}
		sp.SetAttr("out", fmt.Sprintf("%d", args.Out))
	}
	out, peerBytes, flops, err := w.execOp(args)
	if err != nil {
		if sp.Active() {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		return err
	}
	reply.Bytes = w.getStore().set(args.Out, args.Epoch, false, out, false)
	reply.Blocks = len(out)
	reply.PeerBytes = peerBytes
	if sp.Active() {
		sp.SetAttr("blocks", fmt.Sprintf("%d", len(out)))
		if args.Op == execMul {
			// With the span's duration, the operator's GFLOP/s — fetch waits
			// the one-ahead prefetch did not hide included.
			sp.SetAttr("flops", fmt.Sprintf("%.0f", flops))
			sp.SetAttr("kernel", matrix.KernelName())
		}
	}
	sp.End()
	return nil
}

// execOp dispatches one pipeline operator, additionally reporting the
// worker→worker payload bytes the operator moved and, for a multiply, the
// flops it spent.
func (w *Worker) execOp(args *execArgs) (map[bmat.BlockKey]matrix.Block, int64, float64, error) {
	switch args.Op {
	case execMul, execTranspose:
		if args.OutLo >= args.OutHi {
			// No output rows here: the band is empty whatever the operands
			// hold, so none of them is fetched.
			return nil, 0, 0, nil
		}
		if args.Op == execMul {
			return w.execMul(args)
		}
		out, peerBytes, err := w.execTranspose(args)
		return out, peerBytes, 0, err
	case execScale:
		a, err := w.ownCut(args, args.A)
		if err != nil {
			return nil, 0, 0, err
		}
		out := map[bmat.BlockKey]matrix.Block{}
		a.each(func(k bmat.BlockKey, blk matrix.Block) { out[k] = matrix.Scale(args.Scalar, blk) })
		return out, 0, 0, nil
	case execAdd, execSub, execHadamard, execDivElem:
		out, err := w.execZip(args)
		return out, 0, 0, err
	case execHadamardDivElem:
		out, err := w.execHadamardDivElem(args)
		return out, 0, 0, err
	default:
		return nil, 0, 0, fmt.Errorf("distnet: unknown pipeline op %d", args.Op)
	}
}

// own locates the band of the output's rows this worker owns.
func (a *execArgs) own() []partLoc { return []partLoc{{Addr: a.Self, Lo: a.OutLo, Hi: a.OutHi}} }

// ownCut reads the output's rows of handle id: the band this worker owns.
func (w *Worker) ownCut(args *execArgs, id uint64) (*cut, error) {
	c, _, err := w.readCut(args.reader(), id, args.own(), allCols(args.OutLo, args.OutHi))
	return c, err
}

// execMul computes this worker's C band: C rows are co-partitioned with A
// rows, so the A band is local while B — the (W−1)/W worker→worker movement
// Eq.(4)'s pipeline extension prices — arrives band by band, each band one
// cut (readCut): while one band multiplies, the next prefetches (one ahead).
// Each band is one core.MultiplyBox over the output rows and the band's k
// range, continuing the accumulators of the bands before it; bands are
// disjoint row ranges taken in ascending-k order, so every (i,j) accumulates
// as one pass over the whole of B would — a column's order, and every fp64
// bit, on whichever worker the band runs. It also reports the flops spent.
//
// An operand read through a transpose (TransA, TransB) is its source's
// blocks: A's rows are the source's column slice, cut from every source
// band as execTranspose cuts it, and each band of B's source is a range of
// B's columns over its whole k range, so a tile still accumulates in
// ascending k. core.MultiplyBoxOf reads the blocks through the transpose,
// with the bits of a product over the transposed handle.
func (w *Worker) execMul(args *execArgs) (map[bmat.BlockKey]matrix.Block, int64, float64, error) {
	st := w.getStore()
	rd := args.reader()
	parts := append([]partLoc(nil), args.BParts...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].Lo < parts[j].Lo })
	type bandResult struct {
		band  *cut
		moved fetchStats
		err   error
	}
	fetch := func(p partLoc) chan bandResult {
		ch := make(chan bandResult, 1)
		go func() {
			band, moved, err := w.readCut(rd, args.B, []partLoc{p}, allCols(p.Lo, p.Hi))
			ch <- bandResult{band, moved, err}
		}()
		return ch
	}
	var (
		flops float64
		next  chan bandResult
	)
	// A first: a view of it may read the band B reads too, which the first
	// fetch of it keeps as the replica the second finds.
	aParts, aRect := args.own(), allCols(args.OutLo, args.OutHi)
	if args.TransA {
		aParts, aRect = args.AParts, blockRect{IHi: math.MaxInt, JLo: args.OutLo, JHi: args.OutHi}
	}
	src, moved, err := w.readCut(rd, args.A, aParts, aRect)
	if err != nil {
		return nil, 0, 0, err
	}
	peerBytes := moved.bytes
	a := core.Operand{Transposed: args.TransA, Block: src.block}
	if args.TransA {
		a.Block = func(i, k int) matrix.Block { return src.block(k, i) }
	}
	if len(parts) > 0 {
		next = fetch(parts[0])
	}
	out := map[bmat.BlockKey]matrix.Block{}
	for pi := range parts {
		cur := <-next
		if pi+1 < len(parts) {
			next = fetch(parts[pi+1])
		}
		if cur.err != nil {
			return nil, 0, 0, cur.err
		}
		peerBytes += cur.moved.bytes
		box, ok := bandBox(cur.band, args.OutLo, args.OutHi, args.TransB)
		if !ok {
			continue
		}
		if err := checkBox(box); err != nil {
			return nil, 0, 0, err
		}
		// The columns a band holds blocks in may differ from band to band,
		// so the accumulators live in out and each band's box borrows its own.
		nj := box.JHi - box.JLo
		acc := make([]*matrix.Dense, (box.IHi-box.ILo)*nj)
		for t := range acc {
			if blk := out[box.TileKey(t)]; blk != nil {
				acc[t] = blk.(*matrix.Dense)
			}
		}
		b := core.Operand{Transposed: args.TransB}
		if args.TransB {
			b.Block = func(k, j int) matrix.Block { return cur.band.block(j, k) }
		} else {
			// Under a block column of A that is all dense, B's CSR blocks
			// are read in the CSC form the store keeps of them.
			denseLeft := make([]bool, box.KHi-box.KLo)
			for k := range denseLeft {
				for i := box.ILo; i < box.IHi; i++ {
					if blk := a.Block(i, box.KLo+k); blk != nil {
						if denseLeft[k] = blk.Format() == matrix.FormatDense; !denseLeft[k] {
							break
						}
					}
				}
			}
			band := cur.band.bands[0].e // a band of B is one cut of one band
			b.Block = func(k, j int) matrix.Block {
				if denseLeft[k-box.KLo] {
					return st.rightOperand(band, bmat.BlockKey{I: k, J: j})
				}
				return cur.band.block(k, j)
			}
		}
		acc, bandFlops := core.MultiplyBoxOf(box, a, b, acc)
		flops += bandFlops
		for t, tile := range acc {
			if tile != nil {
				out[box.TileKey(t)] = tile
			}
		}
	}
	return out, peerBytes, flops, nil
}

// bandBox is the box of one B band under output rows [lo, hi): its cut's
// rows are the k range — B's columns, read through a transpose — and the
// columns its blocks lie in the other side.
func bandBox(band *cut, lo, hi int, trans bool) (core.Box, bool) {
	clo, chi := math.MaxInt, 0
	band.each(func(k bmat.BlockKey, _ matrix.Block) { clo, chi = min(clo, k.J), max(chi, k.J+1) })
	box := core.Box{ILo: lo, IHi: hi, JLo: clo, JHi: chi, KLo: band.rect.ILo, KHi: band.rect.IHi}
	if trans {
		box.JLo, box.JHi, box.KLo, box.KHi = box.KLo, box.KHi, box.JLo, box.JHi
	}
	return box, clo < chi
}

// execTranspose builds the output band rows [OutLo, OutHi): the operand's
// column slice, cut from every band (readCut). Emit order is irrelevant: keys
// are distinct and each block transposes independently.
func (w *Worker) execTranspose(args *execArgs) (map[bmat.BlockKey]matrix.Block, int64, error) {
	src, moved, err := w.readCut(args.reader(), args.A, args.AParts, blockRect{IHi: math.MaxInt, JLo: args.OutLo, JHi: args.OutHi})
	if err != nil {
		return nil, 0, err
	}
	out := map[bmat.BlockKey]matrix.Block{}
	src.each(func(k bmat.BlockKey, blk matrix.Block) { out[bmat.BlockKey{I: k.J, J: k.I}] = matrix.Transpose(blk) })
	return out, moved.bytes, nil
}

// execZipOps is the element-wise operator each exec code runs.
var execZipOps = map[uint8]bmat.ZipOp{
	execAdd: bmat.ZipAdd, execSub: bmat.ZipSub, execHadamard: bmat.ZipHadamard, execDivElem: bmat.ZipDivElem,
}

// execZip runs one element-wise operator over the union of the own A and B
// bands' keys, with bmat.ZipBlock's nil-block rules.
func (w *Worker) execZip(args *execArgs) (map[bmat.BlockKey]matrix.Block, error) {
	a, err := w.ownCut(args, args.A)
	if err != nil {
		return nil, err
	}
	b, err := w.ownCut(args, args.B)
	if err != nil {
		return nil, err
	}
	keys := map[bmat.BlockKey]struct{}{}
	for _, c := range []*cut{a, b} {
		c.each(func(k bmat.BlockKey, _ matrix.Block) { keys[k] = struct{}{} })
	}
	op := execZipOps[args.Op]
	out := map[bmat.BlockKey]matrix.Block{}
	for k := range keys {
		if res := bmat.ZipBlock(op, a.block(k.I, k.J), b.block(k.I, k.J), args.Scalar); res != nil {
			out[k] = res
		}
	}
	return out, nil
}

// fusedElemFlops is what one element of the fused pass counts as against
// core.FanOut's threshold, which is in the dense kernel's flops: an
// element's divide and multiply took 3 ns on the dev Xeon (sixteen
// 128×256 blocks, 1.56 ms on one core, 0.94 ms on two), about what 120
// flops of the dense kernel take. Counted at half that, a band of 32K
// elements or more fans out; GNMF's bands of 512K take both cores.
const fusedElemFlops = 64

// execHadamardDivElem runs x∘(n⊘d) over the own A, B and C bands in one
// pass (bmat.HadamardQuotientBlock): at the key of every block x and n both
// hold — elsewhere the two passes it replaces store nothing either. The
// blocks fan out over core.FanOut.
func (w *Worker) execHadamardDivElem(args *execArgs) (map[bmat.BlockKey]matrix.Block, error) {
	var ops [3]*cut
	for i, id := range [3]uint64{args.A, args.B, args.C} {
		var err error
		if ops[i], err = w.ownCut(args, id); err != nil {
			return nil, err
		}
	}
	x, n, d := ops[0], ops[1], ops[2]
	var keys []bmat.BlockKey
	var elems float64
	x.each(func(k bmat.BlockKey, blk matrix.Block) {
		if n.block(k.I, k.J) != nil {
			keys = append(keys, k)
			r, c := blk.Dims()
			elems += float64(r) * float64(c)
		}
	})
	res := make([]matrix.Block, len(keys))
	core.FanOut(len(keys), elems*fusedElemFlops, func(t int) {
		k := keys[t]
		res[t] = bmat.HadamardQuotientBlock(x.block(k.I, k.J), n.block(k.I, k.J), d.block(k.I, k.J), args.Scalar)
	})
	out := make(map[bmat.BlockKey]matrix.Block, len(keys))
	for t, k := range keys {
		out[k] = res[t]
	}
	return out, nil
}
