package distnet

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// operandBand is the one way a worker reads part p of an operand handle —
// for a pipeline operator and a pull call alike: this worker's own band from
// the store; a peer's from the replica kept of it; failing that from the
// peer, asking for get's blocks — and when the answer turns out to be the
// peer's whole band, keeping it as the replica later reads on this worker
// find. It also returns what a fetch moved. A peer band of no block rows
// holds nothing to ask for.
func (w *Worker) operandBand(rd bandReader, p partLoc, get getArgs) (*storeEntry, fetchStats, error) {
	st := w.getStore()
	if p.Addr == rd.self {
		e, ok := st.get(get.Handle)
		if !ok {
			return nil, fetchStats{}, errUnknownHandle
		}
		return e, fetchStats{}, nil
	}
	if p.Lo >= p.Hi {
		return &storeEntry{detached: true}, fetchStats{}, nil
	}
	if e, ok := st.replica(get.Handle, p.Addr); ok {
		return e, fetchStats{}, nil
	}
	var whole bool
	recs, bytes, err := w.peerFetch(rd.parent, p.Addr, methodGetBlocks, peerCallTimeout, nil, codec.Writes(appendGetArgs, &get),
		func(r *codec.FrameReader) ([]blockRec, error) {
			var reply getReply
			err := decodeGetReply(r, &reply)
			whole = reply.Whole
			return reply.Blocks, err
		})
	if err != nil {
		return nil, fetchStats{}, err
	}
	moved := fetchStats{fetches: 1, bytes: bytes}
	blocks := make(map[bmat.BlockKey]matrix.Block, len(recs))
	for _, r := range recs {
		blocks[r.Key] = r.Block
	}
	if whole {
		return st.addReplica(get.Handle, rd.epoch, p.Addr, blocks), moved, nil
	}
	return &storeEntry{blocks: blocks, detached: true}, moved, nil
}

// putBlocks installs one handle's band in the store and reports its resident
// payload bytes.
func (w *Worker) putBlocks(args *putArgs, bytes *int64) error {
	sp := w.tracer.Start(obs.SpanID(args.traceSpan), "worker.put", obs.KindWorker)
	if sp.Active() {
		sp.SetWorker(w.addr)
	}
	blocks := make(map[bmat.BlockKey]matrix.Block, len(args.Blocks))
	for _, r := range args.Blocks {
		blocks[r.Key] = r.Block
	}
	*bytes = w.getStore().set(args.Handle, args.Epoch, args.Pin, blocks, true)
	if sp.Active() {
		sp.SetAttr("handle", fmt.Sprintf("%d", args.Handle))
		sp.SetAttr("blocks", fmt.Sprintf("%d", len(blocks)))
	}
	sp.End()
	return nil
}

// getBlocks reads the blocks of a handle's band this worker owns — never a
// replica of a peer's — optionally filtered to a block-coordinate box. A
// missing handle answers with the unknown-handle error, which the driver
// resolves by lineage rebuild. Reads stay admitted during a shutdown's
// drain window (begin) so peers can copy bands off a draining worker before
// it goes away.
func (w *Worker) getBlocks(args *getArgs, reply *getReply) error {
	e, ok := w.getStore().get(args.Handle)
	if !ok {
		return errUnknownHandle
	}
	blocks := e.blocks
	// Deterministic order keeps replies byte-stable for equal stores.
	keys := make([]bmat.BlockKey, 0, len(blocks))
	for k := range blocks {
		if !args.All && (k.I < args.ILo || k.I >= args.IHi || k.J < args.JLo || k.J >= args.JHi) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].I != keys[j].I {
			return keys[i].I < keys[j].I
		}
		return keys[i].J < keys[j].J
	})
	reply.Blocks = make([]blockRec, 0, len(keys))
	for _, k := range keys {
		reply.Blocks = append(reply.Blocks, blockRec{Key: k, Block: blocks[k]})
	}
	reply.Whole = len(keys) == len(blocks)
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
// same order as computeCuboid), element-wise ops mirror the engine's
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

// localBand reads one operand band from the local store.
func (w *Worker) localBand(id uint64) (map[bmat.BlockKey]matrix.Block, error) {
	e, ok := w.getStore().get(id)
	if !ok {
		return nil, errUnknownHandle
	}
	return e.blocks, nil
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
		a, err := w.localBand(args.A)
		if err != nil {
			return nil, 0, 0, err
		}
		out := make(map[bmat.BlockKey]matrix.Block, len(a))
		for k, blk := range a {
			out[k] = matrix.Scale(args.Scalar, blk)
		}
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

// execMul computes this worker's C band: C rows are co-partitioned with A
// rows, so the A band is local while B — the (W−1)/W worker→worker movement
// Eq.(4)'s pipeline extension prices — arrives band by band (operandBand):
// while one band multiplies, the next prefetches (one ahead). Each band is
// one core.MultiplyBox over the output rows and the band's k range,
// continuing the accumulators of the bands before it; bands are disjoint row
// ranges taken in ascending-k order, so every (i,j) accumulates as one pass
// over the whole of B would — computeCuboid's order, and every fp64 bit, on
// whichever worker the band runs. It also reports the flops spent.
//
// An operand read through a transpose (TransA, TransB) is its source's
// blocks: A's rows are the source's column slice, fetched from every source
// band as execTranspose fetches it, and each band of B's source is a range
// of B's columns over its whole k range, so a tile still accumulates in
// ascending k. core.MultiplyBoxOf reads the blocks through the transpose,
// with the bits of a product over the transposed handle.
func (w *Worker) execMul(args *execArgs) (map[bmat.BlockKey]matrix.Block, int64, float64, error) {
	st := w.getStore()
	parts := append([]partLoc(nil), args.BParts...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].Lo < parts[j].Lo })
	type bandResult struct {
		band  *storeEntry
		moved fetchStats
		err   error
	}
	fetch := func(p partLoc) chan bandResult {
		ch := make(chan bandResult, 1)
		go func() {
			band, moved, err := w.operandBand(args.reader(), p, getArgs{Handle: args.B, All: true})
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
	a, peerBytes, err := w.leftOperand(args)
	if err != nil {
		return nil, 0, 0, err
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
		box, ok := bandBox(cur.band.blocks, args.OutLo, args.OutHi, args.TransB)
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
			b.Block = func(k, j int) matrix.Block { return cur.band.blocks[bmat.BlockKey{I: j, J: k}] }
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
			b.Block = func(k, j int) matrix.Block {
				if denseLeft[k-box.KLo] {
					return st.rightOperand(cur.band, bmat.BlockKey{I: k, J: j})
				}
				return cur.band.blocks[bmat.BlockKey{I: k, J: j}]
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

// leftOperand is a multiply's A over the output rows: the local band, or —
// read through a transpose — the source's column slice from every source
// band, with the payload bytes that fetch moved.
func (w *Worker) leftOperand(args *execArgs) (core.Operand, int64, error) {
	if !args.TransA {
		blocks, err := w.localBand(args.A)
		if err != nil {
			return core.Operand{}, 0, err
		}
		return core.Operand{Block: func(i, k int) matrix.Block { return blocks[bmat.BlockKey{I: i, J: k}] }}, 0, nil
	}
	bands, moved, err := w.readBands(args.reader(), args.A, args.AParts, args.OutLo, args.OutHi)
	if err != nil {
		return core.Operand{}, 0, err
	}
	return core.Operand{Transposed: true, Block: func(i, k int) matrix.Block {
		for pi, p := range args.AParts {
			if k >= p.Lo && k < p.Hi {
				return bands[pi].blocks[bmat.BlockKey{I: k, J: i}]
			}
		}
		return nil
	}}, moved.bytes, nil
}

// bandBox is the box of one B band under output rows [lo, hi): the extent
// of the band's block keys in k and j — with the keys read transposed for a
// band of B's source.
func bandBox(band map[bmat.BlockKey]matrix.Block, lo, hi int, trans bool) (core.Box, bool) {
	if len(band) == 0 {
		return core.Box{}, false
	}
	box := core.Box{ILo: lo, IHi: hi, JLo: math.MaxInt, KLo: math.MaxInt}
	for key := range band {
		k, j := key.I, key.J
		if trans {
			k, j = j, k
		}
		box.KLo, box.KHi = min(box.KLo, k), max(box.KHi, k+1)
		box.JLo, box.JHi = min(box.JLo, j), max(box.JHi, j+1)
	}
	return box, true
}

// pullFetchConcurrency bounds the concurrent peer fetches of one readBands.
const pullFetchConcurrency = 4

// readBands reads, from each part of handle, its blocks in columns
// [jlo, jhi) through operandBand, the parts concurrently under
// pullFetchConcurrency. The bands come back in the parts' order, with what
// the reads moved between them.
func (w *Worker) readBands(rd bandReader, handle uint64, parts []partLoc, jlo, jhi int) ([]*storeEntry, fetchStats, error) {
	bands := make([]*storeEntry, len(parts))
	moved := make([]fetchStats, len(parts))
	errs := make([]error, len(parts))
	sem := make(chan struct{}, pullFetchConcurrency)
	var wg sync.WaitGroup
	for pi, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			bands[pi], moved[pi], errs[pi] = w.operandBand(rd, p, getArgs{
				Handle: handle,
				ILo:    p.Lo, IHi: p.Hi,
				JLo: jlo, JHi: jhi,
			})
		}()
	}
	wg.Wait()
	var total fetchStats
	for pi := range bands {
		if errs[pi] != nil {
			return nil, fetchStats{}, errs[pi]
		}
		total.add(moved[pi])
	}
	return bands, total, nil
}

// execTranspose builds the output band rows [OutLo, OutHi) — the operand's
// column slice, its blocks in columns [OutLo, OutHi) of every band
// (readBands). Emit order is irrelevant: keys are distinct and each block
// transposes independently.
func (w *Worker) execTranspose(args *execArgs) (map[bmat.BlockKey]matrix.Block, int64, error) {
	bands, moved, err := w.readBands(args.reader(), args.A, args.AParts, args.OutLo, args.OutHi)
	if err != nil {
		return nil, 0, err
	}
	out := map[bmat.BlockKey]matrix.Block{}
	for _, band := range bands {
		for k, blk := range band.blocks {
			if k.J >= args.OutLo && k.J < args.OutHi && blk != nil {
				out[bmat.BlockKey{I: k.J, J: k.I}] = matrix.Transpose(blk)
			}
		}
	}
	return out, moved.bytes, nil
}

// execZipOps is the element-wise operator each exec code runs.
var execZipOps = map[uint8]bmat.ZipOp{
	execAdd: bmat.ZipAdd, execSub: bmat.ZipSub, execHadamard: bmat.ZipHadamard, execDivElem: bmat.ZipDivElem,
}

// execZip runs one element-wise operator over the union of the local A and B
// band keys, with bmat.ZipBlock's nil-block rules.
func (w *Worker) execZip(args *execArgs) (map[bmat.BlockKey]matrix.Block, error) {
	a, err := w.localBand(args.A)
	if err != nil {
		return nil, err
	}
	b, err := w.localBand(args.B)
	if err != nil {
		return nil, err
	}
	keys := map[bmat.BlockKey]struct{}{}
	for k := range a {
		keys[k] = struct{}{}
	}
	for k := range b {
		keys[k] = struct{}{}
	}
	op := execZipOps[args.Op]
	out := map[bmat.BlockKey]matrix.Block{}
	for k := range keys {
		if res := bmat.ZipBlock(op, a[k], b[k], args.Scalar); res != nil {
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

// execHadamardDivElem runs x∘(n⊘d) over the local A, B and C bands in one
// pass (bmat.HadamardQuotientBlock): at the key of every block x and n both
// hold — elsewhere the two passes it replaces store nothing either. The
// blocks fan out over core.FanOut.
func (w *Worker) execHadamardDivElem(args *execArgs) (map[bmat.BlockKey]matrix.Block, error) {
	x, err := w.localBand(args.A)
	if err != nil {
		return nil, err
	}
	n, err := w.localBand(args.B)
	if err != nil {
		return nil, err
	}
	d, err := w.localBand(args.C)
	if err != nil {
		return nil, err
	}
	keys := make([]bmat.BlockKey, 0, len(x))
	var elems float64
	for k, blk := range x {
		if blk != nil && n[k] != nil {
			keys = append(keys, k)
			r, c := blk.Dims()
			elems += float64(r) * float64(c)
		}
	}
	res := make([]matrix.Block, len(keys))
	core.FanOut(len(keys), elems*fusedElemFlops, func(t int) {
		k := keys[t]
		res[t] = bmat.HadamardQuotientBlock(x[k], n[k], d[k], args.Scalar)
	})
	out := make(map[bmat.BlockKey]matrix.Block, len(keys))
	for t, k := range keys {
		out[k] = res[t]
	}
	return out, nil
}
