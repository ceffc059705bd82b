package distnet

import (
	"context"
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

// getStore returns the worker's handle store, creating an unbounded-default
// one for workers constructed directly (tests, stand-ins) rather than via
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

// dropPeer discards a peer client after a failed call so the next exec
// redials instead of reusing a wedged connection.
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

// peerGet fetches blocks of one handle band from a peer worker, recording a
// peer.fetch span under parent (0 when untraced) and the per-link traffic.
// It also returns the payload bytes of the blocks.
func (w *Worker) peerGet(parent obs.SpanID, addr string, args *getArgs) (*getReply, int64, error) {
	sp := w.tracer.Start(parent, "peer.fetch", obs.KindWorker)
	if sp.Active() {
		sp.SetAttr("peer", addr)
	}
	defer sp.End()
	var reply getReply
	client, err := w.peerClient(addr)
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), peerCallTimeout)
		err = client.Call(ctx, methodGetBlocks, codec.Writes(appendGetArgs, args), codec.Reads(decodeGetReply, &reply))
		cancel()
		if err != nil {
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
	for _, r := range reply.Blocks {
		if r.Block != nil {
			bytes += r.Block.SizeBytes()
		}
	}
	if sp.Active() {
		sp.SetAttr("bytes", fmt.Sprintf("%d", bytes))
	}
	w.getStore().addPeerFetch(addr, bytes)
	return &reply, bytes, nil
}

// operandBand is the one way a pipeline operator reads part p of an operand
// handle: this worker's own band from the store; a peer's from the replica
// kept of it; failing that from the peer, asking for get's blocks — and
// when the answer turns out to be the peer's whole band, keeping it as the
// replica later operators on this worker read. It also returns the payload
// bytes a fetch moved. A peer band of no block rows holds nothing to ask for.
func (w *Worker) operandBand(args *execArgs, p partLoc, get getArgs) (*storeEntry, int64, error) {
	st := w.getStore()
	if p.Addr == args.Self {
		e, ok := st.get(get.Handle)
		if !ok {
			return nil, 0, errUnknownHandle
		}
		return e, 0, nil
	}
	if p.Lo >= p.Hi {
		return &storeEntry{detached: true}, 0, nil
	}
	if e, ok := st.replica(get.Handle, p.Addr); ok {
		return e, 0, nil
	}
	reply, bytes, err := w.peerGet(obs.SpanID(args.traceSpan), p.Addr, &get)
	if err != nil {
		return nil, 0, err
	}
	blocks := make(map[bmat.BlockKey]matrix.Block, len(reply.Blocks))
	for _, r := range reply.Blocks {
		blocks[r.Key] = r.Block
	}
	if reply.Whole {
		return st.addReplica(get.Handle, args.Epoch, p.Addr, blocks), bytes, nil
	}
	return &storeEntry{blocks: blocks, detached: true}, bytes, nil
}

// putBlocks installs one handle's band in the store and reports its resident
// payload bytes.
func (w *Worker) putBlocks(args *putArgs, bytes *int64) error {
	sp := w.tracer.Start(obs.SpanID(args.traceSpan), "worker.put", obs.KindWorker)
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
		sp.SetAttr("op", fmt.Sprintf("%d", args.Op))
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
func (w *Worker) execMul(args *execArgs) (map[bmat.BlockKey]matrix.Block, int64, float64, error) {
	aBlocks, err := w.localBand(args.A)
	if err != nil {
		return nil, 0, 0, err
	}
	st := w.getStore()
	parts := append([]partLoc(nil), args.BParts...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].Lo < parts[j].Lo })
	type bandResult struct {
		band  *storeEntry
		bytes int64
		err   error
	}
	fetch := func(p partLoc) chan bandResult {
		ch := make(chan bandResult, 1)
		go func() {
			band, bytes, err := w.operandBand(args, p, getArgs{Handle: args.B, All: true})
			ch <- bandResult{band, bytes, err}
		}()
		return ch
	}
	var (
		peerBytes int64
		flops     float64
		next      chan bandResult
	)
	out := map[bmat.BlockKey]matrix.Block{}
	if len(parts) > 0 {
		next = fetch(parts[0])
	}
	for pi := range parts {
		cur := <-next
		if pi+1 < len(parts) {
			next = fetch(parts[pi+1])
		}
		if cur.err != nil {
			return nil, 0, 0, cur.err
		}
		peerBytes += cur.bytes
		box, ok := bandBox(cur.band.blocks, args.OutLo, args.OutHi)
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
		// Under a block column of A that is all dense, B's CSR blocks are
		// read in the CSC form the store keeps of them.
		denseLeft := make([]bool, box.KHi-box.KLo)
		for k := range denseLeft {
			for i := box.ILo; i < box.IHi; i++ {
				if blk := aBlocks[bmat.BlockKey{I: i, J: box.KLo + k}]; blk != nil {
					if denseLeft[k] = blk.Format() == matrix.FormatDense; !denseLeft[k] {
						break
					}
				}
			}
		}
		acc, bandFlops := core.MultiplyBox(box,
			func(i, k int) matrix.Block { return aBlocks[bmat.BlockKey{I: i, J: k}] },
			func(k, j int) matrix.Block {
				if denseLeft[k-box.KLo] {
					return st.rightOperand(cur.band, bmat.BlockKey{I: k, J: j})
				}
				return cur.band.blocks[bmat.BlockKey{I: k, J: j}]
			}, acc)
		flops += bandFlops
		for t, tile := range acc {
			if tile != nil {
				out[box.TileKey(t)] = tile
			}
		}
	}
	return out, peerBytes, flops, nil
}

// bandBox is the box of one B band under output rows [lo, hi): the extent
// of the band's block keys in k and j.
func bandBox(band map[bmat.BlockKey]matrix.Block, lo, hi int) (core.Box, bool) {
	if len(band) == 0 {
		return core.Box{}, false
	}
	box := core.Box{ILo: lo, IHi: hi, JLo: math.MaxInt, KLo: math.MaxInt}
	for k := range band {
		box.KLo, box.KHi = min(box.KLo, k.I), max(box.KHi, k.I+1)
		box.JLo, box.JHi = min(box.JLo, k.J), max(box.JHi, k.J+1)
	}
	return box, true
}

// execTranspose builds the output band rows [OutLo, OutHi) — the operand's
// column slice — asking each peer for exactly that slice of its band
// (operandBand). The bands arrive concurrently (emit order is irrelevant:
// keys are distinct and each block transposes independently).
func (w *Worker) execTranspose(args *execArgs) (map[bmat.BlockKey]matrix.Block, int64, error) {
	bands := make([]*storeEntry, len(args.AParts))
	bytes := make([]int64, len(args.AParts))
	errs := make([]error, len(args.AParts))
	sem := make(chan struct{}, pullFetchConcurrency)
	var wg sync.WaitGroup
	for pi, p := range args.AParts {
		wg.Add(1)
		go func(pi int, p partLoc) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			bands[pi], bytes[pi], errs[pi] = w.operandBand(args, p, getArgs{
				Handle: args.A,
				ILo:    p.Lo, IHi: p.Hi,
				JLo: args.OutLo, JHi: args.OutHi,
			})
		}(pi, p)
	}
	wg.Wait()
	out := map[bmat.BlockKey]matrix.Block{}
	var peerBytes int64
	for pi, band := range bands {
		if errs[pi] != nil {
			return nil, 0, errs[pi]
		}
		peerBytes += bytes[pi]
		for k, blk := range band.blocks {
			if k.J >= args.OutLo && k.J < args.OutHi && blk != nil {
				out[bmat.BlockKey{I: k.J, J: k.I}] = matrix.Transpose(blk)
			}
		}
	}
	return out, peerBytes, nil
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
