package distnet

import (
	"fmt"
	"sync/atomic"

	"distme/internal/bmat"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// The worker half of the one-sided pull data plane. A pull-mode call names
// each operand by its handle and the bands the handle lives in; the worker
// reads each operand's part of the call's box (operandBox) as one cut, as a
// pipeline operator reads its operands (readCut). The driver stays the
// last-resort data source: any failed read is a pullError, which the driver
// answers by re-pushing the call's blocks inline.

// preparePull reads a pull-mode call's operands into ABlocks/BBlocks,
// recording the wire.pull span and folding the fetch counters into the reply
// and the worker's gauges. Keys a band holds no block at are structurally
// absent (sparse zero blocks): the column treats missing keys as zero, as
// the push path skips nil blocks. A failed read names its handle.
func (w *Worker) preparePull(args *multiplyArgs, reply *multiplyReply) error {
	sp := w.tracer.Start(obs.SpanID(args.traceSpan), "wire.pull", obs.KindWorker)
	args.label(sp)
	if sp.Active() {
		sp.SetWorker(w.addr)
	}
	defer sp.End()
	// Cuts a pull keeps as replicas belong to the session, whose epoch the
	// call carries.
	rd := bandReader{self: args.pullSelf, epoch: args.cacheEpoch, parent: sp.ID()}
	box := args.operandBox()
	var st fetchStats
	read := func(ref *bandRef, rect blockRect) (recs []blockRec, err error) {
		c, moved, err := w.readCut(rd, ref.handle, ref.parts, rect)
		if err != nil {
			return nil, &pullError{handle: ref.handle, err: err}
		}
		st.add(moved)
		c.each(func(k bmat.BlockKey, blk matrix.Block) { recs = append(recs, blockRec{Key: k, Block: blk}) })
		return recs, nil
	}
	var err error
	args.ABlocks, err = read(&args.aRef, blockRect{ILo: box.ILo, IHi: box.IHi, JLo: box.KLo, JHi: box.KHi})
	if err == nil {
		args.BBlocks, err = read(&args.bRef, blockRect{ILo: box.KLo, IHi: box.KHi, JLo: box.JLo, JHi: box.JHi})
	}
	if err != nil {
		if sp.Active() {
			sp.SetAttr("error", err.Error())
		}
		atomic.AddInt64(&w.pull.Live().Errors, 1)
		return err
	}
	if sp.Active() {
		sp.SetAttr("fetches", fmt.Sprintf("%d", st.fetches))
		sp.SetAttr("peer-bytes", fmt.Sprintf("%d", st.bytes))
	}
	reply.pullFetches, reply.pullPeerBytes = st.fetches, st.bytes
	c := w.pull.Live()
	atomic.AddInt64(&c.PeerFetches, st.fetches)
	atomic.AddInt64(&c.PeerBytes, st.bytes)
	return nil
}

// WorkerPullStats snapshots the worker's pull-plane gauges for the debug
// endpoint.
type WorkerPullStats struct {
	// PeerFetches/PeerBytes count the band fetches pull calls issued and
	// the payload they moved (StoreStats counts the same fetches too);
	// Errors counts pull calls whose reads failed (the driver then
	// re-pushed inline).
	PeerFetches int64 `json:"peer_fetches"`
	PeerBytes   int64 `json:"peer_bytes"`
	Errors      int64 `json:"errors"`
}

// PullStats snapshots the worker's pull-resolution counters.
func (w *Worker) PullStats() WorkerPullStats { return w.pull.Load() }
