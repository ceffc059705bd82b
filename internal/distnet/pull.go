package distnet

import (
	"fmt"
	"sync/atomic"

	"distme/internal/obs"
)

// The worker half of the one-sided pull data plane. A pull-mode call names
// each operand by its handle and the bands the handle lives in; the worker
// cuts the call's operand box (operandBox) out of the bands that meet it and
// reads them as a pipeline operator reads its operands (readBands): its own
// band from the store, a peer's from the replica kept of it, failing that
// from the peer. The driver stays the last-resort data source: any failed
// read is a pullError, which the driver answers by re-pushing the call's
// blocks inline.

// pullOperand reads the blocks of ref's handle inside [rlo,rhi)×[clo,chi)
// from the bands that meet its rows. Keys a band holds no block at are
// structurally absent (sparse zero blocks): computeCuboid treats missing
// keys as zero, as the push path skips nil blocks. A failed read names the
// handle.
func (w *Worker) pullOperand(rd bandReader, ref *bandRef, rlo, rhi, clo, chi int) ([]blockRec, fetchStats, error) {
	var parts []partLoc
	for _, p := range ref.parts {
		if lo, hi := max(p.Lo, rlo), min(p.Hi, rhi); lo < hi {
			parts = append(parts, partLoc{Addr: p.Addr, Lo: lo, Hi: hi})
		}
	}
	bands, st, err := w.readBands(rd, ref.handle, parts, clo, chi)
	if err != nil {
		return nil, st, &pullError{handle: ref.handle, err: err}
	}
	var recs []blockRec
	for _, band := range bands {
		for k, blk := range band.blocks {
			if blk != nil && k.I >= rlo && k.I < rhi && k.J >= clo && k.J < chi {
				recs = append(recs, blockRec{Key: k, Block: blk})
			}
		}
	}
	return recs, st, nil
}

// preparePull reads a pull-mode call's operands into ABlocks/BBlocks,
// recording the wire.pull span and folding the fetch counters into the reply
// and the worker's gauges.
func (w *Worker) preparePull(args *multiplyArgs, reply *multiplyReply) error {
	sp := w.tracer.Start(obs.SpanID(args.traceSpan), "wire.pull", obs.KindWorker)
	args.label(sp)
	if sp.Active() {
		sp.SetWorker(w.addr)
	}
	defer sp.End()
	// Bands a pull keeps as replicas belong to the session, whose epoch the
	// call carries.
	rd := bandReader{self: args.pullSelf, epoch: args.cacheEpoch, parent: sp.ID()}
	box := args.operandBox()
	var st, sb fetchStats
	var err error
	args.ABlocks, st, err = w.pullOperand(rd, &args.aRef, box.ILo, box.IHi, box.KLo, box.KHi)
	if err == nil {
		args.BBlocks, sb, err = w.pullOperand(rd, &args.bRef, box.KLo, box.KHi, box.JLo, box.JHi)
		st.add(sb)
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
