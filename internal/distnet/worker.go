package distnet

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/metrics"
	"distme/internal/obs"
)

// defaultDrainWindow bounds the read-only drain window when Shutdown's ctx
// carries no deadline: peers may still GetBlocks resident bands off a
// draining worker for this long, after which every RPC refuses and pinned
// bands are re-snapshotted elsewhere by session recovery.
const defaultDrainWindow = 10 * time.Second

// Worker serves cuboid multiplications over the worker socket. One worker
// process plays the role of one cluster node's executor. A served worker
// (via ServeOptions) owns its listener and connections and supports
// graceful shutdown: stop accepting, drain in-flight calls, close.
type Worker struct {
	mu         sync.Mutex
	multiplies int
	draining   bool
	drainUntil time.Time // read-only drain window end; zero = no window
	listener   net.Listener
	conns      *codec.Listener // answers the connections listener accepts

	// store is everything the worker holds under its memory budget —
	// cached blocks, handle bands, replicas and running sums — shared by
	// every connection it serves (created lazily via getStore for directly
	// constructed workers); peers caches worker→worker clients for
	// operand-band fetches.
	store   *handleStore
	peersMu sync.Mutex
	peers   map[string]*codec.Client

	// tracer records worker-side compute spans (nil = off); inflightN
	// mirrors the inflight WaitGroup as a readable counter for the debug
	// endpoint.
	tracer    *obs.Tracer
	inflightN atomic.Int64
	// addr is the listener's address: the trace lane of its spans.
	addr string

	// pull counts the pull plane's resolutions (WorkerPullStats).
	pull metrics.Counters[WorkerPullStats]

	inflight     sync.WaitGroup
	shutdownOnce sync.Once
	down         chan struct{} // closed when Shutdown completes
}

// CacheStats snapshots the worker's block-cache counters (insertions,
// digest hits/misses, evictions, current residency).
func (w *Worker) CacheStats() CacheStats { return w.getStore().cacheStats() }

// begin admits one call into the in-flight set; it fails once draining. A
// read (GetBlocks) stays admitted during the drain window — a draining
// worker's resident bands must be fetchable by peers and sessions until the
// drain deadline, or every pinned band would need a driver re-snapshot on
// any graceful scale-down — and past the deadline refuses like everything
// else. The admission check and WaitGroup.Add happen under the lock so
// Shutdown's Wait cannot race a late Add.
func (w *Worker) begin(read bool) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining && (!read || w.drainUntil.IsZero() || !time.Now().Before(w.drainUntil)) {
		return false
	}
	w.inflight.Add(1)
	w.inflightN.Add(1)
	return true
}

func (w *Worker) end() {
	w.inflightN.Add(-1)
	w.inflight.Done()
}

// maxBoxFace bounds each face of a cuboid box a worker accepts, in block
// slots (16M: a 4096×4096-block face).
const maxBoxFace = 1 << 24

// checkBox refuses a box core.MultiplyBox should not size its block tables
// from. Boxes arrive off the wire — a cuboid's in its request, a pipeline
// band's as its part's rows and the extent of a peer's block keys — and no
// real one has a face of more than maxBoxFace block slots.
func checkBox(box core.Box) error {
	ni, nj, nk := box.IHi-box.ILo, box.JHi-box.JLo, box.KHi-box.KLo
	if ni < 0 || nj < 0 || nk < 0 {
		return fmt.Errorf("distnet: malformed cuboid box")
	}
	if max(ni, nj, nk) > maxBoxFace || max(ni*nk, nk*nj, ni*nj) > maxBoxFace {
		return fmt.Errorf("distnet: malformed cuboid box: %dx%dx%d blocks", ni, nj, nk)
	}
	return nil
}

// checkSlabs refuses a column's slab count that its k range of nk blocks
// cannot be cut into: the count arrives off the wire, and a column has at
// least one slab and at most one per block.
func checkSlabs(nk, slabs int) error {
	if slabs < 1 || slabs > nk {
		return fmt.Errorf("%w: %d slabs for a k range of %d blocks", errWire, slabs, nk)
	}
	return nil
}

// multiply is the worker's one way to run a column or a chain link: a pull
// call first reads its operands from the bands it names, then its C blocks
// — or a link's running sum — are computed (serveLink) under a
// worker.compute span, whose flops and kernel attributes give the call's
// GFLOP/s against its duration (for a link past the first, the wait for its
// sum included). It counts the cuboids it served.
func (w *Worker) multiply(args *multiplyArgs, reply *multiplyReply) error {
	if args.pull {
		if err := w.preparePull(args, reply); err != nil {
			return err
		}
	}
	sp := w.tracer.Start(obs.SpanID(args.traceSpan), "worker.compute", obs.KindWorker)
	defer sp.End()
	args.label(sp)
	if sp.Active() {
		sp.SetWorker(w.addr)
		sp.SetAttr("a-blocks", fmt.Sprintf("%d", len(args.ABlocks)))
		sp.SetAttr("b-blocks", fmt.Sprintf("%d", len(args.BBlocks)))
	}
	flops, err := w.serveLink(args, reply, sp.ID())
	if err != nil {
		if sp.Active() {
			sp.SetAttr("error", err.Error())
		}
		return err
	}
	if sp.Active() {
		sp.SetAttr("c-blocks", fmt.Sprintf("%d", len(reply.CBlocks)))
		sp.SetAttr("flops", fmt.Sprintf("%.0f", flops))
		sp.SetAttr("kernel", matrix.KernelName())
	}
	w.mu.Lock()
	w.multiplies += args.slabCount()
	w.mu.Unlock()
	return nil
}

// ping answers the liveness probe. A draining worker refuses it (admit), so
// the driver's failure detector retires the worker before its sockets vanish.
func (w *Worker) ping(_ *struct{}, reply *pingReply) error {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	reply.Hostname = host
	// The pong ferries a load snapshot back so the driver's health plane
	// sees store pressure without extra calls. Subtract this ping itself
	// from the in-flight count.
	reply.InFlight = w.inflightN.Load() - 1
	st := w.getStore().stats()
	reply.StoreBytes = st.Bytes
	reply.StoreHandles = int64(st.Handles)
	reply.StoreEvictions = st.Evictions
	return nil
}

// Multiplies reports how many cuboids this worker has served: R for each
// (p,q) column of a (P,Q,R) plan, a link's slabs for each chain link.
func (w *Worker) Multiplies() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.multiplies
}

// Shutdown gracefully stops a served worker: the listener closes (no new
// connections), in-flight RPCs drain (bounded by ctx), then every open
// connection closes. During the drain window — ctx's deadline, or
// defaultDrainWindow when ctx has none — read-only GetBlocks peer fetches
// are still admitted so resident bands can migrate off this worker; past
// the deadline those refuse too and pinned bands are re-snapshotted
// elsewhere by session recovery. It is idempotent and returns ctx.Err()
// when the drain deadline expired before in-flight work finished
// (connections are closed regardless, so the worker is down either way).
func (w *Worker) Shutdown(ctx context.Context) error {
	var err error
	w.shutdownOnce.Do(func() {
		w.mu.Lock()
		w.draining = true
		if dl, ok := ctx.Deadline(); ok {
			w.drainUntil = dl
		} else {
			w.drainUntil = time.Now().Add(defaultDrainWindow)
		}
		w.mu.Unlock()
		if w.listener != nil {
			w.listener.Close()
		}
		drained := make(chan struct{})
		go func() {
			w.inflight.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-ctx.Done():
			err = ctx.Err()
		}
		w.abort()
		if w.down != nil {
			close(w.down)
		}
	})
	return err
}

// abort closes the listener, every open driver connection and the peer
// clients now. Shutdown ends with it once the calls have drained;
// InProcPool.Kill calls it alone, the crash-shaped teardown — with no
// draining state, in-flight calls fail at the socket exactly as if the
// process died.
func (w *Worker) abort() {
	if w.conns != nil {
		w.conns.Close()
	}
	w.closePeers()
}

// Wait blocks until Shutdown completes. Only valid on a served worker.
func (w *Worker) Wait() {
	if w.down != nil {
		<-w.down
	}
}

// WorkerOptions tunes a served worker. The zero value gives defaults.
type WorkerOptions struct {
	// MemBytes bounds everything the worker holds — cached blocks, handle
	// bands pinned or not, replicas of peers' bands and held running sums
	// — under one budget: 0 takes defaultMemBytes, negative means
	// unbounded. Over it, cached blocks go first (a later reference misses
	// and the driver resends inline), then replicas, then unpinned bands
	// (rebuilt from lineage by the driver on next use).
	MemBytes int64
	// Tracer, when set, records a worker.compute span per served cuboid
	// (parented to the driver's RPC-attempt span via the wire) plus
	// wire.decode spans for request parsing. Nil disables tracing.
	Tracer *obs.Tracer
}

// ServeOptions registers a Worker on the listener and serves connections
// until the listener closes or Shutdown is called; the zero WorkerOptions
// are the defaults. It returns the worker so callers can inspect it and
// shut it down.
func ServeOptions(l net.Listener, opts WorkerOptions) (*Worker, error) {
	w := &Worker{
		listener: l,
		addr:     l.Addr().String(),
		store:    newHandleStore(opts.MemBytes),
		tracer:   opts.Tracer,
		down:     make(chan struct{}),
	}
	// Every connection shares the worker's store, so a block one driver
	// connection inlined resolves for another.
	w.conns = codec.Listen(l, workerPreamble, w.handlers(), workerErrors)
	return w, nil
}

// handlers is the worker socket's method table; every call is admitted. A
// take of a running sum is admitted like a read, so a draining worker still
// hands its sums on.
func (w *Worker) handlers() []codec.Handler {
	return []codec.Handler{
		methodPing:        w.admit(false, codec.Method(nil, w.ping, appendPingReply)),
		methodMultiply:    w.admit(false, codec.Method(w.decodeMultiply, w.multiply, appendMultiplyReply)),
		methodPutBlocks:   w.admit(false, codec.Method(decodePutArgs, w.putBlocks, appendCount)),
		methodGetBlocks:   w.admit(true, codec.Method(decodeGetArgs, w.getBlocks, appendGetReply)),
		methodFreeHandles: w.admit(false, codec.Method(decodeFreeArgs, w.freeHandles, appendCount)),
		methodPinHandle:   w.admit(false, codec.Method(decodePinArgs, w.pinHandle, nil)),
		methodExecOp:      w.admit(false, codec.Method(decodeExecArgs, w.exec, appendExecReply)),
		methodTakeSum:     w.admit(true, codec.Method(decodeSumArgs, w.giveSum, appendSumReply)),
	}
}

// admit runs h's calls inside the in-flight set Shutdown drains, refusing
// them with ErrWorkerDraining once the worker drains (begin).
func (w *Worker) admit(read bool, h codec.Handler) codec.Handler {
	return func(args *codec.FrameReader) (codec.Call, error) {
		call, err := h(args)
		return func() (func(*codec.FrameWriter) error, error) {
			if !w.begin(read) {
				return nil, ErrWorkerDraining
			}
			defer w.end()
			return call()
		}, err
	}
}

// decodeMultiply parses one column request against the worker's cached
// blocks, recording the parse as a wire.decode span under the driver's
// attempt.
func (w *Worker) decodeMultiply(rd *codec.FrameReader, a *multiplyArgs) error {
	start, off := time.Now(), rd.Offset()
	err := decodeMultiplyArgs(rd, a, w.getStore())
	if err == nil && w.tracer.Enabled() && a.traceSpan != 0 {
		w.tracer.AddCompleted(obs.SpanData{
			Parent: obs.SpanID(a.traceSpan), Name: "wire.decode", Kind: obs.KindWorker,
			P: a.cuboidP, Q: a.cuboidQ,
			Start: start, End: time.Now(), Bytes: rd.Offset() - off,
		})
	}
	return err
}
