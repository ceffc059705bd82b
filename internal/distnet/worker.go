package distnet

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"distme/internal/bmat"
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
// (via Serve/ServeOptions) owns its listener and connections and supports
// graceful shutdown: stop accepting, drain in-flight calls, close.
type Worker struct {
	mu         sync.Mutex
	multiplies int
	draining   bool
	drainUntil time.Time // read-only drain window end; zero = no window
	listener   net.Listener
	conns      *codec.Listener // answers the connections listener accepts

	// cache is the content-addressed block store shared by every
	// connection this worker serves; nil disables caching (references
	// then miss and the driver resends inline).
	cache *blockCache

	// store holds handle bands for the distributed block store (created
	// lazily via getStore for directly constructed workers); peers caches
	// worker→worker clients for operand-band fetches.
	store   *handleStore
	peersMu sync.Mutex
	peers   map[string]*codec.Client

	// tracer records worker-side compute spans (nil = off); inflightN
	// mirrors the inflight WaitGroup as a readable counter for the debug
	// endpoint.
	tracer    *obs.Tracer
	inflightN atomic.Int64

	// pull counts the pull plane's resolutions (WorkerPullStats).
	pull metrics.Counters[WorkerPullStats]

	inflight     sync.WaitGroup
	shutdownOnce sync.Once
	down         chan struct{} // closed when Shutdown completes
}

// CacheStats snapshots the worker's block-cache counters (insertions,
// digest hits/misses, evictions, current residency).
func (w *Worker) CacheStats() CacheStats { return w.cache.stats() }

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
// band's as the extent of a peer's block keys — and no real one has a face
// of more than maxBoxFace block slots.
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

// computeCuboid runs one cuboid through core.MultiplyBox — the arithmetic
// of core.CPUMultiplier, against the blocks the request carries — and
// reports the flops spent. It is shared by the remote worker and the
// driver's local fallback, so a cuboid computes bit-identically wherever it
// lands.
func computeCuboid(args *multiplyArgs, reply *multiplyReply) (flops float64, err error) {
	box := core.Box{ILo: args.ILo, IHi: args.IHi, JLo: args.JLo, JHi: args.JHi, KLo: args.KLo, KHi: args.KHi}
	if err := checkBox(box); err != nil {
		return 0, err
	}
	aBlocks := make(map[bmat.BlockKey]matrix.Block, len(args.ABlocks))
	for _, r := range args.ABlocks {
		aBlocks[r.Key] = r.Block
	}
	bBlocks := make(map[bmat.BlockKey]matrix.Block, len(args.BBlocks))
	for _, r := range args.BBlocks {
		bBlocks[r.Key] = r.Block
	}
	tiles, flops := core.MultiplyBox(box,
		func(i, k int) matrix.Block { return aBlocks[bmat.BlockKey{I: i, J: k}] },
		func(k, j int) matrix.Block { return bBlocks[bmat.BlockKey{I: k, J: j}] }, nil)
	for t, acc := range tiles {
		if acc != nil {
			reply.CBlocks = append(reply.CBlocks, blockRec{Key: box.TileKey(t), Block: acc})
		}
	}
	return flops, nil
}

// serveCuboid is the worker's one way to run a cuboid: a pull cuboid first
// resolves its manifests into blocks, then the partial C blocks are computed
// under a worker.compute span, whose flops and kernel attributes give the
// cuboid's GFLOP/s against its duration.
func (w *Worker) serveCuboid(args *multiplyArgs, reply *multiplyReply) error {
	if args.pull {
		if err := w.preparePull(args, reply); err != nil {
			return err
		}
	}
	sp := w.tracer.Start(obs.SpanID(args.traceSpan), "worker.compute", obs.KindWorker)
	defer sp.End()
	if sp.Active() {
		sp.SetCuboid(args.cuboidP, args.cuboidQ, args.cuboidR)
		sp.SetAttr("a-blocks", fmt.Sprintf("%d", len(args.ABlocks)))
		sp.SetAttr("b-blocks", fmt.Sprintf("%d", len(args.BBlocks)))
	}
	flops, err := computeCuboid(args, reply)
	if sp.Active() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		} else {
			sp.SetAttr("c-blocks", fmt.Sprintf("%d", len(reply.CBlocks)))
			sp.SetAttr("flops", fmt.Sprintf("%.0f", flops))
			sp.SetAttr("kernel", matrix.KernelName())
		}
	}
	return err
}

// multiply computes the partial C blocks of one cuboid, against blocks
// that arrived over the wire.
func (w *Worker) multiply(args *multiplyArgs, reply *multiplyReply) error {
	if err := w.serveCuboid(args, reply); err != nil {
		return err
	}
	w.mu.Lock()
	w.multiplies++
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

// Multiplies reports how many cuboids this worker has served.
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
	// CacheBytes bounds the content-addressed block cache: 0 takes
	// DefaultCacheBytes, negative disables caching (every digest reference
	// then misses and the driver falls back to inline sends).
	CacheBytes int64
	// StoreBytes bounds the handle store's unpinned residency: 0 takes
	// DefaultStoreBytes, negative means unbounded. Evicted handles are
	// rebuilt from lineage by the driver on next use.
	StoreBytes int64
	// Tracer, when set, records a worker.compute span per served cuboid
	// (parented to the driver's RPC-attempt span via the wire) plus
	// wire.decode spans for request parsing. Nil disables tracing.
	Tracer *obs.Tracer
}

// Serve registers a Worker on the listener and serves connections until the
// listener closes or Shutdown is called. It returns the worker so callers
// can inspect it and shut it down.
func Serve(l net.Listener) (*Worker, error) {
	return ServeOptions(l, WorkerOptions{})
}

// ServeOptions is Serve with explicit tuning.
func ServeOptions(l net.Listener, opts WorkerOptions) (*Worker, error) {
	w := &Worker{
		listener: l,
		cache:    newBlockCache(opts.CacheBytes),
		store:    newHandleStore(opts.StoreBytes),
		tracer:   opts.Tracer,
		down:     make(chan struct{}),
	}
	// Every connection shares the worker's cache, so a block one driver
	// connection inlined resolves for another.
	w.conns = codec.Listen(l, workerPreamble, w.handlers(), workerErrors)
	return w, nil
}

// handlers is the worker socket's method table; every call is admitted.
func (w *Worker) handlers() []codec.Handler {
	return []codec.Handler{
		methodPing:        w.admit(false, codec.Method(nil, w.ping, appendPingReply)),
		methodMultiply:    w.admit(false, codec.Method(w.decodeMultiply, w.multiply, appendMultiplyReply)),
		methodPutBlocks:   w.admit(false, codec.Method(decodePutArgs, w.putBlocks, appendCount)),
		methodGetBlocks:   w.admit(true, codec.Method(decodeGetArgs, w.getBlocks, appendGetReply)),
		methodFreeHandles: w.admit(false, codec.Method(decodeFreeArgs, w.freeHandles, appendCount)),
		methodPinHandle:   w.admit(false, codec.Method(decodePinArgs, w.pinHandle, nil)),
		methodExecOp:      w.admit(false, codec.Method(decodeExecArgs, w.exec, appendExecReply)),
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

// decodeMultiply parses one cuboid request against the worker's block
// cache, recording the parse as a wire.decode span under the driver's
// attempt.
func (w *Worker) decodeMultiply(rd *codec.FrameReader, a *multiplyArgs) error {
	start, n := time.Now(), rd.Remaining()
	err := decodeMultiplyArgs(rd, a, w.cache)
	if err == nil && w.tracer.Enabled() && a.traceSpan != 0 {
		w.tracer.AddCompleted(obs.SpanData{
			Parent: obs.SpanID(a.traceSpan), Name: "wire.decode", Kind: obs.KindWorker,
			P: a.cuboidP, Q: a.cuboidQ, R: a.cuboidR,
			Start: start, End: time.Now(), Bytes: n,
		})
	}
	return err
}
