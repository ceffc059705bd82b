package distnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/metrics"
	"distme/internal/obs"
	"distme/internal/shuffle"
)

// Driver executes cuboid plans across remote workers. It owns a dynamic
// membership table (one entry per worker, with a heartbeat failure detector
// driving Alive/Suspect/Dead states), assigns cuboids to live members with
// per-RPC deadlines and capped-exponential-backoff retries, reconnects dead
// members, and — when the pool drains to zero — computes the remaining
// cuboids locally with the exact arithmetic the workers use, so the output
// is byte-identical no matter what the network did. Every byte that crosses
// a socket is counted.
type Driver struct {
	opts   Options
	wire   *wireCounter
	rec    *metrics.Recorder
	tracer *obs.Tracer
	dbg    *obs.Server

	// epoch numbers multiply jobs; digest references on the wire are scoped
	// to one epoch so worker caches never serve a previous job's blocks.
	// Block-store sessions draw their epochs from the same counter.
	epoch atomic.Uint64

	// handleID numbers block-store handles, globally across sessions; a
	// lineage rebuild assigns fresh ids so stale bands on a worker that
	// missed the recovery wipe are unreachable rather than wrong.
	handleID atomic.Uint64

	// inflight counts cuboids dispatched but not yet aggregated, surfaced
	// by the debug endpoint.
	inflight atomic.Int64

	// activeJobs counts multiply jobs currently inside the driver —
	// the serving plane's concurrency gauge.
	activeJobs atomic.Int64

	// serveDebug, when registered via SetServeDebug, contributes the
	// serving plane's block to DebugSnapshot.
	serveMu    sync.Mutex
	serveDebug func() any

	mu      sync.Mutex
	members []*member
	rr      int // round-robin scheduling cursor
	closed  bool

	// jmu guards jrand, the retry-backoff jitter source (full jitter —
	// uniform in (0, backoff] — so synchronized retries cannot stampede a
	// recovering worker; Options.JitterSeed pins it for deterministic tests).
	jmu   sync.Mutex
	jrand *rand.Rand

	// ewmaRPC is a rolling mean of successful cuboid RPC durations; an RPC
	// slower than stragglerMultiple times the mean (after warmup) counts as
	// a straggler on its member — the health plane's slowness signal.
	ewmaMu  sync.Mutex
	ewmaRPC time.Duration
	ewmaN   int64

	// health is the windowed-score state behind ClusterHealth (health.go);
	// scaler is the running autoscaler supervisor, if any (autoscaler.go).
	health   healthState
	scalerMu sync.Mutex
	scaler   *scalerRun

	stopDetector chan struct{}
	detectorDone chan struct{}
}

// stragglerMultiple and stragglerMinSamples tune straggler detection: after
// stragglerMinSamples successful RPCs, one slower than stragglerMultiple
// times the rolling mean is counted against its worker.
const (
	stragglerMultiple   = 3
	stragglerMinSamples = 8
)

// Options tunes the driver's elasticity machinery. The zero value gives
// production defaults; tests shrink the intervals.
type Options struct {
	// HeartbeatInterval is the failure detector's probe period
	// (default 200ms).
	HeartbeatInterval time.Duration
	// PingTimeout bounds one heartbeat (and the dial-time ping); default 2s.
	PingTimeout time.Duration
	// CallTimeout bounds one Multiply RPC; default 60s. A call past its
	// deadline abandons the connection (net/rpc cannot cancel a call) and
	// the cuboid reassigns.
	CallTimeout time.Duration
	// SuspectAfter is the missed-beat count that demotes Alive → Suspect
	// (default 1); DeadAfter the count that demotes to Dead (default 3).
	SuspectAfter int
	DeadAfter    int
	// JobAttempts is how many scheduling attempts one cuboid gets across
	// the membership before local fallback (default 6).
	JobAttempts int
	// PerWorkerInflight bounds concurrent Multiply RPCs per worker
	// (default 4); excess cuboids queue driver-side, where a newly added
	// worker can claim them.
	PerWorkerInflight int
	// RetryBackoff is the initial inter-attempt backoff (default 2ms),
	// doubled per attempt and capped at MaxBackoff (default 250ms). The
	// actual sleep is full-jittered: uniform in (0, backoff], so retries
	// from many concurrent cuboids spread out instead of stampeding a
	// recovering worker in lockstep.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// JitterSeed pins the backoff jitter source for deterministic tests;
	// 0 seeds from the clock. Jitter affects only retry timing, never
	// results: outputs stay byte-identical under any seed.
	JitterSeed int64
	// DisableHeartbeat turns the failure detector off (deterministic
	// tests); dead members are then reconnected only on demand.
	DisableHeartbeat bool
	// DisableLocalFallback makes a fully-drained pool an error
	// (ErrWorkerDead / ErrNoWorkers) instead of computing locally.
	DisableLocalFallback bool
	// DisableBlockCache ships every block inline on every send instead of
	// replacing repeats with content-digest references — the pre-cache wire
	// behavior, kept for measurement baselines and bisection.
	DisableBlockCache bool
	// Encoding selects the wire encoding for input block payloads (the A
	// and B blocks shipped to workers): codec.EncodingFP64 (the default,
	// bit-exact), codec.EncodingFP32 (halves value bytes; LOSSY — inputs
	// round to float32 on the wire, so opt in only when ~7 significant
	// digits suffice), or codec.EncodingCompress (lossless XOR+varint).
	// Replies always return bit-exact fp64 partials whatever the inputs
	// used. MultiplyAuto prices the encoding's byte ratio into Eq.(4), so
	// a cheaper encoding can change the chosen partitioning.
	//
	// Memory: each distinct block is encoded once per job and the encoded
	// form is kept until the multiply returns, so that every cuboid (and
	// every retry) that replicates the block sends the same bytes without
	// encoding again. Under fp64 that form is the index structure only —
	// values go out from the block's own storage — but under the two
	// opt-in encodings it is the whole payload: a job holds up to half
	// (fp32) or all (compress, worst case) of its operand bytes a second
	// time for its duration.
	Encoding codec.Encoding
	// Transfer selects the data plane for pipeline operator band exchange
	// (Session.Run): TransferPush gathers peer bands eagerly up front,
	// TransferPull streams them on demand (prefetch overlapped with compute,
	// bounded-concurrency transpose fetches), and TransferAuto (the zero
	// value) prices both per pipeline — pull is chosen exactly when its
	// Eq.(4) extension, the peer term at full fan-out, is strictly cheaper.
	// Results are bit-identical across modes.
	Transfer core.Transfer
	// BatchBytes, when positive, coalesces cuboids whose encoded block
	// payloads are under this size into MultiplyBatch RPCs — one round trip
	// per group instead of one per cuboid on many-tiny-cuboids plans. Items
	// fail independently; a failed item is retried on its own. 0 disables
	// batching.
	BatchBytes int64
	// MaxBatchItems caps cuboids per MultiplyBatch call (default 32).
	MaxBatchItems int
	// Recorder receives membership, reconnect, and heartbeat counters; a
	// private recorder is used when nil (see Driver.NetStats).
	Recorder *metrics.Recorder
	// Tracer, when set, records spans for every multiply: one root per
	// Multiply call, one span per dispatched cuboid, one per RPC attempt
	// (with wire send/recv children), and an aggregation span. The trace
	// span ID also travels to workers so their compute spans parent into
	// the same tree when driver and worker share a tracer (in-process
	// tests) or are merged offline. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// DebugAddr, when non-empty, serves the live introspection endpoints
	// (/debug/distme JSON snapshot, net/http/pprof) on that address for the
	// driver's lifetime. Port 0 picks a free port; see Driver.DebugAddr.
	DebugAddr string
}

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 200 * time.Millisecond
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 60 * time.Second
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 1
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 3
	}
	if o.JobAttempts <= 0 {
		o.JobAttempts = 6
	}
	if o.PerWorkerInflight <= 0 {
		o.PerWorkerInflight = 4
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 250 * time.Millisecond
	}
	if o.MaxBatchItems <= 0 {
		o.MaxBatchItems = 32
	}
	return o
}

// wireCounter meters real socket traffic in both directions.
type wireCounter struct {
	sent, received atomic.Int64
}

// countingConn wraps a net.Conn with the driver's byte meters.
type countingConn struct {
	net.Conn
	wire *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wire.received.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wire.sent.Add(int64(n))
	return n, err
}

// WriteBuffers hands a scatter-gather frame to the wrapped socket whole, so
// it still leaves as one writev (codec.BuffersWriter).
func (c *countingConn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	n, err := bufs.WriteTo(c.Conn)
	c.wire.sent.Add(n)
	return n, err
}

// Dial connects to the workers with default options. Every address must
// answer a Ping before the driver is returned.
func Dial(addrs []string) (*Driver, error) {
	return DialOptions(addrs, Options{})
}

// DialOptions connects to the workers with explicit elasticity options.
func DialOptions(addrs []string, opts Options) (*Driver, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("distnet: no worker addresses")
	}
	if !opts.Encoding.Valid() {
		return nil, fmt.Errorf("distnet: unknown wire encoding %d", opts.Encoding)
	}
	if !opts.Transfer.Valid() {
		return nil, fmt.Errorf("distnet: unknown transfer mode %d", opts.Transfer)
	}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	d := &Driver{
		opts:   opts.withDefaults(),
		wire:   &wireCounter{},
		rec:    opts.Recorder,
		tracer: opts.Tracer,
		jrand:  rand.New(rand.NewSource(seed)),
	}
	if d.rec == nil {
		d.rec = &metrics.Recorder{}
	}
	for _, addr := range addrs {
		m := d.newMember(addr)
		if err := d.connect(m, false); err != nil {
			d.Close()
			return nil, fmt.Errorf("distnet: dial %s: %w", addr, err)
		}
		d.members = append(d.members, m)
	}
	if opts.DebugAddr != "" {
		srv, err := obs.Serve(opts.DebugAddr, func() any { return d.DebugSnapshot() })
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("distnet: debug listener %s: %w", opts.DebugAddr, err)
		}
		d.dbg = srv
	}
	if !d.opts.DisableHeartbeat {
		d.stopDetector = make(chan struct{})
		d.detectorDone = make(chan struct{})
		go d.runDetector()
	}
	return d, nil
}

// Close shuts the autoscaler supervisor (if running), the detector, and
// every client connection. It is idempotent.
func (d *Driver) Close() {
	d.StopAutoscaler()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	members := append([]*member(nil), d.members...)
	stop, done := d.stopDetector, d.detectorDone
	d.mu.Unlock()
	if d.dbg != nil {
		d.dbg.Close()
	}
	if stop != nil {
		close(stop)
		<-done
	}
	for _, m := range members {
		m.mu.Lock()
		client := m.client
		m.client = nil
		if m.state != StateRemoved {
			m.state = StateDead
		}
		m.mu.Unlock()
		if client != nil {
			client.Close()
		}
	}
}

// WireBytes reports the real bytes sent and received over the sockets since
// Dial.
func (d *Driver) WireBytes() (sent, received int64) {
	return d.wire.sent.Load(), d.wire.received.Load()
}

// NetStats returns the driver's membership, reconnect, and heartbeat
// counters.
func (d *Driver) NetStats() metrics.NetStats { return d.rec.Net() }

// Tracer returns the tracer the driver records spans into (nil when
// tracing is off).
func (d *Driver) Tracer() *obs.Tracer { return d.tracer }

// DebugAddr returns the bound address of the driver's debug endpoint, or ""
// when Options.DebugAddr was empty.
func (d *Driver) DebugAddr() string {
	if d.dbg == nil {
		return ""
	}
	return d.dbg.Addr()
}

// ActiveJobs reports how many multiply jobs are currently executing inside
// the driver — the concurrency gauge the serving plane's admission
// controller reads alongside ClusterHealth.
func (d *Driver) ActiveJobs() int64 { return d.activeJobs.Load() }

// PerWorkerInflight reports the per-worker concurrent-RPC bound the driver
// schedules under (Options.PerWorkerInflight after defaults) — one factor of
// the serving plane's cuboid-wave capacity estimate.
func (d *Driver) PerWorkerInflight() int { return d.opts.PerWorkerInflight }

// SetServeDebug registers a provider whose value is embedded as the "serve"
// block of the driver's /debug/distme snapshot — the serving plane installs
// its queue/tenant snapshot here so one endpoint shows the whole stack.
// A nil provider removes the block.
func (d *Driver) SetServeDebug(fn func() any) {
	d.serveMu.Lock()
	d.serveDebug = fn
	d.serveMu.Unlock()
}

// call performs one RPC on a member under the deadline, applying the
// failure state machine: transport errors and timeouts declare the member
// dead (its connection is unusable either way) so the scheduler excludes it
// until a reconnect succeeds. Application-level errors (rpc.ServerError)
// pass through untouched — the worker is alive, the request was bad.
func (d *Driver) call(m *member, method string, args, reply any, timeout time.Duration) error {
	_, client := m.snapshot()
	if client == nil {
		return fmt.Errorf("%w: %s is not connected", ErrWorkerDead, m.addr)
	}
	err := rpcCall(client, method, args, reply, timeout)
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		d.rec.AddDeadlineTimeout()
		m.timeouts.Add(1)
		d.declareDead(m, client)
		return fmt.Errorf("%w (%w): %s.%s on %s after %v",
			ErrDeadlineExceeded, context.DeadlineExceeded, serviceName, method, m.addr, timeout)
	}
	var se rpc.ServerError
	if errors.As(err, &se) {
		if se.Error() == errWorkerDrainingMsg {
			// The worker is shutting down gracefully; stop offering it work
			// (acquireMember skips draining members) until a probe succeeds.
			m.draining.Store(true)
		}
		return err
	}
	if errors.Is(err, codec.ErrFrameTooLarge) {
		// Refused at encode: nothing reached the socket, the worker is fine.
		return err
	}
	d.declareDead(m, client)
	return fmt.Errorf("%w: %s: %v", ErrWorkerDead, m.addr, err)
}

// runJob schedules one cuboid: pick a live member, call under the deadline,
// and on failure retry with capped exponential backoff against the next
// live member (reconnecting dead ones when the pool looks empty). When
// every attempt fails — or no worker is left — the cuboid is computed
// locally with the workers' exact arithmetic, unless fallback is disabled.
//
// parent is the cuboid's span: each RPC attempt (and the local fallback)
// records a child under it, so retries and reassignments are visible as
// sibling attempts on the timeline.
func (d *Driver) runJob(ctx context.Context, args *MultiplyArgs, parent obs.Span) (*MultiplyReply, error) {
	if args.pull {
		d.rec.AddPullJob()
	}
	backoff := d.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < d.opts.JobAttempts; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, anyLive := d.acquireMember()
		if m == nil {
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
		asp := d.tracer.Start(parent.ID(), "rpc.multiply", obs.KindRPC)
		if asp.Active() {
			asp.SetWorker(m.addr)
			asp.SetCuboid(args.cuboidP, args.cuboidQ, args.cuboidR)
		}
		args.traceSpan = uint64(asp.ID())
		if args.pull {
			// The assigned worker must know which manifest owner is itself;
			// ownership is decided at dispatch, not plan time.
			args.pullSelf = m.addr
		}
		var reply MultiplyReply
		callStart := time.Now()
		err := d.call(m, "Multiply", args, &reply, d.opts.CallTimeout)
		m.release()
		if err != nil && asp.Active() {
			asp.SetAttr("error", err.Error())
		}
		if err == nil {
			if d.noteRPCDuration(m, time.Since(callStart)) && asp.Active() {
				asp.SetAttr("straggler", "true")
			}
			if args.pull {
				d.rec.AddPullReply(reply.pullHits, reply.pullFetches, reply.pullPeerBytes)
			}
			asp.End()
			return &reply, nil
		}
		asp.End()
		if errors.Is(err, codec.ErrFrameTooLarge) {
			// No worker can be sent this cuboid: the plan, not the pool, is
			// at fault, so neither a retry nor the local fallback applies.
			return nil, fmt.Errorf("distnet: cuboid does not fit one wire frame; partition finer: %w", err)
		}
		m.retries.Add(1)
		lastErr = err
		var se rpc.ServerError
		if errors.As(err, &se) {
			if se.Error() == errUnknownDigestMsg {
				// The worker no longer holds blocks we sent as references
				// (restart, eviction, or epoch turnover). Forget what we
				// believed it had; the retry ships everything inline.
				d.rec.AddCacheRefMiss()
				m.tracker.forget()
			} else if strings.Contains(se.Error(), errPullPrefix) {
				// Pull resolution failed on the worker — a peer died
				// mid-fetch, or a manifest entry points at an evicted band.
				// The driver is the pull plane's last resort: when it holds
				// the operand blocks, the retry downgrades to push and ships
				// them inline.
				d.rec.AddPullFallback()
				if args.pull && args.pullInline {
					args.pull = false
				}
			} else if !isTransientServerError(se) {
				// The worker computed and rejected the request: retrying the
				// same malformed cuboid elsewhere cannot help.
				return nil, fmt.Errorf("distnet: worker %s rejected cuboid: %w", m.addr, err)
			}
		}
		attempt++
		if attempt < d.opts.JobAttempts {
			d.rec.AddCuboidRetry()
			args.meter.noteRetry()
			d.jitterSleep(backoff)
			backoff *= 2
			if backoff > d.opts.MaxBackoff {
				backoff = d.opts.MaxBackoff
			}
		}
	}
	// Local fallback needs the operand blocks driver-side; a pull cuboid
	// whose blocks the driver never fully held cannot be computed locally.
	if !d.opts.DisableLocalFallback && (!args.pull || args.pullInline) {
		d.rec.AddLocalFallback()
		args.meter.noteLocalFallback()
		lsp := d.tracer.Start(parent.ID(), "local-fallback", obs.KindDriver)
		if lsp.Active() {
			lsp.SetCuboid(args.cuboidP, args.cuboidQ, args.cuboidR)
			if lastErr != nil {
				lsp.SetAttr("cause", lastErr.Error())
			}
		}
		var reply MultiplyReply
		if err := computeCuboid(args, &reply); err != nil {
			lsp.End()
			return nil, err
		}
		lsp.End()
		return &reply, nil
	}
	return nil, fmt.Errorf("distnet: cuboid failed after %d attempts: %w", d.opts.JobAttempts, lastErr)
}

// runBatch ships one group of small cuboids as a single MultiplyBatch RPC,
// retrying the whole batch across members the way runJob retries one
// cuboid. Per-item failures in an otherwise-successful reply — and any
// batch that exhausts its attempts — fall back to individual runJob
// dispatch, which carries its own retries and local fallback, so batching
// can change performance but never outcomes.
func (d *Driver) runBatch(ctx context.Context, jobs []*MultiplyArgs, group []int, root obs.Span, commit func(int, *MultiplyReply), errs []error) {
	bsp := d.tracer.Start(root.ID(), "rpc.multiply_batch", obs.KindRPC)
	if bsp.Active() {
		bsp.SetAttr("items", fmt.Sprintf("%d", len(group)))
	}
	defer bsp.End()
	batch := &MultiplyBatchArgs{Items: make([]MultiplyArgs, len(group)), traceSpan: uint64(bsp.ID())}
	for i, idx := range group {
		batch.Items[i] = *jobs[idx]
		batch.Items[i].traceSpan = uint64(bsp.ID())
	}
	backoff := d.opts.RetryBackoff
	for attempt := 0; attempt < d.opts.JobAttempts; {
		if ctx.Err() != nil {
			break
		}
		m, anyLive := d.acquireMember()
		if m == nil {
			if anyLive {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			if d.reconnectAny() {
				continue
			}
			break
		}
		if bsp.Active() {
			bsp.SetWorker(m.addr)
		}
		var reply MultiplyBatchReply
		callStart := time.Now()
		err := d.call(m, "MultiplyBatch", batch, &reply, d.opts.CallTimeout)
		m.release()
		if err == nil && len(reply.Items) != len(group) {
			err = fmt.Errorf("distnet: batch reply carried %d items for %d cuboids", len(reply.Items), len(group))
		}
		if err == nil {
			if d.noteRPCDuration(m, time.Since(callStart)) && bsp.Active() {
				bsp.SetAttr("straggler", "true")
			}
			d.rec.AddBatchRPC(len(group))
			var failed []int
			sawMiss := false
			for i, idx := range group {
				it := &reply.Items[i]
				if it.Err == "" {
					commit(idx, &MultiplyReply{CBlocks: it.CBlocks})
					continue
				}
				d.rec.AddBatchItemError()
				if it.Err == errUnknownDigestMsg {
					d.rec.AddCacheRefMiss()
					sawMiss = true
				}
				failed = append(failed, idx)
			}
			if sawMiss {
				// The worker no longer holds blocks this batch referenced;
				// the individual retries ship them inline.
				m.tracker.forget()
			}
			if bsp.Active() && len(failed) > 0 {
				bsp.SetAttr("item-errors", fmt.Sprintf("%d", len(failed)))
			}
			d.runBatchFallback(ctx, jobs, failed, root, commit, errs)
			return
		}
		if bsp.Active() {
			bsp.SetAttr("error", err.Error())
		}
		m.retries.Add(1)
		var se rpc.ServerError
		if (errors.As(err, &se) && !isTransientServerError(se)) || errors.Is(err, codec.ErrFrameTooLarge) {
			// The worker rejected the batch frame outright, or it cannot be
			// framed at all; individual dispatch will reproduce (and
			// pinpoint) the failure.
			break
		}
		attempt++
		if attempt < d.opts.JobAttempts {
			d.rec.AddCuboidRetry()
			jobs[group[0]].meter.noteRetry()
			d.jitterSleep(backoff)
			backoff *= 2
			if backoff > d.opts.MaxBackoff {
				backoff = d.opts.MaxBackoff
			}
		}
	}
	d.runBatchFallback(ctx, jobs, group, root, commit, errs)
}

// runBatchFallback dispatches each listed cuboid on its own, with runJob's
// full retry and local-fallback machinery. Commits are first-writer-wins by
// construction: a cuboid reaches here only if its batch slot did not commit.
func (d *Driver) runBatchFallback(ctx context.Context, jobs []*MultiplyArgs, idxs []int, root obs.Span, commit func(int, *MultiplyReply), errs []error) {
	for _, idx := range idxs {
		args := jobs[idx]
		csp := d.tracer.Start(root.ID(), "cuboid", obs.KindDriver)
		csp.SetCuboid(args.cuboidP, args.cuboidQ, args.cuboidR)
		reply, err := d.runJob(ctx, args, csp)
		if err != nil {
			if csp.Active() {
				csp.SetAttr("error", err.Error())
			}
			errs[idx] = err
			csp.End()
			continue
		}
		csp.End()
		commit(idx, reply)
	}
}

// isTransientServerError recognizes application-level errors that still
// warrant reassignment — a draining worker answers RPCs but refuses work,
// a cache miss on a digest reference just means the blocks must be resent
// inline, and a failed pull resolution (dead peer, evicted band) is cured by
// downgrading the retry to push.
func isTransientServerError(se rpc.ServerError) bool {
	return se.Error() == errWorkerDrainingMsg || se.Error() == errUnknownDigestMsg ||
		strings.Contains(se.Error(), errPullPrefix)
}

// isDrainingError reports whether err is the draining worker's refusal
// (matching over the wire, where sentinels arrive as rpc.ServerError text).
func isDrainingError(err error) bool {
	var se rpc.ServerError
	return errors.As(err, &se) && se.Error() == errWorkerDrainingMsg
}

// jitterSleep sleeps a full-jittered backoff: uniform in (0, b]. Full
// jitter (rather than equal or decorrelated) maximizes spread, which is
// what breaks up retry stampedes when many cuboids fail at once.
func (d *Driver) jitterSleep(b time.Duration) {
	if b <= 0 {
		return
	}
	d.jmu.Lock()
	n := d.jrand.Int63n(int64(b)) + 1
	d.jmu.Unlock()
	time.Sleep(time.Duration(n))
}

// noteRPCDuration folds one successful cuboid RPC into the rolling mean and
// reports (and counts) whether it was a straggler.
func (d *Driver) noteRPCDuration(m *member, dur time.Duration) bool {
	d.ewmaMu.Lock()
	n, mean := d.ewmaN, d.ewmaRPC
	d.ewmaN++
	if n == 0 {
		d.ewmaRPC = dur
	} else {
		d.ewmaRPC = (d.ewmaRPC*7 + dur) / 8
	}
	d.ewmaMu.Unlock()
	if n >= stragglerMinSamples && mean > 0 && dur > mean*stragglerMultiple {
		m.stragglers.Add(1)
		d.rec.AddStragglerRPC()
		return true
	}
	return false
}

// multiply runs C = A×B with an explicit (P,Q,R)-cuboid partitioning, each
// cuboid computed by a remote worker. The driver performs the repartition
// (shipping each cuboid's blocks over its worker's socket) and the
// aggregation (summing the partial C blocks that come back). Aggregation
// order is fixed by cuboid index, and reassigned or locally-recomputed
// cuboids use the workers' exact arithmetic, so the product is
// byte-identical to a failure-free run under any failure schedule.
func (d *Driver) multiply(ctx context.Context, a, b *bmat.BlockMatrix, params core.Params, ckpt *checkpointer) (*bmat.BlockMatrix, error) {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, ErrDriverClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a.Cols != b.Rows || a.BlockSize != b.BlockSize {
		return nil, fmt.Errorf("distnet: operands not conformable")
	}
	s := core.ShapeOf(a, b)
	if params.P < 1 || params.P > s.I || params.Q < 1 || params.Q > s.J || params.R < 1 || params.R > s.K {
		return nil, fmt.Errorf("distnet: params %v outside grid %dx%dx%d", params, s.I, s.J, s.K)
	}

	d.activeJobs.Add(1)
	defer d.activeJobs.Add(-1)
	meter := jobMeterFrom(ctx)

	root := d.tracer.Start(0, "distnet.multiply", obs.KindDriver)
	if root.Active() {
		root.SetAttr("params", fmt.Sprintf("%v", params))
		root.SetAttr("grid", fmt.Sprintf("%dx%dx%d blocks", s.I, s.J, s.K))
	}
	defer root.End()

	var jobs []*MultiplyArgs
	for p := 0; p < params.P; p++ {
		ilo, ihi := shuffle.GridSpan(p, s.I, params.P)
		for q := 0; q < params.Q; q++ {
			jlo, jhi := shuffle.GridSpan(q, s.J, params.Q)
			for r := 0; r < params.R; r++ {
				klo, khi := shuffle.GridSpan(r, s.K, params.R)
				if ihi <= ilo || jhi <= jlo || khi <= klo {
					continue
				}
				args := &MultiplyArgs{
					ILo: ilo, IHi: ihi, JLo: jlo, JHi: jhi, KLo: klo, KHi: khi,
					cuboidP: p, cuboidQ: q, cuboidR: r,
					encoding: d.opts.Encoding,
					meter:    meter,
				}
				for i := ilo; i < ihi; i++ {
					for k := klo; k < khi; k++ {
						if blk := a.Block(i, k); blk != nil {
							args.ABlocks = append(args.ABlocks, BlockRec{Key: bmat.BlockKey{I: i, J: k}, Block: blk})
						}
					}
				}
				for k := klo; k < khi; k++ {
					for j := jlo; j < jhi; j++ {
						if blk := b.Block(k, j); blk != nil {
							args.BBlocks = append(args.BBlocks, BlockRec{Key: bmat.BlockKey{I: k, J: j}, Block: blk})
						}
					}
				}
				jobs = append(jobs, args)
			}
		}
	}

	if ckpt != nil {
		if err := ckpt.ensureManifest(a, b, params, len(jobs)); err != nil {
			return nil, err
		}
	}

	replies := make([]*MultiplyReply, len(jobs))
	errs := make([]error, len(jobs))
	var restored int
	var wg sync.WaitGroup
	commit := func(idx int, reply *MultiplyReply) {
		replies[idx] = reply
		meter.noteCommit(reply)
		if ckpt != nil {
			ckpt.store(idx, reply, a.Rows, b.Cols, a.BlockSize)
		}
	}
	var small []int // cuboids under BatchBytes, coalesced into batch RPCs
	prep := d.newJobPrep()
	for idx, args := range jobs {
		if ckpt != nil {
			if reply, ok := ckpt.load(idx, a.Rows, b.Cols, a.BlockSize); ok {
				replies[idx] = reply
				restored++
				continue
			}
		}
		// Prepared here, on the dispatching goroutine, one cuboid at a time:
		// the first cuboid is on the wire while later blocks are still being
		// encoded and hashed, and the cuboid goroutines only ever read.
		payload, err := prep.prepare(args)
		if err != nil {
			errs[idx] = err
			continue
		}
		meter.noteDispatch(payload)
		if d.opts.BatchBytes > 0 && !args.pull && payload < d.opts.BatchBytes {
			small = append(small, idx)
			continue
		}
		wg.Add(1)
		d.inflight.Add(1)
		go func(idx int, args *MultiplyArgs) {
			defer wg.Done()
			defer d.inflight.Add(-1)
			csp := d.tracer.Start(root.ID(), "cuboid", obs.KindDriver)
			csp.SetCuboid(args.cuboidP, args.cuboidQ, args.cuboidR)
			defer csp.End()
			reply, err := d.runJob(ctx, args, csp)
			if err != nil {
				if csp.Active() {
					csp.SetAttr("error", err.Error())
				}
				errs[idx] = err
				return
			}
			commit(idx, reply)
		}(idx, args)
	}
	for start := 0; start < len(small); start += d.opts.MaxBatchItems {
		end := start + d.opts.MaxBatchItems
		if end > len(small) {
			end = len(small)
		}
		group := small[start:end]
		wg.Add(1)
		d.inflight.Add(int64(len(group)))
		go func(group []int) {
			defer wg.Done()
			defer d.inflight.Add(-int64(len(group)))
			d.runBatch(ctx, jobs, group, root, commit, errs)
		}(group)
	}
	wg.Wait()
	if restored > 0 && root.Active() {
		root.SetAttr("checkpoint-restored", fmt.Sprintf("%d", restored))
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("distnet: multiply: %w", err)
		}
	}

	agg := d.tracer.Start(root.ID(), "aggregate", obs.KindDriver)
	out := bmat.New(a.Rows, b.Cols, a.BlockSize)
	for _, reply := range replies {
		for _, rec := range reply.CBlocks {
			dense, ok := rec.Block.(*matrix.Dense)
			if !ok {
				dense = rec.Block.Dense()
			}
			if existing := out.Block(rec.Key.I, rec.Key.J); existing != nil {
				matrix.AddInto(existing.(*matrix.Dense), dense)
			} else {
				out.SetBlock(rec.Key.I, rec.Key.J, dense)
			}
		}
	}
	agg.End()
	return out, nil
}

// jobPrep prepares the operand blocks of one push multiply: each distinct
// block is planned, encoded and (when cacheable) digested exactly once, and
// the record is shared by every cuboid that replicates the block — the same
// block pointer appears in Q or P cuboids, the replication Eq. (4) counts.
// The record's size feeds the job meter and the batch threshold, its digest
// the worker cache references, and the client codec frames every send from
// it. Records live until the multiply returns — retries resend from them —
// which under an opt-in encoding means a second, encoded copy of the operands
// (see Options.Encoding). Used from the dispatching goroutine only.
type jobPrep struct {
	d *Driver
	// epoch scopes the job's digest references; 0 with the block cache off,
	// when no block is digested either.
	epoch uint64
	recs  map[matrix.Block]*codec.Prepared
}

func (d *Driver) newJobPrep() *jobPrep {
	jp := &jobPrep{d: d, recs: map[matrix.Block]*codec.Prepared{}}
	if !d.opts.DisableBlockCache {
		jp.epoch = d.epoch.Add(1)
	}
	return jp
}

// prepare stamps the job epoch on one cuboid, points each of its block
// records at the block's prepared form — building it on first sight — and
// returns the cuboid's payload bytes under the job's encoding, the quantity
// Options.BatchBytes thresholds and the job meter charges.
func (jp *jobPrep) prepare(args *MultiplyArgs) (int64, error) {
	args.cacheEpoch = jp.epoch
	var payload int64
	for _, list := range [2][]BlockRec{args.ABlocks, args.BBlocks} {
		for i := range list {
			rec := &list[i]
			p, ok := jp.recs[rec.Block]
			if !ok {
				var err error
				if p, err = codec.Prepare(rec.Block, jp.d.opts.Encoding); err != nil {
					return 0, fmt.Errorf("distnet: block %v: %w", rec.Key, err)
				}
				// Blocks below the cacheable threshold stay digestless and
				// always ship inline. The digest covers the encoded bytes, so
				// it is taken under the job's encoding — the worker caches
				// what the bytes decoded to.
				if !jp.d.opts.DisableBlockCache && p.Size() >= minCacheableBytes {
					p.Hash()
				}
				jp.d.rec.AddBlockPrepared()
				jp.recs[rec.Block] = p
			}
			rec.prep = p
			payload += p.Size()
		}
	}
	return payload, nil
}
