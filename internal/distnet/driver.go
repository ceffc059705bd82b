package distnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distme/internal/cluster"
	"distme/internal/codec"
	"distme/internal/metrics"
	"distme/internal/obs"
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

	// epoch numbers multiply jobs. It bounds how long a cached block lives,
	// not which job may reference it: a key is bound to one content, so a
	// later job's reference to an earlier job's block is exactly the hit the
	// cache is for, and an entry untouched for defaultCacheEpochWindow epochs
	// expires on both sides. Block-store sessions draw their epochs from the
	// same counter.
	epoch atomic.Uint64

	// keys issues the cache keys of pushed blocks (blockkeys.go).
	keys *blockKeys

	// handleID numbers block-store handles, globally across sessions; a
	// lineage rebuild assigns fresh ids so stale bands on a worker that
	// missed the recovery wipe are unreachable rather than wrong.
	handleID atomic.Uint64

	// inflight counts cuboids dispatched but not yet aggregated, surfaced
	// by the debug endpoint.
	inflight atomic.Int64

	// activeJobs counts multiply jobs currently inside the driver, surfaced
	// by the debug endpoint.
	activeJobs atomic.Int64

	// serveDebug, when registered via SetServeDebug, contributes the
	// serving plane's block to DebugSnapshot.
	serveMu    sync.Mutex
	serveDebug func() any

	mu      sync.Mutex
	members []*member
	rr      int // scheduling cursor: runCuboids reserves one position per cuboid
	chains  int // chain cursor: planChain reserves one position per holder
	closed  bool

	// backoff is the retry delay policy cuboid dispatch shares with the
	// in-process scheduler (cluster.Backoff); Options.JitterSeed pins its
	// jitter for deterministic tests.
	backoff *cluster.Backoff

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
	// CallTimeout bounds one Multiply call; default 60s. A call past its
	// deadline abandons the connection (the worker cannot be told to stop)
	// and the cuboid reassigns.
	CallTimeout time.Duration
	// SuspectAfter is the missed-beat count that demotes Alive → Suspect
	// (default 1); DeadAfter the count that demotes to Dead (default 3).
	SuspectAfter int
	DeadAfter    int
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
	// DisableBlockCache ships every block inline on every send instead of
	// replacing repeats with content-digest references — the pre-cache wire
	// behavior, kept for measurement baselines and bisection.
	DisableBlockCache bool
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
	if o.PerWorkerInflight <= 0 {
		o.PerWorkerInflight = 4
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 250 * time.Millisecond
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

// DialOptions connects to the workers; the zero Options are the defaults.
// Every address must answer a Ping before the driver is returned.
func DialOptions(addrs []string, opts Options) (*Driver, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("distnet: no worker addresses")
	}
	d := &Driver{
		opts:   opts.withDefaults(),
		wire:   &wireCounter{},
		rec:    opts.Recorder,
		tracer: opts.Tracer,
		keys:   newBlockKeys(),
	}
	d.backoff = cluster.NewBackoff(d.opts.RetryBackoff, d.opts.MaxBackoff, cluster.JitterSource(opts.JitterSeed))
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

// checkOpen returns ErrDriverClosed once Close has run.
func (d *Driver) checkOpen() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDriverClosed
	}
	return nil
}

// WireBytes reports the real bytes sent and received over the sockets since
// DialOptions.
func (d *Driver) WireBytes() (sent, received int64) {
	return d.wire.sent.Load(), d.wire.received.Load()
}

// NetStats returns the driver's membership, reconnect, and heartbeat
// counters.
func (d *Driver) NetStats() metrics.NetStats { return d.rec.Net.Load() }

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

// dialWorker connects to a worker and exchanges preambles; wrap, when set,
// wraps the connection first (the driver's byte meters).
func dialWorker(addr string, timeout time.Duration, wrap func(net.Conn) net.Conn) (*codec.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	if err := codec.Handshake(conn, workerPreamble); err != nil {
		conn.Close()
		return nil, err
	}
	return codec.NewClient(conn, workerErrors), nil
}

// roundTrip runs one call on a driver connection under timeout: args frames
// the request, reply decodes the answer as it streams in (either may be
// nil). Encode and decode timings go to the recorder and, under a traced
// parent span, wire.send and wire.recv spans record them.
func (d *Driver) roundTrip(client *codec.Client, timeout time.Duration, method byte, parent obs.SpanID, args func(*codec.FrameWriter) error, reply func(*codec.FrameReader) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return client.Call(ctx, method, func(w *codec.FrameWriter) error {
		start := time.Now()
		if args != nil {
			if err := args(w); err != nil {
				return err
			}
		}
		n, size := d.rec.Net.Live(), w.Size()
		atomic.AddInt64(&n.WireEncodeBytes, size)
		atomic.AddInt64(&n.WireEncodeNanos, int64(time.Since(start)))
		d.wireSpan(parent, "wire.send", start, size)
		return nil
	}, func(r *codec.FrameReader) error {
		start, n := time.Now(), r.Offset()
		if reply != nil {
			if err := reply(r); err != nil {
				return err
			}
		}
		n = r.Offset() - n
		ns := d.rec.Net.Live()
		atomic.AddInt64(&ns.WireDecodeBytes, n)
		atomic.AddInt64(&ns.WireDecodeNanos, int64(time.Since(start)))
		d.wireSpan(parent, "wire.recv", start, n)
		return nil
	})
}

// wireSpan records one wire span, from start to now, under a traced parent.
func (d *Driver) wireSpan(parent obs.SpanID, name string, start time.Time, bytes int64) {
	if parent != 0 && d.tracer.Enabled() {
		d.tracer.AddCompleted(obs.SpanData{Parent: parent, Name: name, Kind: obs.KindRPC,
			P: -1, Q: -1, R: -1, Start: start, End: time.Now(), Bytes: bytes})
	}
}

// call performs one call on a member under the deadline (roundTrip),
// applying the failure state machine: transport errors and timeouts declare
// the member dead (its connection is unusable either way) so the scheduler
// excludes it until a reconnect succeeds. The worker's own answers
// (*codec.RemoteError) pass through — the worker is alive, the request was
// bad — and so does a reply that did not decode, which failed only its own
// call. A call that failed without the worker's answer may not have
// delivered its frame, so the digests it marked sent are forgotten.
func (d *Driver) call(m *member, method byte, parent obs.SpanID, args func(*codec.FrameWriter) error, reply func(*codec.FrameReader) error, timeout time.Duration) error {
	_, client := m.snapshot()
	if client == nil {
		return fmt.Errorf("%w: %s is not connected", ErrWorkerDead, m.addr)
	}
	err := d.roundTrip(client, timeout, method, parent, args, reply)
	if err == nil {
		return nil
	}
	var re *codec.RemoteError
	if errors.As(err, &re) {
		if errors.Is(re, ErrWorkerDraining) {
			// The worker is shutting down gracefully; stop offering it work
			// (acquireMember skips draining members) until a probe succeeds.
			m.draining.Store(true)
		}
		return err
	}
	m.tracker.forget()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		atomic.AddInt64(&d.rec.Net.Live().DeadlineTimeouts, 1)
		atomic.AddInt64(&m.events.Live().Timeouts, 1)
		d.declareDead(m, client)
		return fmt.Errorf("%w (%w): method %d on %s after %v",
			ErrDeadlineExceeded, context.DeadlineExceeded, method, m.addr, timeout)
	case errors.Is(err, codec.ErrClosed):
		// The connection ended, whatever ended it.
	case errors.Is(err, codec.ErrFrameTooLarge), errors.Is(err, codec.ErrBadFrame):
		// Refused at encode, or a reply that did not parse: the connection
		// is still in step and the worker is fine.
		return err
	}
	d.declareDead(m, client)
	return fmt.Errorf("%w: %s: %v", ErrWorkerDead, m.addr, err)
}

// transientRefusal reports whether a worker's answer still warrants
// reassignment: a draining worker answers calls but refuses work, a cache
// miss on a digest reference just means the blocks must be resent inline,
// and a failed pull resolution (dead peer, evicted band) is cured by
// downgrading the retry to push.
func transientRefusal(re *codec.RemoteError) bool {
	var pe *pullError
	return errors.Is(re, ErrWorkerDraining) || errors.Is(re, errUnknownDigest) || errors.As(re, &pe)
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
		atomic.AddInt64(&m.events.Live().Stragglers, 1)
		atomic.AddInt64(&d.rec.Net.Live().StragglerRPCs, 1)
		return true
	}
	return false
}
