package distnet

import (
	"time"

	"distme/internal/matrix"
	"distme/internal/metrics"
	"distme/internal/obs"
)

// The /debug/distme JSON schemas. Driver and worker serve the same shape of
// envelope — {"kind": "driver"|"worker", ...} — so an operator (or a script)
// can poll both sides of a job with one decoder. docs/OBSERVABILITY.md
// documents every field.

// debugRecentSpans bounds the recent-span list in one snapshot.
const debugRecentSpans = 32

// DriverDebug is the driver's /debug/distme snapshot.
type DriverDebug struct {
	Kind string    `json:"kind"` // always "driver"
	Time time.Time `json:"time"`
	// JobEpoch is the current multiply-job epoch (the lifecycle watermark
	// for block-cache digest references on the wire).
	JobEpoch uint64 `json:"job_epoch"`
	// ActiveJobs counts multiply jobs currently inside the driver.
	ActiveJobs int64 `json:"active_jobs"`
	// WireSentBytes / WireReceivedBytes are real socket traffic since DialOptions.
	WireSentBytes     int64 `json:"wire_sent_bytes"`
	WireReceivedBytes int64 `json:"wire_received_bytes"`
	// Health is the health plane's snapshot: one row per member ever known,
	// dead and removed ones included, with its windowed score; the queue
	// depth; and cluster pressure.
	Health ClusterHealth `json:"health"`
	// Autoscaler is the decision log of the running supervisor (absent when
	// none is running).
	Autoscaler []ScaleEvent `json:"autoscaler,omitempty"`
	// Net is the driver's elasticity and wire-codec counter block.
	Net metrics.NetStats `json:"net"`
	// Serve is the serving plane's snapshot (queues, tenants, admission
	// counters), present when a server registered via SetServeDebug.
	Serve any `json:"serve,omitempty"`
	// Trace summarizes the tracer (absent when tracing is off).
	Trace *obs.TraceDebug `json:"trace,omitempty"`
}

// DebugSnapshot captures the driver's current state for the debug endpoint.
// It is safe to call concurrently with multiplies.
func (d *Driver) DebugSnapshot() DriverDebug {
	sent, received := d.WireBytes()
	d.serveMu.Lock()
	serveFn := d.serveDebug
	d.serveMu.Unlock()
	var serve any
	if serveFn != nil {
		serve = serveFn()
	}
	return DriverDebug{
		Kind:              "driver",
		Time:              time.Now(),
		JobEpoch:          d.epoch.Load(),
		ActiveJobs:        d.activeJobs.Load(),
		WireSentBytes:     sent,
		WireReceivedBytes: received,
		Health:            d.ClusterHealth(),
		Autoscaler:        d.AutoscalerEvents(),
		Net:               d.NetStats(),
		Serve:             serve,
		Trace:             d.tracer.DebugSnapshot(debugRecentSpans),
	}
}

// WorkerDebug is the worker's /debug/distme snapshot.
type WorkerDebug struct {
	Kind string    `json:"kind"` // always "worker"
	Time time.Time `json:"time"`
	// Addr is the worker's listen address ("" for unserved test workers).
	Addr string `json:"addr,omitempty"`
	// Draining reports graceful shutdown in progress (new work refused).
	Draining bool `json:"draining"`
	// Multiplies is the count of cuboids served since start; InFlightRPCs
	// the RPCs currently executing.
	Multiplies   int   `json:"multiplies"`
	InFlightRPCs int64 `json:"inflight_rpcs"`
	// Cache is the block cache's occupancy and counters.
	Cache CacheStats `json:"cache"`
	// Store is the distributed block store's resident-handle occupancy and
	// counters (puts, execs, evictions, worker→worker fetches).
	Store StoreStats `json:"store"`
	// Pull is the one-sided pull plane's resolution counters: cache dedup
	// hits, coalesced peer fetches and their payload, failed resolutions.
	Pull WorkerPullStats `json:"pull"`
	// Trace summarizes the tracer (absent when tracing is off).
	Trace *obs.TraceDebug `json:"trace,omitempty"`
}

// DebugSnapshot captures the worker's current state for the debug endpoint.
// It is safe to call concurrently with served RPCs.
func (w *Worker) DebugSnapshot() WorkerDebug {
	w.mu.Lock()
	draining := w.draining
	multiplies := w.multiplies
	var addr string
	if w.listener != nil {
		addr = w.listener.Addr().String()
	}
	w.mu.Unlock()
	return WorkerDebug{
		Kind:         "worker",
		Time:         time.Now(),
		Addr:         addr,
		Draining:     draining,
		Multiplies:   multiplies,
		InFlightRPCs: w.inflightN.Load(),
		Cache:        w.CacheStats(),
		Store:        w.StoreStats(),
		Pull:         w.PullStats(),
		Trace:        w.tracer.DebugSnapshot(debugRecentSpans),
	}
}

// ServeDebug starts the worker's introspection endpoint on addr (port 0
// picks a free port). The caller closes the returned server; Shutdown does
// not.
func (w *Worker) ServeDebug(addr string) (*obs.Server, error) {
	return obs.Serve(addr, func() any {
		return workerDebugPage{WorkerDebug: w.DebugSnapshot(), Kernel: matrix.KernelName()}
	})
}

// workerDebugPage is what the worker's /debug/distme serves: the snapshot's
// fields and, beside them, the dense kernel this process selected ("avx2"
// or "go") — with the flops attribute of the worker.compute spans under
// trace.recent, a cuboid's GFLOP/s read from the running worker.
type workerDebugPage struct {
	WorkerDebug
	Kernel string `json:"kernel"`
}
