package distnet

import (
	"context"
	"sync/atomic"

	"distme/internal/codec"
	"distme/internal/metrics"
)

// JobMeter attributes one logical job's traffic and elasticity events to its
// owner. The serving plane attaches a meter to the context it passes into
// Execute or Session.Multiply; the cuboid job path reads it there, so under
// either transfer mode everything the multiply dispatches — every cuboid
// payload, reply, retry, and fallback — is charged to that meter as well as
// to the driver's global NetStats, giving per-tenant byte and compute
// accounting without a recorder per job.
//
// Request/reply bytes are encoded block-payload bytes (the Eq.(4) quantity),
// not raw socket frames: digest references and framing change what
// crosses the socket, but the payload measure is stable across cache state,
// which is what quota enforcement wants. A pull cuboid's manifest carries no
// block payload: it charges request bytes only if it downgrades to push.
type JobMeter struct {
	c metrics.Counters[JobMeterStats]
}

// JobMeterStats is a point-in-time snapshot of a JobMeter.
type JobMeterStats struct {
	// Cuboids counts committed cuboid results.
	Cuboids int64 `json:"cuboids"`
	// RequestBytes / ReplyBytes are encoded block-payload bytes dispatched
	// and received for this job.
	RequestBytes int64 `json:"request_bytes"`
	ReplyBytes   int64 `json:"reply_bytes"`
	// Retries counts cuboid scheduling retries; LocalFallbacks counts
	// cuboids the driver computed itself after the pool failed them.
	Retries        int64 `json:"retries"`
	LocalFallbacks int64 `json:"local_fallbacks"`
}

// Stats snapshots the meter.
func (m *JobMeter) Stats() JobMeterStats {
	if m == nil {
		return JobMeterStats{}
	}
	return m.c.Load()
}

type jobMeterKey struct{}

// WithJobMeter returns a context whose multiplies charge their cuboid
// traffic to m. Passing nil m returns ctx unchanged.
func WithJobMeter(ctx context.Context, m *JobMeter) context.Context {
	if m == nil {
		return ctx
	}
	return context.WithValue(ctx, jobMeterKey{}, m)
}

// jobMeterFrom extracts the meter attached by WithJobMeter, or nil.
func jobMeterFrom(ctx context.Context) *JobMeter {
	m, _ := ctx.Value(jobMeterKey{}).(*JobMeter)
	return m
}

// noteDispatch charges one cuboid request's payload.
func (m *JobMeter) noteDispatch(bytes int64) {
	if m != nil {
		atomic.AddInt64(&m.c.Live().RequestBytes, bytes)
	}
}

// noteCommit charges one committed reply.
func (m *JobMeter) noteCommit(reply *multiplyReply) {
	if m == nil {
		return
	}
	var n int64
	for i := range reply.CBlocks {
		n += codec.EncodedBytes(reply.CBlocks[i].Block)
	}
	atomic.AddInt64(&m.c.Live().ReplyBytes, n)
	atomic.AddInt64(&m.c.Live().Cuboids, 1)
}

func (m *JobMeter) noteRetry() {
	if m != nil {
		atomic.AddInt64(&m.c.Live().Retries, 1)
	}
}

func (m *JobMeter) noteLocalFallback() {
	if m != nil {
		atomic.AddInt64(&m.c.Live().LocalFallbacks, 1)
	}
}
