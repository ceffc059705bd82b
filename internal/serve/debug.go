package serve

import (
	"sort"
	"time"

	"distme/internal/metrics"
)

// TenantDebug is one tenant's row in the serving plane's debug block.
type TenantDebug struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
	// Queued and Running are the tenant's live job counts; VTime its
	// fair-share virtual clock.
	Queued  int     `json:"queued"`
	Running int     `json:"running"`
	VTime   float64 `json:"vtime"`
	// ChargedBytes / ChargedFlops are the planned costs currently held
	// against the tenant's quotas (queued + running jobs).
	ChargedBytes int64 `json:"charged_bytes"`
	ChargedFlops int64 `json:"charged_flops"`
	// Stats is the tenant's cumulative counter block.
	Stats metrics.TenantStats `json:"stats"`
}

// Debug is the serving plane's /debug/distme block (embedded under "serve"
// in the driver snapshot via SetServeDebug).
type Debug struct {
	Time time.Time `json:"time"`
	// Queued / Running are global job counts; WaveBytes the running jobs'
	// summed cuboid-wave estimate against CapacityBytes.
	Queued        int     `json:"queued"`
	Running       int     `json:"running"`
	WaveBytes     float64 `json:"wave_bytes"`
	CapacityBytes float64 `json:"capacity_bytes"`
	// MaxConcurrent is the current dispatch-parallelism bound; AvgRun the
	// EWMA job run time feeding retry-after estimates.
	MaxConcurrent int           `json:"max_concurrent"`
	AvgRun        time.Duration `json:"avg_run"`
	Closed        bool          `json:"closed"`
	// ResidentJobs counts the job records the server holds (any state);
	// ResidentProductBytes is the stored size of the products among them,
	// kept until Forget. Both return to zero once every finished job is
	// forgotten.
	ResidentJobs         int           `json:"resident_jobs"`
	ResidentProductBytes int64         `json:"resident_product_bytes"`
	Tenants              []TenantDebug `json:"tenants"`
}

// DebugSnapshot captures the server's live scheduling state. Safe to call
// concurrently with submits and dispatches.
func (s *Server) DebugSnapshot() Debug {
	stats := map[string]metrics.TenantStats{}
	for _, t := range s.rec.Tenants() {
		stats[t.Tenant] = t
	}
	s.mu.Lock()
	d := Debug{
		Time:          time.Now(),
		Queued:        s.queued,
		Running:       s.runningN,
		WaveBytes:     s.waveBytes,
		CapacityBytes: s.capacityLocked(),
		MaxConcurrent: s.maxConcurrentLocked(),
		AvgRun:        time.Duration(s.avgRunNano),
		Closed:        s.closed,

		ResidentJobs:         len(s.jobs),
		ResidentProductBytes: s.productBytes,
	}
	for name, t := range s.tenants {
		d.Tenants = append(d.Tenants, TenantDebug{
			Name:         name,
			Weight:       t.cfg.Weight,
			Queued:       len(t.queue),
			Running:      t.running,
			VTime:        t.vtime,
			ChargedBytes: t.chargedBytes,
			ChargedFlops: t.chargedFlops,
			Stats:        stats[name],
		})
	}
	s.mu.Unlock()
	sort.Slice(d.Tenants, func(i, j int) bool { return d.Tenants[i].Name < d.Tenants[j].Name })
	return d
}
