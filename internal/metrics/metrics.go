// Package metrics provides the communication and timing accounting that the
// paper's evaluation reports: bytes moved in the matrix-repartition and
// matrix-aggregation steps, time spent in each of the three steps of
// distributed matrix multiplication, and GPU PCI-E traffic. Counters are
// safe for concurrent use by task goroutines.
//
// Each stats struct (NetStats, ElasticStats, and the per-job, per-worker
// and per-member blocks of internal/distnet) is the only declaration of its
// counters: a Counters block holds one live copy, call sites add to a field
// by name with one atomic add, and the snapshot (Counters.Load) and the
// difference (Sub) are derived from the struct's fields.
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Step identifies one of the three steps of distributed matrix
// multiplication (paper §2.2) plus the GPU transfer channel.
type Step int

const (
	// StepRepartition is the matrix repartition step (input shuffle /
	// broadcast / replication).
	StepRepartition Step = iota
	// StepLocalMultiply is the per-task local multiplication step.
	StepLocalMultiply
	// StepAggregation is the matrix aggregation step (intermediate-block
	// shuffle and reduce).
	StepAggregation
	// StepPCIE is host↔device traffic in the GPU acceleration path.
	StepPCIE
	numSteps
)

// String names the step as the paper's figures do.
func (s Step) String() string {
	switch s {
	case StepRepartition:
		return "matrix repartition"
	case StepLocalMultiply:
		return "local multiplication"
	case StepAggregation:
		return "matrix aggregation"
	case StepPCIE:
		return "pci-e transfer"
	default:
		return fmt.Sprintf("step(%d)", int(s))
	}
}

// ElasticStats counts the fault-tolerant-execution events of a run: task
// re-executions, speculative straggler copies, shuffle-fetch retries and
// lineage recomputations, plus the injected faults that caused them. All
// counters are monotone; a per-operation view is obtained by snapshot
// subtraction, like the byte counters.
type ElasticStats struct {
	// TaskRetries is the number of task re-executions after failed attempts.
	TaskRetries int64 `json:"task_retries"`
	// SpeculativeLaunched counts speculative copies launched for stragglers.
	SpeculativeLaunched int64 `json:"speculative_launched"`
	// SpeculativeWins counts speculative copies that finished before the
	// original attempt (the original is cancelled and its result discarded).
	SpeculativeWins int64 `json:"speculative_wins"`
	// FetchRetries counts transient shuffle-fetch failures that were retried.
	FetchRetries int64 `json:"fetch_retries"`
	// RecomputedPartials counts aggregation partials recomputed from lineage
	// after their producing task's output was lost.
	RecomputedPartials int64 `json:"recomputed_partials"`
	// FaultsInjected counts faults the deterministic injector delivered
	// (crashes, injected O.O.M., straggler delays, fetch failures).
	FaultsInjected int64 `json:"faults_injected"`
}

// Sub returns the counter-wise difference e − o.
func (e ElasticStats) Sub(o ElasticStats) ElasticStats { return Sub(e, o) }

// String renders the elastic counters compactly for logs and reports.
func (e ElasticStats) String() string {
	return fmt.Sprintf("retries=%d speculative=%d/%d fetch-retries=%d recomputed=%d faults=%d",
		e.TaskRetries, e.SpeculativeWins, e.SpeculativeLaunched,
		e.FetchRetries, e.RecomputedPartials, e.FaultsInjected)
}

// NetStats counts the real-network elasticity events of a driver: failure
// detector heartbeats and their round-trip times, reconnects of dead
// workers, membership churn, per-RPC deadline expiries, cuboid
// reassignments, and local-compute fallbacks. All counters are monotone;
// per-operation views come from snapshot subtraction.
type NetStats struct {
	// HeartbeatsSent and HeartbeatMisses count failure-detector probes and
	// the ones that failed or timed out.
	HeartbeatsSent  int64 `json:"heartbeats_sent"`
	HeartbeatMisses int64 `json:"heartbeat_misses"`
	// HeartbeatRTTNanos and HeartbeatRTTCount accumulate successful-probe
	// round-trip time (see HeartbeatRTTAvg); HeartbeatRTTMax is the largest
	// single RTT observed.
	HeartbeatRTTNanos int64         `json:"heartbeat_rtt_nanos"`
	HeartbeatRTTCount int64         `json:"heartbeat_rtt_count"`
	HeartbeatRTTMax   time.Duration `json:"heartbeat_rtt_max_nanos" metrics:"max"`
	// Reconnects counts dead workers successfully redialed.
	Reconnects int64 `json:"reconnects"`
	// WorkersJoined and WorkersLeft count dynamic membership changes
	// (AddWorker / RemoveWorker); WorkersDeclaredDead counts members the
	// detector or a failed call retired.
	WorkersJoined       int64 `json:"workers_joined"`
	WorkersLeft         int64 `json:"workers_left"`
	WorkersDeclaredDead int64 `json:"workers_declared_dead"`
	// DeadlineTimeouts counts RPCs abandoned past their per-call deadline.
	DeadlineTimeouts int64 `json:"deadline_timeouts"`
	// CuboidRetries counts cuboid scheduling attempts beyond the first.
	CuboidRetries int64 `json:"cuboid_retries"`
	// LocalFallbacks counts cuboids computed on the driver because the
	// worker pool had drained (or every attempt failed).
	LocalFallbacks int64 `json:"local_fallbacks"`
	// WireEncodeBytes/Nanos and WireDecodeBytes/Nanos meter the driver's
	// wire codec: bytes framed for requests and parsed from responses, and
	// the time spent doing it (the serialization cost the gob path hid).
	WireEncodeBytes int64 `json:"wire_encode_bytes"`
	WireEncodeNanos int64 `json:"wire_encode_nanos"`
	WireDecodeBytes int64 `json:"wire_decode_bytes"`
	WireDecodeNanos int64 `json:"wire_decode_nanos"`
	// CacheRefsSent counts blocks replaced by 32-byte digest references on
	// the wire; CacheBytesSaved accumulates the encoded payload bytes those
	// references avoided resending. CacheRefMisses counts unknown-digest
	// refusals (worker restart, eviction, epoch turnover) that forced an
	// inline resend.
	CacheRefsSent   int64 `json:"cache_refs_sent"`
	CacheRefMisses  int64 `json:"cache_ref_misses"`
	CacheBytesSaved int64 `json:"cache_bytes_saved"`
	// BlocksPrepared counts prepared wire records built by push multiplies:
	// one per distinct operand block per job, however many cuboids
	// replicate the block.
	BlocksPrepared int64 `json:"blocks_prepared"`
	// BatchItems is always 0: cuboids are dispatched one per call, and the
	// field stays only because the repository benchmark reads it.
	BatchItems int64 `json:"batch_items"`
	// PipelinePuts/PipelinePutBytes count Handle uploads into the distributed
	// block store; PipelineOps counts worker-side pipeline operators executed;
	// PipelineFetches/PipelineFetchBytes count final results crossing back to
	// the driver. ResidentBytes is a gauge of bytes currently resident in
	// worker stores for live handles (driver-modeled).
	PipelinePuts       int64 `json:"pipeline_puts"`
	PipelinePutBytes   int64 `json:"pipeline_put_bytes"`
	PipelineOps        int64 `json:"pipeline_ops"`
	PipelineFetches    int64 `json:"pipeline_fetches"`
	PipelineFetchBytes int64 `json:"pipeline_fetch_bytes"`
	ResidentBytes      int64 `json:"resident_bytes"`
	// DriverBytesAvoided accumulates the Eq.(4)-modeled difference between
	// materialize-every-op execution and the resident pipeline actually run —
	// the driver traffic the handle store saved. PipelineRecoveries counts
	// lineage rebuilds after a worker holding resident blocks was lost.
	DriverBytesAvoided int64 `json:"driver_bytes_avoided"`
	PipelineRecoveries int64 `json:"pipeline_recoveries"`
	// ScaleUps/ScaleDowns count autoscaler decisions applied (workers added
	// to / drained out of the membership by the self-healing loop);
	// WorkersRetired counts dead members the supervisor reaped from the
	// table after they stayed unreachable past the retirement threshold.
	ScaleUps       int64 `json:"scale_ups"`
	ScaleDowns     int64 `json:"scale_downs"`
	WorkersRetired int64 `json:"workers_retired"`
	// StragglerRPCs counts successful cuboid RPCs whose latency exceeded the
	// straggler multiple of the driver's rolling mean — the health plane's
	// per-worker slowness signal.
	StragglerRPCs int64 `json:"straggler_rpcs"`
	// PullJobs counts cuboids dispatched in pull mode (manifest-only
	// requests; the worker demand-fetches the operand slices) and the band
	// operators of resident pipelines, which stream their peer bands the
	// same way. PullCacheHits
	// counts manifest entries satisfied by the worker's content-addressed
	// cache without any fetch; PullPeerFetches/PullPeerBytes count the
	// coalesced worker→worker fetches pull resolution issued and the payload
	// they moved; PullFallbacks counts pull cuboids the driver downgraded to
	// inline push after a failed resolution.
	PullJobs        int64 `json:"pull_jobs"`
	PullCacheHits   int64 `json:"pull_cache_hits"`
	PullPeerFetches int64 `json:"pull_peer_fetches"`
	PullPeerBytes   int64 `json:"pull_peer_bytes"`
	PullFallbacks   int64 `json:"pull_fallbacks"`
}

// HeartbeatRTTAvg is the mean heartbeat round-trip time.
func (n NetStats) HeartbeatRTTAvg() time.Duration {
	if n.HeartbeatRTTCount == 0 {
		return 0
	}
	return time.Duration(n.HeartbeatRTTNanos / n.HeartbeatRTTCount)
}

// Sub returns the counter-wise difference n − o. HeartbeatRTTMax is kept
// from n (a maximum does not subtract); ResidentBytes, a gauge, gives its
// change.
func (n NetStats) Sub(o NetStats) NetStats { return Sub(n, o) }

// String renders the network-elasticity counters compactly.
func (n NetStats) String() string {
	return fmt.Sprintf("heartbeats=%d/%d rtt(avg=%v max=%v) reconnects=%d churn=+%d/-%d dead=%d timeouts=%d retries=%d local=%d wire(enc=%s dec=%s) cache(refs=%d misses=%d saved=%s) pipeline(puts=%d/%s ops=%d fetches=%d/%s resident=%s avoided=%s recoveries=%d)",
		n.HeartbeatsSent-n.HeartbeatMisses, n.HeartbeatsSent,
		n.HeartbeatRTTAvg(), n.HeartbeatRTTMax,
		n.Reconnects, n.WorkersJoined, n.WorkersLeft, n.WorkersDeclaredDead,
		n.DeadlineTimeouts, n.CuboidRetries, n.LocalFallbacks,
		FormatBytes(n.WireEncodeBytes), FormatBytes(n.WireDecodeBytes),
		n.CacheRefsSent, n.CacheRefMisses, FormatBytes(n.CacheBytesSaved),
		n.PipelinePuts, FormatBytes(n.PipelinePutBytes), n.PipelineOps,
		n.PipelineFetches, FormatBytes(n.PipelineFetchBytes),
		FormatBytes(n.ResidentBytes), FormatBytes(n.DriverBytesAvoided),
		n.PipelineRecoveries) +
		fmt.Sprintf(" scale(+%d/-%d retired=%d) stragglers=%d pull(jobs=%d hits=%d fetches=%d/%s fallbacks=%d)",
			n.ScaleUps, n.ScaleDowns, n.WorkersRetired, n.StragglerRPCs,
			n.PullJobs, n.PullCacheHits, n.PullPeerFetches, FormatBytes(n.PullPeerBytes), n.PullFallbacks)
}

// Recorder accumulates per-step bytes and durations for one job, and the
// elasticity and network event counters. The zero value is ready to use.
type Recorder struct {
	bytes [numSteps]atomic.Int64
	nanos [numSteps]atomic.Int64

	// Net and Elastic are the event counters; a call site adds to the field
	// it counts, atomic.AddInt64(&rec.Net.Live().CuboidRetries, 1), and
	// Net.Load() / Elastic.Load() snapshot them.
	Net     Counters[NetStats]
	Elastic Counters[ElasticStats]

	mu     sync.Mutex
	spills int64 // bytes written to disk (E.D.C. accounting)
}

// ObserveHeartbeatRTT records a successful probe's round-trip time: its sum,
// its count and the running maximum.
func (r *Recorder) ObserveHeartbeatRTT(d time.Duration) {
	n := r.Net.Live()
	atomic.AddInt64(&n.HeartbeatRTTNanos, int64(d))
	atomic.AddInt64(&n.HeartbeatRTTCount, 1)
	max := (*int64)(&n.HeartbeatRTTMax)
	for {
		cur := atomic.LoadInt64(max)
		if int64(d) <= cur || atomic.CompareAndSwapInt64(max, cur, int64(d)) {
			return
		}
	}
}

// AddBytes records n bytes of traffic attributed to step s.
func (r *Recorder) AddBytes(s Step, n int64) { r.bytes[s].Add(n) }

// AddDuration records wall or virtual time attributed to step s.
func (r *Recorder) AddDuration(s Step, d time.Duration) { r.nanos[s].Add(int64(d)) }

// Bytes returns the bytes recorded for step s.
func (r *Recorder) Bytes(s Step) int64 { return r.bytes[s].Load() }

// Duration returns the time recorded for step s.
func (r *Recorder) Duration(s Step) time.Duration { return time.Duration(r.nanos[s].Load()) }

// CommunicationBytes is the paper's "communication cost": repartition plus
// aggregation traffic.
func (r *Recorder) CommunicationBytes() int64 {
	return r.Bytes(StepRepartition) + r.Bytes(StepAggregation)
}

// AddSpill records intermediate data written to disk; the engine compares
// the running total against cluster disk capacity to reproduce the paper's
// E.D.C. (exceeded disk capacity) failures.
func (r *Recorder) AddSpill(n int64) {
	r.mu.Lock()
	r.spills += n
	r.mu.Unlock()
}

// SpillBytes returns the accumulated spill volume.
func (r *Recorder) SpillBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spills
}

// StepRatios returns the fraction of total recorded time spent in the three
// multiplication steps, as plotted in Figure 7(e). The fractions sum to 1
// when any time was recorded; otherwise all are 0.
func (r *Recorder) StepRatios() (repartition, local, aggregation float64) {
	rp := float64(r.nanos[StepRepartition].Load())
	lm := float64(r.nanos[StepLocalMultiply].Load())
	ag := float64(r.nanos[StepAggregation].Load())
	total := rp + lm + ag
	if total == 0 {
		return 0, 0, 0
	}
	return rp / total, lm / total, ag / total
}

// Snapshot is an immutable copy of a Recorder's counters, convenient for
// reporting after a run.
type Snapshot struct {
	RepartitionBytes int64         `json:"repartition_bytes"`
	AggregationBytes int64         `json:"aggregation_bytes"`
	PCIEBytes        int64         `json:"pcie_bytes"`
	Repartition      time.Duration `json:"repartition_nanos"`
	LocalMultiply    time.Duration `json:"local_multiply_nanos"`
	Aggregation      time.Duration `json:"aggregation_nanos"`
	PCIE             time.Duration `json:"pcie_nanos"`
	SpillBytes       int64         `json:"spill_bytes"`
	// Elastic carries the fault-tolerant-execution counters.
	Elastic ElasticStats `json:"elastic"`
	// Net carries the real-network elasticity counters (heartbeats,
	// reconnects, membership churn); zero outside the distnet path.
	Net NetStats `json:"net"`
}

// Snapshot captures the current counter values.
func (r *Recorder) Snapshot() Snapshot {
	return Snapshot{
		RepartitionBytes: r.Bytes(StepRepartition),
		AggregationBytes: r.Bytes(StepAggregation),
		PCIEBytes:        r.Bytes(StepPCIE),
		Repartition:      r.Duration(StepRepartition),
		LocalMultiply:    r.Duration(StepLocalMultiply),
		Aggregation:      r.Duration(StepAggregation),
		PCIE:             r.Duration(StepPCIE),
		SpillBytes:       r.SpillBytes(),
		Elastic:          r.Elastic.Load(),
		Net:              r.Net.Load(),
	}
}

// CommunicationBytes is repartition + aggregation traffic of the snapshot.
func (s Snapshot) CommunicationBytes() int64 { return s.RepartitionBytes + s.AggregationBytes }

// Sub returns the counter-wise difference s − o, used to isolate the traffic
// of one operation from a cumulative recorder.
func (s Snapshot) Sub(o Snapshot) Snapshot { return Sub(s, o) }

// String renders the snapshot compactly for logs and example output.
func (s Snapshot) String() string {
	return fmt.Sprintf("repartition=%s aggregation=%s pcie=%s comm=%s",
		FormatBytes(s.RepartitionBytes), FormatBytes(s.AggregationBytes),
		FormatBytes(s.PCIEBytes), FormatBytes(s.CommunicationBytes()))
}

// FormatBytes renders a byte count with a binary-prefix unit, e.g. "1.50 GiB".
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
