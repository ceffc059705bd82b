// Package metrics provides the communication and timing accounting that the
// paper's evaluation reports: bytes moved in the matrix-repartition and
// matrix-aggregation steps, time spent in each of the three steps of
// distributed matrix multiplication, and GPU PCI-E traffic. Counters are
// safe for concurrent use by task goroutines.
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
func (e ElasticStats) Sub(o ElasticStats) ElasticStats {
	return ElasticStats{
		TaskRetries:         e.TaskRetries - o.TaskRetries,
		SpeculativeLaunched: e.SpeculativeLaunched - o.SpeculativeLaunched,
		SpeculativeWins:     e.SpeculativeWins - o.SpeculativeWins,
		FetchRetries:        e.FetchRetries - o.FetchRetries,
		RecomputedPartials:  e.RecomputedPartials - o.RecomputedPartials,
		FaultsInjected:      e.FaultsInjected - o.FaultsInjected,
	}
}

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
	HeartbeatRTTMax   time.Duration `json:"heartbeat_rtt_max_nanos"`
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
	// EncodedBlocks counts input blocks shipped under an opt-in wire
	// encoding (fp32 or compressed); EncodedBytesSaved accumulates the
	// difference between their raw fp64 plans and the bytes actually framed.
	// Both stay zero under the default bit-exact encoding.
	EncodedBlocks     int64 `json:"encoded_blocks"`
	EncodedBytesSaved int64 `json:"encoded_bytes_saved"`
	// BatchRPCs counts MultiplyBatch calls issued by the small-cuboid
	// coalescer; BatchItems is the total cuboids they carried;
	// BatchItemErrors counts per-item failures inside otherwise-successful
	// batches (each is retried individually).
	BatchRPCs       int64 `json:"batch_rpcs"`
	BatchItems      int64 `json:"batch_items"`
	BatchItemErrors int64 `json:"batch_item_errors"`
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
// from n (a maximum does not subtract).
func (n NetStats) Sub(o NetStats) NetStats {
	return NetStats{
		HeartbeatsSent:      n.HeartbeatsSent - o.HeartbeatsSent,
		HeartbeatMisses:     n.HeartbeatMisses - o.HeartbeatMisses,
		HeartbeatRTTNanos:   n.HeartbeatRTTNanos - o.HeartbeatRTTNanos,
		HeartbeatRTTCount:   n.HeartbeatRTTCount - o.HeartbeatRTTCount,
		HeartbeatRTTMax:     n.HeartbeatRTTMax,
		Reconnects:          n.Reconnects - o.Reconnects,
		WorkersJoined:       n.WorkersJoined - o.WorkersJoined,
		WorkersLeft:         n.WorkersLeft - o.WorkersLeft,
		WorkersDeclaredDead: n.WorkersDeclaredDead - o.WorkersDeclaredDead,
		DeadlineTimeouts:    n.DeadlineTimeouts - o.DeadlineTimeouts,
		CuboidRetries:       n.CuboidRetries - o.CuboidRetries,
		LocalFallbacks:      n.LocalFallbacks - o.LocalFallbacks,
		WireEncodeBytes:     n.WireEncodeBytes - o.WireEncodeBytes,
		WireEncodeNanos:     n.WireEncodeNanos - o.WireEncodeNanos,
		WireDecodeBytes:     n.WireDecodeBytes - o.WireDecodeBytes,
		WireDecodeNanos:     n.WireDecodeNanos - o.WireDecodeNanos,
		CacheRefsSent:       n.CacheRefsSent - o.CacheRefsSent,
		CacheRefMisses:      n.CacheRefMisses - o.CacheRefMisses,
		CacheBytesSaved:     n.CacheBytesSaved - o.CacheBytesSaved,
		BlocksPrepared:      n.BlocksPrepared - o.BlocksPrepared,
		EncodedBlocks:       n.EncodedBlocks - o.EncodedBlocks,
		EncodedBytesSaved:   n.EncodedBytesSaved - o.EncodedBytesSaved,
		BatchRPCs:           n.BatchRPCs - o.BatchRPCs,
		BatchItems:          n.BatchItems - o.BatchItems,
		BatchItemErrors:     n.BatchItemErrors - o.BatchItemErrors,
		PipelinePuts:        n.PipelinePuts - o.PipelinePuts,
		PipelinePutBytes:    n.PipelinePutBytes - o.PipelinePutBytes,
		PipelineOps:         n.PipelineOps - o.PipelineOps,
		PipelineFetches:     n.PipelineFetches - o.PipelineFetches,
		PipelineFetchBytes:  n.PipelineFetchBytes - o.PipelineFetchBytes,
		ResidentBytes:       n.ResidentBytes - o.ResidentBytes,
		DriverBytesAvoided:  n.DriverBytesAvoided - o.DriverBytesAvoided,
		PipelineRecoveries:  n.PipelineRecoveries - o.PipelineRecoveries,
		ScaleUps:            n.ScaleUps - o.ScaleUps,
		ScaleDowns:          n.ScaleDowns - o.ScaleDowns,
		WorkersRetired:      n.WorkersRetired - o.WorkersRetired,
		StragglerRPCs:       n.StragglerRPCs - o.StragglerRPCs,
		PullJobs:            n.PullJobs - o.PullJobs,
		PullCacheHits:       n.PullCacheHits - o.PullCacheHits,
		PullPeerFetches:     n.PullPeerFetches - o.PullPeerFetches,
		PullPeerBytes:       n.PullPeerBytes - o.PullPeerBytes,
		PullFallbacks:       n.PullFallbacks - o.PullFallbacks,
	}
}

// String renders the network-elasticity counters compactly.
func (n NetStats) String() string {
	return fmt.Sprintf("heartbeats=%d/%d rtt(avg=%v max=%v) reconnects=%d churn=+%d/-%d dead=%d timeouts=%d retries=%d local=%d wire(enc=%s dec=%s) cache(refs=%d misses=%d saved=%s) encoding(blocks=%d saved=%s) batch(rpcs=%d items=%d errs=%d) pipeline(puts=%d/%s ops=%d fetches=%d/%s resident=%s avoided=%s recoveries=%d)",
		n.HeartbeatsSent-n.HeartbeatMisses, n.HeartbeatsSent,
		n.HeartbeatRTTAvg(), n.HeartbeatRTTMax,
		n.Reconnects, n.WorkersJoined, n.WorkersLeft, n.WorkersDeclaredDead,
		n.DeadlineTimeouts, n.CuboidRetries, n.LocalFallbacks,
		FormatBytes(n.WireEncodeBytes), FormatBytes(n.WireDecodeBytes),
		n.CacheRefsSent, n.CacheRefMisses, FormatBytes(n.CacheBytesSaved),
		n.EncodedBlocks, FormatBytes(n.EncodedBytesSaved),
		n.BatchRPCs, n.BatchItems, n.BatchItemErrors,
		n.PipelinePuts, FormatBytes(n.PipelinePutBytes), n.PipelineOps,
		n.PipelineFetches, FormatBytes(n.PipelineFetchBytes),
		FormatBytes(n.ResidentBytes), FormatBytes(n.DriverBytesAvoided),
		n.PipelineRecoveries) +
		fmt.Sprintf(" scale(+%d/-%d retired=%d) stragglers=%d pull(jobs=%d hits=%d fetches=%d/%s fallbacks=%d)",
			n.ScaleUps, n.ScaleDowns, n.WorkersRetired, n.StragglerRPCs,
			n.PullJobs, n.PullCacheHits, n.PullPeerFetches, FormatBytes(n.PullPeerBytes), n.PullFallbacks)
}

// Recorder accumulates per-step bytes and durations for one job. The zero
// value is ready to use.
type Recorder struct {
	bytes [numSteps]atomic.Int64
	nanos [numSteps]atomic.Int64

	retries      atomic.Int64
	specLaunched atomic.Int64
	specWins     atomic.Int64
	fetchRetries atomic.Int64
	recomputed   atomic.Int64
	faults       atomic.Int64

	heartbeats       atomic.Int64
	heartbeatMisses  atomic.Int64
	rttNanos         atomic.Int64
	rttCount         atomic.Int64
	rttMax           atomic.Int64
	reconnects       atomic.Int64
	workersJoined    atomic.Int64
	workersLeft      atomic.Int64
	workersDead      atomic.Int64
	deadlineTimeouts atomic.Int64
	cuboidRetries    atomic.Int64
	localFallbacks   atomic.Int64

	wireEncBytes    atomic.Int64
	wireEncNanos    atomic.Int64
	wireDecBytes    atomic.Int64
	wireDecNanos    atomic.Int64
	cacheRefsSent   atomic.Int64
	cacheRefMisses  atomic.Int64
	cacheBytesSaved atomic.Int64
	blocksPrepared  atomic.Int64

	encodedBlocks     atomic.Int64
	encodedBytesSaved atomic.Int64
	batchRPCs         atomic.Int64
	batchItems        atomic.Int64
	batchItemErrors   atomic.Int64

	pipelinePuts       atomic.Int64
	pipelinePutBytes   atomic.Int64
	pipelineOps        atomic.Int64
	pipelineFetches    atomic.Int64
	pipelineFetchBytes atomic.Int64
	residentBytes      atomic.Int64
	driverBytesAvoided atomic.Int64
	pipelineRecoveries atomic.Int64

	scaleUps       atomic.Int64
	scaleDowns     atomic.Int64
	workersRetired atomic.Int64
	stragglerRPCs  atomic.Int64

	pullJobs        atomic.Int64
	pullCacheHits   atomic.Int64
	pullPeerFetches atomic.Int64
	pullPeerBytes   atomic.Int64
	pullFallbacks   atomic.Int64

	mu     sync.Mutex
	spills int64 // bytes written to disk (E.D.C. accounting)
}

// AddHeartbeat records one failure-detector probe sent.
func (r *Recorder) AddHeartbeat() { r.heartbeats.Add(1) }

// AddHeartbeatMiss records a probe that failed or timed out.
func (r *Recorder) AddHeartbeatMiss() { r.heartbeatMisses.Add(1) }

// ObserveHeartbeatRTT records a successful probe's round-trip time.
func (r *Recorder) ObserveHeartbeatRTT(d time.Duration) {
	r.rttNanos.Add(int64(d))
	r.rttCount.Add(1)
	for {
		cur := r.rttMax.Load()
		if int64(d) <= cur || r.rttMax.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// AddReconnect records a dead worker successfully redialed.
func (r *Recorder) AddReconnect() { r.reconnects.Add(1) }

// AddWorkerJoined records a worker added to the membership.
func (r *Recorder) AddWorkerJoined() { r.workersJoined.Add(1) }

// AddWorkerLeft records a worker removed from the membership.
func (r *Recorder) AddWorkerLeft() { r.workersLeft.Add(1) }

// AddWorkerDeclaredDead records a member retired by the failure detector or
// a failed call.
func (r *Recorder) AddWorkerDeclaredDead() { r.workersDead.Add(1) }

// AddDeadlineTimeout records an RPC abandoned past its per-call deadline.
func (r *Recorder) AddDeadlineTimeout() { r.deadlineTimeouts.Add(1) }

// AddCuboidRetry records a cuboid scheduling attempt beyond the first.
func (r *Recorder) AddCuboidRetry() { r.cuboidRetries.Add(1) }

// AddLocalFallback records a cuboid computed locally on the driver.
func (r *Recorder) AddLocalFallback() { r.localFallbacks.Add(1) }

// AddWireEncode records one RPC frame encoded for the wire.
func (r *Recorder) AddWireEncode(bytes int64, d time.Duration) {
	r.wireEncBytes.Add(bytes)
	r.wireEncNanos.Add(int64(d))
}

// AddWireDecode records one RPC body decoded from the wire.
func (r *Recorder) AddWireDecode(bytes int64, d time.Duration) {
	r.wireDecBytes.Add(bytes)
	r.wireDecNanos.Add(int64(d))
}

// AddCacheRefSent records a block replaced by a digest reference on the
// wire; saved is the encoded payload size the reference avoided.
func (r *Recorder) AddCacheRefSent(saved int64) {
	r.cacheRefsSent.Add(1)
	r.cacheBytesSaved.Add(saved)
}

// AddBlockPrepared records one prepared wire record: a distinct operand
// block encoded (and, when cacheable, digested) for its job.
func (r *Recorder) AddBlockPrepared() { r.blocksPrepared.Add(1) }

// AddCacheRefMiss records an unknown-digest refusal that forced an inline
// resend.
func (r *Recorder) AddCacheRefMiss() { r.cacheRefMisses.Add(1) }

// AddEncodedBlock records one input block framed under an opt-in wire
// encoding; saved is rawPlan − encodedPlan bytes (never negative: the
// compressed encodings fall back to raw per block).
func (r *Recorder) AddEncodedBlock(saved int64) {
	r.encodedBlocks.Add(1)
	r.encodedBytesSaved.Add(saved)
}

// AddBatchRPC records one MultiplyBatch call carrying items cuboids.
func (r *Recorder) AddBatchRPC(items int) {
	r.batchRPCs.Add(1)
	r.batchItems.Add(int64(items))
}

// AddBatchItemError records one per-item failure inside a batch reply.
func (r *Recorder) AddBatchItemError() { r.batchItemErrors.Add(1) }

// AddPipelinePut records one Handle upload of n payload bytes into the
// distributed block store, and raises the resident gauge.
func (r *Recorder) AddPipelinePut(n int64) {
	r.pipelinePuts.Add(1)
	r.pipelinePutBytes.Add(n)
	r.residentBytes.Add(n)
}

// AddPipelineOp records one worker-side pipeline operator executed, whose
// output adds n bytes to the resident gauge.
func (r *Recorder) AddPipelineOp(n int64) {
	r.pipelineOps.Add(1)
	r.residentBytes.Add(n)
}

// AddPipelineFetch records one final result of n bytes crossing back to the
// driver.
func (r *Recorder) AddPipelineFetch(n int64) {
	r.pipelineFetches.Add(1)
	r.pipelineFetchBytes.Add(n)
}

// AddResidentBytes adjusts the resident gauge by delta (negative on Free).
func (r *Recorder) AddResidentBytes(delta int64) { r.residentBytes.Add(delta) }

// AddDriverBytesAvoided records the Eq.(4)-modeled driver traffic a resident
// pipeline saved over materialize-every-op execution.
func (r *Recorder) AddDriverBytesAvoided(n int64) { r.driverBytesAvoided.Add(n) }

// AddPipelineRecovery records one lineage rebuild of resident handles after
// a worker loss or eviction.
func (r *Recorder) AddPipelineRecovery() { r.pipelineRecoveries.Add(1) }

// AddScaleUp records one autoscaler scale-up applied (a worker added).
func (r *Recorder) AddScaleUp() { r.scaleUps.Add(1) }

// AddScaleDown records one autoscaler scale-down applied (a worker drained
// out of rotation).
func (r *Recorder) AddScaleDown() { r.scaleDowns.Add(1) }

// AddWorkerRetired records a dead member reaped from the table by the
// autoscaler's housekeeping.
func (r *Recorder) AddWorkerRetired() { r.workersRetired.Add(1) }

// AddStragglerRPC records a successful cuboid RPC slower than the straggler
// multiple of the rolling mean.
func (r *Recorder) AddStragglerRPC() { r.stragglerRPCs.Add(1) }

// AddPullJob records one cuboid dispatched in pull mode (manifests on the
// wire instead of operand blocks).
func (r *Recorder) AddPullJob() { r.pullJobs.Add(1) }

// AddPullReply folds one pull reply's resolution counters in: manifest
// entries the worker's cache satisfied, peer fetches it issued, and the
// peer bytes they moved.
func (r *Recorder) AddPullReply(hits, fetches, bytes int64) {
	r.pullCacheHits.Add(hits)
	r.pullPeerFetches.Add(fetches)
	r.pullPeerBytes.Add(bytes)
}

// AddPullFallback records one pull cuboid downgraded to an inline push after
// a failed manifest resolution.
func (r *Recorder) AddPullFallback() { r.pullFallbacks.Add(1) }

// Net returns the current real-network elasticity counters.
func (r *Recorder) Net() NetStats {
	return NetStats{
		HeartbeatsSent:      r.heartbeats.Load(),
		HeartbeatMisses:     r.heartbeatMisses.Load(),
		HeartbeatRTTNanos:   r.rttNanos.Load(),
		HeartbeatRTTCount:   r.rttCount.Load(),
		HeartbeatRTTMax:     time.Duration(r.rttMax.Load()),
		Reconnects:          r.reconnects.Load(),
		WorkersJoined:       r.workersJoined.Load(),
		WorkersLeft:         r.workersLeft.Load(),
		WorkersDeclaredDead: r.workersDead.Load(),
		DeadlineTimeouts:    r.deadlineTimeouts.Load(),
		CuboidRetries:       r.cuboidRetries.Load(),
		LocalFallbacks:      r.localFallbacks.Load(),
		WireEncodeBytes:     r.wireEncBytes.Load(),
		WireEncodeNanos:     r.wireEncNanos.Load(),
		WireDecodeBytes:     r.wireDecBytes.Load(),
		WireDecodeNanos:     r.wireDecNanos.Load(),
		CacheRefsSent:       r.cacheRefsSent.Load(),
		CacheRefMisses:      r.cacheRefMisses.Load(),
		CacheBytesSaved:     r.cacheBytesSaved.Load(),
		BlocksPrepared:      r.blocksPrepared.Load(),
		EncodedBlocks:       r.encodedBlocks.Load(),
		EncodedBytesSaved:   r.encodedBytesSaved.Load(),
		BatchRPCs:           r.batchRPCs.Load(),
		BatchItems:          r.batchItems.Load(),
		BatchItemErrors:     r.batchItemErrors.Load(),
		PipelinePuts:        r.pipelinePuts.Load(),
		PipelinePutBytes:    r.pipelinePutBytes.Load(),
		PipelineOps:         r.pipelineOps.Load(),
		PipelineFetches:     r.pipelineFetches.Load(),
		PipelineFetchBytes:  r.pipelineFetchBytes.Load(),
		ResidentBytes:       r.residentBytes.Load(),
		DriverBytesAvoided:  r.driverBytesAvoided.Load(),
		PipelineRecoveries:  r.pipelineRecoveries.Load(),
		ScaleUps:            r.scaleUps.Load(),
		ScaleDowns:          r.scaleDowns.Load(),
		WorkersRetired:      r.workersRetired.Load(),
		StragglerRPCs:       r.stragglerRPCs.Load(),
		PullJobs:            r.pullJobs.Load(),
		PullCacheHits:       r.pullCacheHits.Load(),
		PullPeerFetches:     r.pullPeerFetches.Load(),
		PullPeerBytes:       r.pullPeerBytes.Load(),
		PullFallbacks:       r.pullFallbacks.Load(),
	}
}

// AddTaskRetry records one task re-execution after a failed attempt.
func (r *Recorder) AddTaskRetry() { r.retries.Add(1) }

// AddSpeculative records one speculative straggler copy launched.
func (r *Recorder) AddSpeculative() { r.specLaunched.Add(1) }

// AddSpeculativeWin records a speculative copy finishing first.
func (r *Recorder) AddSpeculativeWin() { r.specWins.Add(1) }

// AddFetchRetry records one transient shuffle-fetch failure that was retried.
func (r *Recorder) AddFetchRetry() { r.fetchRetries.Add(1) }

// AddRecomputedPartial records one aggregation partial recomputed from
// lineage after loss.
func (r *Recorder) AddRecomputedPartial() { r.recomputed.Add(1) }

// AddFaultInjected records one fault delivered by the injector.
func (r *Recorder) AddFaultInjected() { r.faults.Add(1) }

// Elastic returns the current elastic-execution counters.
func (r *Recorder) Elastic() ElasticStats {
	return ElasticStats{
		TaskRetries:         r.retries.Load(),
		SpeculativeLaunched: r.specLaunched.Load(),
		SpeculativeWins:     r.specWins.Load(),
		FetchRetries:        r.fetchRetries.Load(),
		RecomputedPartials:  r.recomputed.Load(),
		FaultsInjected:      r.faults.Load(),
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

// Reset zeroes every counter.
func (r *Recorder) Reset() {
	for i := range r.bytes {
		r.bytes[i].Store(0)
		r.nanos[i].Store(0)
	}
	r.retries.Store(0)
	r.specLaunched.Store(0)
	r.specWins.Store(0)
	r.fetchRetries.Store(0)
	r.recomputed.Store(0)
	r.faults.Store(0)
	r.heartbeats.Store(0)
	r.heartbeatMisses.Store(0)
	r.rttNanos.Store(0)
	r.rttCount.Store(0)
	r.rttMax.Store(0)
	r.reconnects.Store(0)
	r.workersJoined.Store(0)
	r.workersLeft.Store(0)
	r.workersDead.Store(0)
	r.deadlineTimeouts.Store(0)
	r.cuboidRetries.Store(0)
	r.localFallbacks.Store(0)
	r.wireEncBytes.Store(0)
	r.wireEncNanos.Store(0)
	r.wireDecBytes.Store(0)
	r.wireDecNanos.Store(0)
	r.cacheRefsSent.Store(0)
	r.cacheRefMisses.Store(0)
	r.cacheBytesSaved.Store(0)
	r.blocksPrepared.Store(0)
	r.encodedBlocks.Store(0)
	r.encodedBytesSaved.Store(0)
	r.batchRPCs.Store(0)
	r.batchItems.Store(0)
	r.batchItemErrors.Store(0)
	r.pipelinePuts.Store(0)
	r.pipelinePutBytes.Store(0)
	r.pipelineOps.Store(0)
	r.pipelineFetches.Store(0)
	r.pipelineFetchBytes.Store(0)
	r.residentBytes.Store(0)
	r.driverBytesAvoided.Store(0)
	r.pipelineRecoveries.Store(0)
	r.scaleUps.Store(0)
	r.scaleDowns.Store(0)
	r.workersRetired.Store(0)
	r.stragglerRPCs.Store(0)
	r.pullJobs.Store(0)
	r.pullCacheHits.Store(0)
	r.pullPeerFetches.Store(0)
	r.pullPeerBytes.Store(0)
	r.pullFallbacks.Store(0)
	r.mu.Lock()
	r.spills = 0
	r.mu.Unlock()
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
		Elastic:          r.Elastic(),
		Net:              r.Net(),
	}
}

// CommunicationBytes is repartition + aggregation traffic of the snapshot.
func (s Snapshot) CommunicationBytes() int64 { return s.RepartitionBytes + s.AggregationBytes }

// Sub returns the counter-wise difference s − o, used to isolate the traffic
// of one operation from a cumulative recorder.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		RepartitionBytes: s.RepartitionBytes - o.RepartitionBytes,
		AggregationBytes: s.AggregationBytes - o.AggregationBytes,
		PCIEBytes:        s.PCIEBytes - o.PCIEBytes,
		Repartition:      s.Repartition - o.Repartition,
		LocalMultiply:    s.LocalMultiply - o.LocalMultiply,
		Aggregation:      s.Aggregation - o.Aggregation,
		PCIE:             s.PCIE - o.PCIE,
		SpillBytes:       s.SpillBytes - o.SpillBytes,
		Elastic:          s.Elastic.Sub(o.Elastic),
		Net:              s.Net.Sub(o.Net),
	}
}

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
