// Package distnet is the over-the-wire execution path: a driver that runs
// CuboidMM's local-multiplication step on remote worker processes over TCP
// (net/rpc with a custom binary codec), really serializing blocks onto
// sockets. The in-process cluster substrate simulates Spark's accounting;
// this package complements it with genuinely distributed execution — same
// cuboid plans, same results, measured wire bytes — so the repartition/
// aggregation costs the paper reasons about correspond to observable
// network traffic.
package distnet

import (
	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/matrix"
)

// BlockRec is one keyed block on the wire.
type BlockRec struct {
	Key   bmat.BlockKey
	Block matrix.Block

	// prep is Block encoded once for its job (jobPrep), set driver-side on
	// every record of a cuboid before it ships inline: the client codec
	// frames it from there and, when it carries a digest, replaces repeat
	// sends to the same worker with a 32-byte reference.
	prep *codec.Prepared
}

// MultiplyArgs ships one cuboid to a worker: the voxel box plus the A- and
// B-side blocks it needs. Indices are global block coordinates so the reply
// keys line up with the driver's output grid.
type MultiplyArgs struct {
	ILo, IHi, JLo, JHi, KLo, KHi int
	ABlocks                      []BlockRec // A_{i,k} for the box
	BBlocks                      []BlockRec // B_{k,j} for the box

	// cacheEpoch scopes this cuboid's digest references to one driver job;
	// the worker's block cache retires older epochs when a new one arrives.
	cacheEpoch uint64

	// traceSpan is the driver-side span the worker parents its compute span
	// to (0 when tracing is off); cuboidP/Q/R are the cuboid's grid
	// coordinate, carried so worker-side spans are labeled like driver-side
	// ones. Both travel on the wire via the custom codec but are invisible
	// to the arithmetic, so traced and untraced runs are byte-identical.
	traceSpan                 uint64
	cuboidP, cuboidQ, cuboidR int

	// encoding steers the driver codec's encoder for this cuboid's block
	// payloads (Options.Encoding). It never travels on the wire: the worker
	// decodes whatever tags arrive, so mixed-encoding traffic is fine.
	encoding codec.Encoding

	// decodeErr is set worker-side by the lenient batch decode when this
	// item's blocks could not be resolved (unknown digest); the worker
	// reports it in the item's reply slot instead of computing.
	decodeErr string

	// meter, when set, receives per-job traffic attribution for this
	// cuboid (WithJobMeter). Driver-side only; never on the wire.
	meter *JobMeter

	// prep is the cuboid's job-wide block preparer, kept on the cuboid so a
	// pull cuboid can be prepared at the moment it downgrades to push.
	// Driver-side only.
	prep *jobPrep

	// pull switches this cuboid to the one-sided data plane: ABlocks and
	// BBlocks stay off the wire, and the worker resolves the placement
	// manifests instead — cache dedup first, then coalesced fetches from
	// the peer owners (entries whose owner equals pullSelf, the assigned
	// worker's own address, read the local store). A failed resolution is
	// a transient error the driver answers by re-pushing inline — the
	// driver stays the last-resort data source.
	pull                 bool
	aManifest, bManifest *codec.Manifest
	pullSelf             string

	// pullInline marks a pull cuboid whose retained ABlocks/BBlocks are a
	// complete inline copy of both operand slices (both handles kept their
	// Put source driver-side). Only such cuboids may downgrade to an inline
	// push retry or run the local fallback — a partial inline set would
	// silently compute against missing blocks. Driver-side only.
	pullInline bool
}

// MultiplyReply returns the cuboid's partial C blocks.
type MultiplyReply struct {
	CBlocks []BlockRec

	// Pull-resolution accounting, folded into the driver's NetStats:
	// manifest entries satisfied by the content-addressed cache, peer
	// fetches issued, and peer bytes moved. Zero on push replies.
	pullHits, pullFetches, pullPeerBytes int64
}

// MultiplyBatchArgs ships many small cuboids in one RPC. The driver
// coalesces cuboids whose encoded payloads fall under Options.BatchBytes so
// a many-tiny-cuboids plan pays one round trip per group instead of one per
// cuboid. Items decode leniently on the worker: an unknown digest marks
// only its own item failed (BatchItem.Err) rather than refusing the frame.
type MultiplyBatchArgs struct {
	Items []MultiplyArgs

	// traceSpan parents the codec's wire.send/wire.recv spans for the batch
	// call; driver-side only, never on the wire (items carry their own).
	traceSpan uint64
}

// BatchItem is one cuboid's slot in a batch reply: either its partial C
// blocks or the application-level error that item alone hit.
type BatchItem struct {
	Err     string
	CBlocks []BlockRec
}

// MultiplyBatchReply mirrors MultiplyBatchArgs item-for-item, so the driver
// can commit the successes and retry exactly the failures.
type MultiplyBatchReply struct {
	Items []BatchItem
}

// PingArgs and PingReply implement the liveness probe.
type PingArgs struct{}

// PingReply reports the worker's identity plus a load snapshot the driver's
// health plane folds into the per-worker score: RPCs currently executing,
// and the handle store's occupancy/eviction pressure.
type PingReply struct {
	Hostname string

	// InFlight is the number of RPCs the worker is executing right now.
	InFlight int64
	// StoreBytes/StoreHandles are the handle store's current occupancy;
	// StoreEvictions is its lifetime eviction count (monotonic, so the
	// driver can window deltas).
	StoreBytes     int64
	StoreHandles   int64
	StoreEvictions int64
}

// serviceName is the registered net/rpc service.
const serviceName = "DistME"

// ServiceName is the registered net/rpc service name, exported so tests and
// tools can stand up protocol-compatible stand-in workers.
const ServiceName = serviceName
