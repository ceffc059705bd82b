// Package distnet is the over-the-wire execution path: a driver that runs
// CuboidMM's local-multiplication step on remote worker processes over TCP,
// really serializing blocks onto sockets. The in-process cluster substrate
// simulates Spark's accounting; this package complements it with genuinely
// distributed execution — same cuboid plans, same results, measured wire
// bytes — so the repartition/aggregation costs the paper reasons about
// correspond to observable network traffic.
package distnet

import (
	"errors"
	"fmt"
	"strconv"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// The worker socket, driver↔worker and worker↔worker alike, is one
// internal/codec call layer: a connection opens with workerPreamble both
// ways, a request names its method by one byte, and the worker's refusals
// cross as the codes of workerErrors. The version byte changes whenever the
// method numbering or a body's meaning does, so mismatched peers fail at the
// handshake rather than misroute or misread a request: version 3's multiply
// carries a (p,q) column and its slab count where version 2's carried one
// cuboid, and version 4's blocks are fp64 only where version 3's could also
// carry fp32 and XOR+varint values (tags 6–11).
var workerPreamble = codec.Preamble{'D', 'M', 'W', 'K', 4}

// The worker socket's methods, by the byte a request names them with.
const (
	methodPing byte = iota
	methodMultiply
	methodPutBlocks
	methodGetBlocks
	methodFreeHandles
	methodPinHandle
	methodExecOp
)

// blockRec is one keyed block on the wire.
type blockRec struct {
	Key   bmat.BlockKey
	Block matrix.Block

	// prep is Block encoded once for its job (jobPrep), set driver-side on
	// every record of a cuboid before it ships inline: the request is framed
	// from it and, when it carries a digest, repeat sends to the same worker
	// become a 32-byte reference.
	prep *codec.Prepared
}

// multiplyArgs ships one (p,q) column to a worker — the voxel box of its R
// cuboids, the whole k range, and its slab count R — or, for a column over
// its job's call bound, one of those cuboids, one slab; and the A- and B-side
// blocks the box needs. Indices are global block coordinates so the reply
// keys line up with the driver's output grid.
type multiplyArgs struct {
	ILo, IHi, JLo, JHi, KLo, KHi int
	ABlocks                      []blockRec // A_{i,k} for the box
	BBlocks                      []blockRec // B_{k,j} for the box

	// slabs is how many of the column's cuboids the box holds: the worker
	// cuts the k range into this many slabs and folds their products in
	// ascending r (core.MultiplyColumn), so one tile per C block comes back.
	// R for a whole column, 1 for one cuboid of a column sent out in R calls.
	slabs int

	// cacheEpoch scopes this column's digest references to one driver job;
	// the worker's block cache retires older epochs when a new one arrives.
	cacheEpoch uint64

	// traceSpan is the driver-side span the worker parents its compute span
	// to (0 when tracing is off); cuboidP/Q are the column's grid
	// coordinate, carried so worker-side spans are labeled like driver-side
	// ones. Both travel on the wire but are invisible to the arithmetic, so
	// traced and untraced runs are byte-identical.
	traceSpan        uint64
	cuboidP, cuboidQ int

	// meter, when set, receives per-job traffic attribution for this
	// column (WithJobMeter). Driver-side only; never on the wire.
	meter *JobMeter

	// home is the ring position runCuboids reserved for this column at plan
	// time (Driver.reserveHomes); scheduling attempt a starts there plus a.
	// Driver-side only.
	home int

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

// box is the call's voxel box.
func (a *multiplyArgs) box() core.Box {
	return core.Box{ILo: a.ILo, IHi: a.IHi, JLo: a.JLo, JHi: a.JHi, KLo: a.KLo, KHi: a.KHi}
}

// label marks a span of the call, driver or worker side, with its column's
// coordinate — (p,q,0): a column is all R cuboids of its (p,q) — and the
// call's slab count.
func (a *multiplyArgs) label(sp obs.Span) {
	if sp.Active() {
		sp.SetCuboid(a.cuboidP, a.cuboidQ, 0)
		sp.SetAttr("slabs", strconv.Itoa(a.slabs))
	}
}

// multiplyReply returns the column's C blocks, its R partials already folded:
// one tile per block some pair met.
type multiplyReply struct {
	CBlocks []blockRec

	// Pull-resolution accounting, folded into the driver's NetStats:
	// manifest entries satisfied by the content-addressed cache, peer
	// fetches issued, and peer bytes moved. Zero on push replies.
	pullHits, pullFetches, pullPeerBytes int64
}

// pingReply reports the worker's identity plus a load snapshot the driver's
// health plane folds into the per-worker score: calls currently executing,
// and the handle store's occupancy/eviction pressure.
type pingReply struct {
	Hostname string

	// InFlight is the number of calls the worker is executing right now.
	InFlight int64
	// StoreBytes/StoreHandles are the handle store's current occupancy;
	// StoreEvictions is its lifetime eviction count (monotonic, so the
	// driver can window deltas).
	StoreBytes     int64
	StoreHandles   int64
	StoreEvictions int64
}

// ---------------------------------------------------------------------------
// The worker socket's error table

var (
	// ErrWorkerDraining matches the refusal a draining worker answers every
	// call with (read-only GetBlocks is admitted a little longer — see
	// Shutdown). The driver retries such calls on other members, so callers
	// normally never see it; it surfaces only from direct calls against a
	// worker mid-shutdown.
	ErrWorkerDraining = errors.New("distnet: worker draining")

	// errUnknownDigest is a worker's answer to a digest reference that
	// missed its cache (restart, eviction, or epoch change). The driver
	// treats it as transient: it forgets what it believed this worker had
	// and resends the blocks inline on the retry.
	errUnknownDigest = errors.New("distnet: unknown block digest")

	// errUnknownHandle is the transient refusal for a handle the store does
	// not hold (evicted, freed, or never received — e.g. after a worker
	// restart). The driver answers it by rebuilding the handle from lineage.
	errUnknownHandle = errors.New("distnet: unknown handle")
)

// pullError is a failed pull resolution: handle's manifest could not be
// resolved, because of err. The driver answers it by downgrading the cuboid
// to push; session recovery rebuilds that handle — not its sibling operand —
// when err is an eviction.
type pullError struct {
	handle uint64
	err    error
}

func (e *pullError) Error() string {
	return fmt.Sprintf("distnet: pull fetch handle %d: %v", e.handle, e.err)
}
func (e *pullError) Unwrap() error { return e.err }

// peerFetchError is a worker→worker band fetch that failed. The driver treats
// it as recoverable (the peer may be dead) and rebuilds from lineage on a
// fresh placement.
type peerFetchError struct {
	addr string
	err  error
}

func (e *peerFetchError) Error() string {
	return fmt.Sprintf("distnet: peer fetch %s: %v", e.addr, e.err)
}
func (e *peerFetchError) Unwrap() error { return e.err }

// The worker socket's error codes. A fetch failure carries whether its
// cause was an evicted band — what session recovery answers by rebuilding
// just that handle — and a pull failure first the handle whose manifest
// failed; any other cause reads back as nil.
const (
	codeDraining = codec.CodeOther + 1 + iota
	codeUnknownDigest
	codeUnknownHandle
	codePullFailed      // uvarint handle, bool evicted
	codePeerFetchFailed // bool evicted
)

var (
	workerSentinels = [...]error{ErrWorkerDraining, errUnknownDigest, errUnknownHandle}
	workerErrors    = codec.ErrorTable{Code: workerErrorCode, Decode: readWorkerError}
)

func workerErrorCode(err error) (byte, func(*codec.FrameWriter)) {
	var pe *pullError
	var fe *peerFetchError
	evicted := errors.Is(err, errUnknownHandle)
	switch {
	case errors.As(err, &pe):
		return codePullFailed, func(w *codec.FrameWriter) {
			w.Uvarint(pe.handle)
			w.Bool(evicted)
		}
	case errors.As(err, &fe):
		return codePeerFetchFailed, func(w *codec.FrameWriter) { w.Bool(evicted) }
	}
	for i, sentinel := range workerSentinels {
		if errors.Is(err, sentinel) {
			return codeDraining + byte(i), nil
		}
	}
	return codec.CodeOther, nil
}

func readWorkerError(code byte, r *codec.FrameReader) (error, error) {
	if i := int(code) - int(codeDraining); i >= 0 && i < len(workerSentinels) {
		return workerSentinels[i], nil
	}
	var handle uint64
	var err error
	switch code {
	case codePullFailed:
		handle, err = r.Uvarint()
	case codePeerFetchFailed:
	default:
		return nil, fmt.Errorf("%w: worker error code %d", errWire, code)
	}
	evicted, err2 := r.Bool()
	if err := errors.Join(err, err2); err != nil {
		return nil, err
	}
	var cause error
	if evicted {
		cause = errUnknownHandle
	}
	if code == codePullFailed {
		return &pullError{handle: handle, err: cause}, nil
	}
	return &peerFetchError{err: cause}, nil
}
