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
	"time"

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
// cuboid, version 4's blocks are fp64 only where version 3's could also
// carry fp32 and XOR+varint values (tags 6–11), version 5's frames may
// arrive in chunks (internal/codec's frame layer) where version 4's came
// whole, and version 6's dense products take one fused multiply-add per k
// step where version 5's rounded the multiply and the add apart: a
// version 5 worker's column would differ in its last bits from the
// driver's local fallback and from resident pipelines on newer workers.
// Version 7's multiply may be one link of a column's k-ordered chain (its
// slab group, its predecessor and how long to wait for it), and its workers
// hand running sums to each other (methodTakeSum), which version 6 knew
// nothing of. Version 8's sparse blocks may arrive in the coordinate form
// (codec.TagCSRCoord, codec.TagCSCCoord), which version 7 refused as unknown
// tags mid-job. Version 9's link may name its own worker as predecessor —
// a slab group over the call bound cut into consecutive links on one
// holder, each taking the sum the one before left there — which version 8
// refused as a link waiting on itself. Version 10's pipeline multiply may
// read either operand through a transpose of the handle it names, and its
// fused operator computes x∘(n⊘d) over a third handle: a version 9 worker
// would read the source untransposed and know no fused code. Version 11's
// pull multiply names each operand by its handle and the bands it lives in
// where version 10's listed every block of the box in a placement manifest,
// and its reply carries two pull counters where version 10's carried three.
// Version 12's block read names the rectangle it cuts out of a band, with no
// flag for the whole band, and its reply names the rectangle it answers for
// where version 11's said only whether it was the whole band.
var workerPreamble = codec.Preamble{'D', 'M', 'W', 'K', 12}

// The worker socket's methods, by the byte a request names them with.
const (
	methodPing byte = iota
	methodMultiply
	methodPutBlocks
	methodGetBlocks
	methodFreeHandles
	methodPinHandle
	methodExecOp
	_ // ExecOp's byte in version 1 of the socket: retired, answered as unknown
	methodTakeSum
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

// blockMap indexes records by their keys.
func blockMap(recs []blockRec) map[bmat.BlockKey]matrix.Block {
	m := make(map[bmat.BlockKey]matrix.Block, len(recs))
	for _, r := range recs {
		m[r.Key] = r.Block
	}
	return m
}

// multiplyArgs ships one link of a (p,q) column to a worker — the voxel box
// of its R cuboids, the whole k range, and its slab count R; for a column
// of several links, the link's slab group (link) — and the A- and B-side
// blocks the call needs.
// Indices are global block coordinates so the reply keys line up with the
// driver's output grid.
type multiplyArgs struct {
	ILo, IHi, JLo, JHi, KLo, KHi int
	ABlocks                      []blockRec // A_{i,k} for the box
	BBlocks                      []blockRec // B_{k,j} for the box

	// slabs is how many of the column's cuboids the box holds: the worker
	// cuts the k range into this many slabs and folds their products in
	// ascending r (core.MultiplyColumn), so one tile per C block comes back.
	// R for every link.
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

	// job is the multiply the call belongs to, whose C dimensions a reply's
	// blocks are checked against (checkReply). Driver-side only.
	job *cuboidJob

	// prep is the cuboid's job-wide block preparer, kept on the cuboid so a
	// pull cuboid can be prepared at the moment it downgrades to push.
	// Driver-side only.
	prep *jobPrep

	// pull switches this cuboid to the one-sided data plane: ABlocks and
	// BBlocks stay off the wire, and the worker reads each operand's slice
	// of the call's box (operandBox) from the bands aRef and bRef name — its
	// own store where a band's address is pullSelf, the assigned worker's
	// own, and a kept replica or the owning peer elsewhere. A failed read is
	// a transient error the driver answers by re-pushing inline — the
	// driver stays the last-resort data source.
	pull       bool
	aRef, bRef bandRef
	pullSelf   string

	// pullInline marks a pull cuboid whose retained ABlocks/BBlocks are a
	// complete inline copy of both operand slices (both handles kept their
	// Put source driver-side). Only such cuboids may downgrade to an inline
	// push retry or run the local fallback — a partial inline set would
	// silently compute against missing blocks. Driver-side only.
	pullInline bool

	// link, when set, makes the call one link of a column of several
	// (job.go): the box is still the whole column and slabs its R, but the
	// blocks are only those of the link's slabs.
	link *chainLink
}

// bandRef names one operand of a pull call: its handle and where the
// handle's bands live, in execArgs' form.
type bandRef struct {
	handle uint64
	parts  []partLoc
	// sourceless marks a handle that kept no Put source, whose blocks the
	// driver never sees: slabBytes sizes each slot of its box as one dense
	// block. Driver-side only.
	sourceless bool
}

// chainLink is one link of a column of several: slabs [lo, hi) of the
// column's R. The holder computes them, takes the running sum of slabs
// [0, lo) from prev — the holder of the link before, itself or another —
// folds its slabs into it in ascending r, and keeps the sum of [0, hi) under
// (id, hi) for the link after it; the last link (hi = R) returns the
// column's C blocks instead.
type chainLink struct {
	id     uint64
	lo, hi int
	// self is the holder's own address and prev its predecessor's, "" for
	// the first link (lo = 0).
	self, prev string
	// wait bounds how long the holder waits for its incoming sum, and how
	// long the sum it keeps waits to be taken.
	wait time.Duration
	// group is the link's slab group: which of an attempt's holders runs
	// it. Driver-side only.
	group int
}

// slabRange is the column's slabs [lo, hi) the call computes: its link's,
// or all R of them.
func (a *multiplyArgs) slabRange() (lo, hi int) {
	if a.link != nil {
		return a.link.lo, a.link.hi
	}
	return 0, a.slabs
}

// slabCount is how many of the column's cuboids the call computes.
func (a *multiplyArgs) slabCount() int {
	lo, hi := a.slabRange()
	return hi - lo
}

// box is the call's voxel box.
func (a *multiplyArgs) box() core.Box {
	return core.Box{ILo: a.ILo, IHi: a.IHi, JLo: a.JLo, JHi: a.JHi, KLo: a.KLo, KHi: a.KHi}
}

// operandBox is the box the call's operand blocks come from: its voxel box,
// cut in k to its link's slabs.
func (a *multiplyArgs) operandBox() core.Box {
	box := a.box()
	if l := a.link; l != nil {
		box.KLo, box.KHi = box.Slab(l.lo, a.slabs).KLo, box.Slab(l.hi-1, a.slabs).KHi
	}
	return box
}

// label marks a span of the call, driver or worker side, with its column's
// coordinate — (p,q,0): a column is all R cuboids of its (p,q) — and the
// call's slab count (slabCount).
func (a *multiplyArgs) label(sp obs.Span) {
	if sp.Active() {
		sp.SetCuboid(a.cuboidP, a.cuboidQ, 0)
		sp.SetAttr("slabs", strconv.Itoa(a.slabCount()))
	}
}

// multiplyReply returns the column's C blocks, its R partials already folded:
// one tile per block some pair met.
type multiplyReply struct {
	CBlocks []blockRec

	// Pull accounting, folded into the driver's NetStats: the peer fetches
	// the call's operand reads issued and the payload they moved. Zero on
	// push replies.
	pullFetches, pullPeerBytes int64
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

	// errNoSum is a worker's answer to a take of a running sum it did not
	// come to hold within the wait bound: never made, taken already, or
	// expired. The chain that needed it is abandoned and its column re-runs.
	errNoSum = errors.New("distnet: no running sum")
)

// pullError is a failed pull read: handle's bands could not be read, because
// of err. The driver answers it by downgrading the cuboid to push; session
// recovery rebuilds that handle — not its sibling operand — when err is an
// eviction.
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
// just that handle — and a pull failure first the handle whose bands
// failed; any other cause reads back as nil.
const (
	codeDraining = codec.CodeOther + 1 + iota
	codeUnknownDigest
	codeUnknownHandle
	codePullFailed      // uvarint handle, bool evicted
	codePeerFetchFailed // bool evicted
	codeNoSum
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
	case errors.Is(err, errNoSum):
		return codeNoSum, nil
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
	case codeNoSum:
		return errNoSum, nil
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
