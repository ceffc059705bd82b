package distnet

import (
	"math"
	"strings"

	"distme/internal/plan"
)

// The distributed block store's wire messages. A session co-partitions every
// matrix by block rows across its worker snapshot; each worker holds one
// band per handle. Blocks travel inline — resident data is the determinism
// anchor.

// putArgs ships one handle's block-row band to its owning worker.
type putArgs struct {
	Handle uint64
	// Epoch scopes the handle to one driver session; freeArgs with AllEpoch
	// retires the whole session at once.
	Epoch uint64
	// Pin starts the band pinned (excluded from store eviction).
	Pin    bool
	Blocks []blockRec

	traceSpan uint64
}

// blockRect is a rectangle of a handle's block grid: rows [ILo, IHi) and
// columns [JLo, JHi), math.MaxInt for a side open to the grid's edge.
type blockRect struct {
	ILo, IHi, JLo, JHi int
}

// allCols is the rectangle of block rows [lo, hi), every column.
func allCols(lo, hi int) blockRect { return blockRect{ILo: lo, IHi: hi, JHi: math.MaxInt} }

func (r blockRect) contains(c blockRect) bool {
	return r.ILo <= c.ILo && c.IHi <= r.IHi && r.JLo <= c.JLo && c.JHi <= r.JHi
}

// getArgs reads the blocks of a handle's band inside a rectangle — issued by
// the driver for Fetch and worker→worker for the cuts of operand bands a
// call or a pipeline operator reads (Worker.readCut).
type getArgs struct {
	Handle uint64
	blockRect

	traceSpan uint64
}

// getReply carries the requested blocks (inline fp64) and the rectangle they
// answer for: the cut, widened to the grid's edge on every side the band
// holds no block beyond, so the copy a peer keeps of it serves any later cut
// that rectangle contains.
type getReply struct {
	Blocks []blockRec
	Cover  blockRect
}

// freeArgs drops handles from a worker's store. AllEpoch frees every handle
// of Epoch (session close, or the wipe before a lineage rebuild); otherwise
// exactly the listed Handles are freed. Free overrides pins.
type freeArgs struct {
	Handles  []uint64
	Epoch    uint64
	AllEpoch bool
}

// pinArgs adjusts a handle's pin count: Unpin false pins (+1), true unpins
// (−1). Pinned bands never evict.
type pinArgs struct {
	Handle uint64
	Unpin  bool
}

// Pipeline operator codes carried in execArgs.Op.
const (
	execMul = uint8(iota + 1)
	execTranspose
	execAdd
	execSub
	execHadamard
	execDivElem
	execScale
	// execHadamardDivElem is A∘(B⊘C) with Scalar the division's eps: a
	// Hadamard product over a guarded division it fused into one pass.
	execHadamardDivElem
)

// execOpKinds is the plan operator each exec code runs, the name spans
// give it; the fused pass is the Hadamard product that absorbed a division.
var execOpKinds = map[uint8]plan.OpKind{
	execMul: plan.OpMul, execTranspose: plan.OpTranspose, execAdd: plan.OpAdd, execSub: plan.OpSub,
	execHadamard: plan.OpHadamard, execDivElem: plan.OpDivElem, execScale: plan.OpScale,
	execHadamardDivElem: plan.OpHadamard,
}

// absorbed names what an operator took in that would otherwise have run
// before it — the spans' deferred attribute — or "" for nothing.
func absorbed(op uint8, transA, transB bool) string {
	var names []string
	if transA {
		names = append(names, "transposed-a")
	}
	if transB {
		names = append(names, "transposed-b")
	}
	if op == execHadamardDivElem {
		names = append(names, "fused-divelem")
	}
	return strings.Join(names, ",")
}

// partLoc locates one worker's band of a handle: the block rows
// [Lo, Hi) resident at Addr.
type partLoc struct {
	Addr   string
	Lo, Hi int
}

// execArgs runs one pipeline operator worker-side over resident handles,
// producing the output band OutLo ≤ I < OutHi under handle Out. Operand
// bands this worker lacks are streamed worker→worker from AParts/BParts
// (entries whose Addr equals Self read the local store instead).
type execArgs struct {
	Op     uint8
	Out    uint64
	Epoch  uint64
	A, B   uint64 // operand handles (B unused by unary ops)
	C      uint64 // the fused pass's denominator handle, unused elsewhere
	Scalar float64
	// TransA and TransB make a multiply read that operand through a
	// transpose: A or B names the source handle, and AParts or BParts
	// locate the source's bands.
	TransA, TransB bool
	// OutLo/OutHi is the output block-row band this worker owns.
	OutLo, OutHi int
	AParts       []partLoc
	BParts       []partLoc
	Self         string

	traceSpan uint64
}

// execReply reports the output band installed in the store.
type execReply struct {
	Bytes  int64
	Blocks int
	// PeerBytes is the worker→worker traffic this operator's band moved,
	// folded into the driver's pull counters.
	PeerBytes int64
}
