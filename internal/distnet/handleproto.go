package distnet

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

// getArgs reads a handle's resident blocks — issued by the driver for
// Fetch and worker→worker for operand bands a pipeline operator lacks.
type getArgs struct {
	Handle uint64
	// All requests every block of the band; otherwise only blocks with
	// ILo ≤ I < IHi and JLo ≤ J < JHi are returned.
	All                bool
	ILo, IHi, JLo, JHi int

	traceSpan uint64
}

// getReply carries the requested blocks (inline fp64).
type getReply struct {
	Blocks []blockRec
	// Whole reports that Blocks is every block of the band, whatever was
	// asked for: the copy a peer keeps of it can serve any later read.
	Whole bool
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
)

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
	Scalar float64
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
