package distnet

// The distributed block store's wire messages. A session co-partitions every
// matrix by block rows across its worker snapshot; each worker holds one
// band per handle. Blocks travel inline as bit-exact fp64 — resident data is
// the determinism anchor, so the opt-in lossy encodings never apply here.

// PutArgs ships one handle's block-row band to its owning worker.
type PutArgs struct {
	Handle uint64
	// Epoch scopes the handle to one driver session; FreeArgs with AllEpoch
	// retires the whole session at once.
	Epoch uint64
	// Pin starts the band pinned (excluded from store eviction).
	Pin    bool
	Blocks []BlockRec

	traceSpan uint64
}

// PutReply reports the band's resident payload bytes.
type PutReply struct {
	Bytes int64
}

// GetArgs reads a handle's resident blocks — issued by the driver for
// Fetch and worker→worker for operand bands a pipeline operator lacks.
type GetArgs struct {
	Handle uint64
	// All requests every block of the band; otherwise only blocks with
	// ILo ≤ I < IHi and JLo ≤ J < JHi are returned.
	All                bool
	ILo, IHi, JLo, JHi int

	traceSpan uint64
}

// GetReply carries the requested blocks (inline fp64).
type GetReply struct {
	Blocks []BlockRec
	// Whole reports that Blocks is every block of the band, whatever was
	// asked for: the copy a peer keeps of it can serve any later read.
	Whole bool
}

// FreeArgs drops handles from a worker's store. AllEpoch frees every handle
// of Epoch (session close, or the wipe before a lineage rebuild); otherwise
// exactly the listed Handles are freed. Free overrides pins.
type FreeArgs struct {
	Handles  []uint64
	Epoch    uint64
	AllEpoch bool
}

// FreeReply reports how many resident handles were actually dropped.
type FreeReply struct {
	Freed int
}

// PinArgs adjusts a handle's pin count: Unpin false pins (+1), true unpins
// (−1). Pinned bands never evict.
type PinArgs struct {
	Handle uint64
	Unpin  bool
}

// PinReply acknowledges the pin change.
type PinReply struct{}

// Pipeline operator codes carried in ExecArgs.Op.
const (
	execMul = uint8(iota + 1)
	execTranspose
	execAdd
	execSub
	execHadamard
	execDivElem
	execScale
)

// PartLoc locates one worker's band of a handle: the block rows
// [Lo, Hi) resident at Addr.
type PartLoc struct {
	Addr   string
	Lo, Hi int
}

// ExecArgs runs one pipeline operator worker-side over resident handles,
// producing the output band OutLo ≤ I < OutHi under handle Out. Operand
// bands this worker lacks are streamed worker→worker from AParts/BParts
// (entries whose Addr equals Self read the local store instead).
type ExecArgs struct {
	Op     uint8
	Out    uint64
	Epoch  uint64
	A, B   uint64 // operand handles (B unused by unary ops)
	Scalar float64
	// OutLo/OutHi is the output block-row band this worker owns.
	OutLo, OutHi int
	AParts       []PartLoc
	BParts       []PartLoc
	Self         string

	traceSpan uint64
}

// ExecReply reports the output band installed in the store.
type ExecReply struct {
	Bytes  int64
	Blocks int
	// PeerBytes is the worker→worker traffic this operator's band moved,
	// folded into the driver's pull counters.
	PeerBytes int64
}
