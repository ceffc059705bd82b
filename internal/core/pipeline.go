package core

// Pipeline-level pricing: Eq.(4) extended from one multiplication to a lazy
// multi-op plan. A materialize-every-op execution pays the full operand and
// result payload through the driver for every operator — the cumulative form
// of Eq.(4) with the driver as both distributor (P=Q=1) and aggregator. A
// handle-resident execution keeps operands in the workers' block stores, so
// an operator only moves the peer bands it lacks worker→worker, and only the
// final Fetch crosses back to the driver.

// PipeOpKind classifies a lazy-pipeline operator for pricing.
type PipeOpKind int

const (
	// PipeMul is distributed multiplication: every worker needs the whole
	// right operand, so resident execution moves the (W−1)/W of it held by
	// peers.
	PipeMul PipeOpKind = iota
	// PipeTranspose re-bands rows into columns: each worker fetches the
	// column slice of every peer band, again (W−1)/W of the operand.
	PipeTranspose
	// PipeElementwise covers add/sub/hadamard/divelem/scale over
	// co-partitioned operands: resident execution moves nothing.
	PipeElementwise
)

// String names the operator class.
func (k PipeOpKind) String() string {
	switch k {
	case PipeMul:
		return "multiply"
	case PipeTranspose:
		return "transpose"
	case PipeElementwise:
		return "elementwise"
	default:
		return "pipeop(?)"
	}
}

// PipeOp describes one pipeline operator's payloads for pricing. BBytes is
// zero for unary operators.
type PipeOp struct {
	Kind     PipeOpKind
	ABytes   int64
	BBytes   int64
	OutBytes int64
	// Deferred marks an operator resident execution never runs: a
	// transpose only multiplies read, as a view of its source, or a
	// guarded division a Hadamard product fuses into its own pass.
	Deferred bool
	// ViewA marks a multiply whose A is such a view: each output band
	// fetches the source's slice of it, as the transpose would have.
	ViewA bool
}

// PipelineCost prices a whole lazy pipeline, extending Eq.(4) to cumulative
// wire cost. It returns the modeled driver bytes of materialize-every-op
// execution (each op ships its operands down and its result up through the
// driver) and the modeled wire bytes of handle-resident execution
// (worker→worker band exchange only, plus the final results fetched to the
// driver, finalFetchBytes). workers ≤ 1 means every band is local and
// resident execution moves only the final fetch. A deferred operator moves
// nothing resident; a multiply over a view of its A moves that source's
// peer share besides B's (a view of B moves what B would: every band reads
// all of it).
func PipelineCost(ops []PipeOp, workers int, finalFetchBytes int64) (materialized, resident int64) {
	if workers < 1 {
		workers = 1
	}
	w := int64(workers)
	for _, op := range ops {
		materialized += op.ABytes + op.BBytes + op.OutBytes
		if op.Deferred {
			continue
		}
		switch op.Kind {
		case PipeMul:
			resident += op.BBytes * (w - 1) / w
			if op.ViewA {
				resident += op.ABytes * (w - 1) / w
			}
		case PipeTranspose:
			resident += op.ABytes * (w - 1) / w
		case PipeElementwise:
			// co-partitioned: nothing moves
		}
	}
	resident += finalFetchBytes
	return materialized, resident
}
