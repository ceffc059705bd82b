package distnet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/obs"
	"distme/internal/plan"
)

// Lazy pipeline execution over handles: a plan.Expr compiles into a DAG, the
// optimizer prices the whole pipeline (Eq.(4) extended to cumulative wire
// cost) before anything runs, and then every operator executes worker-side
// against resident bands — intermediates flow worker→worker, the driver sees
// only the final Fetch.

// Run compiles and executes a matrix expression over resident handles,
// returning the (still remote) result handle. Inputs are the session handles
// bound by name; intermediates are freed as soon as their last consumer has
// run. The caller owns the returned handle (Fetch it, feed it to the next
// Run, Pin it against eviction, or Free it).
func (s *Session) Run(ctx context.Context, x plan.Expr, binds map[string]*Handle) (*Handle, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	for name, h := range binds {
		if err := s.checkHandle(h); err != nil {
			return nil, fmt.Errorf("distnet: bind %q: %w", name, err)
		}
	}
	p, err := plan.Compile(x)
	if err != nil {
		return nil, err
	}
	root := s.d.tracer.Start(0, "pipeline.run", obs.KindDriver)
	if root.Active() {
		root.SetAttr("expr", x.String())
		root.SetAttr("nodes", fmt.Sprintf("%d", p.NumNodes()))
	}
	defer root.End()

	if err := s.price(p, binds, root); err != nil {
		return nil, err
	}

	apply := func(n plan.NodeInfo, a, b *Handle) (*Handle, error) { return s.exec(ctx, n, a, b) }
	release := func(h *Handle) {
		if h != nil && !h.freed {
			_ = s.Free(ctx, h)
		}
	}
	peerBefore := s.peerBytes
	out, err := plan.EvalWith(p, binds, apply, release)
	if root.Active() {
		// Measured, beside pipeline.optimize's priced resident-bytes.
		root.SetAttr("peer-bytes", fmt.Sprintf("%d", s.peerBytes-peerBefore))
	}
	return out, err
}

// exec runs one operator node over resident operands, under lineage
// recovery, and registers the output handle.
func (s *Session) exec(ctx context.Context, n plan.NodeInfo, a, b *Handle) (*Handle, error) {
	h, err := s.newExecHandle(n, a, b)
	if err != nil {
		return nil, err
	}
	if err := s.withRecovery(ctx, h, func(ctx context.Context) error { return s.execParts(ctx, h) }); err != nil {
		return nil, err
	}
	s.handles[h.id] = h
	return h, nil
}

// pipeShape is the dims value the pricing pre-pass walks the plan with.
type pipeShape struct {
	rows, cols, blockSize int
}

func (d pipeShape) denseBytes() int64 { return int64(d.rows) * int64(d.cols) * 8 }

// pipeOps walks the compiled plan once over shapes only — validating
// conformability before any RPC — and renders it as the cost model's
// operator sequence plus the final fetch payload.
func (s *Session) pipeOps(p *plan.Program, binds map[string]*Handle) ([]core.PipeOp, int64, error) {
	shapes := make(map[string]pipeShape, len(binds))
	for name, h := range binds {
		shapes[name] = pipeShape{rows: h.rows, cols: h.cols, blockSize: h.blockSize}
	}
	var ops []core.PipeOp
	out, err := plan.EvalWith(p, shapes, func(n plan.NodeInfo, a, b pipeShape) (pipeShape, error) {
		o, err := outputShape(n, a, b)
		if err != nil {
			return pipeShape{}, err
		}
		op := core.PipeOp{ABytes: a.denseBytes(), OutBytes: o.denseBytes()}
		switch n.Kind {
		case plan.OpMul:
			op.Kind = core.PipeMul
			op.BBytes = b.denseBytes()
		case plan.OpTranspose:
			op.Kind = core.PipeTranspose
		default:
			op.Kind = core.PipeElementwise
			if !n.Unary() {
				op.BBytes = b.denseBytes()
			}
		}
		ops = append(ops, op)
		return o, nil
	}, nil)
	if err != nil {
		return nil, 0, err
	}
	return ops, out.denseBytes(), nil
}

// price runs the whole-pipeline optimizer pass before execution: the
// cumulative wire bytes a materialize-every-op execution would move through
// the driver versus what the resident execution moves worker→worker. The
// difference feeds the driver-bytes-avoided counter and the optimize span.
func (s *Session) price(p *plan.Program, binds map[string]*Handle, parent obs.Span) error {
	ops, fetchBytes, err := s.pipeOps(p, binds)
	if err != nil {
		return err
	}
	mat, res := core.PipelineCost(ops, len(s.workers), fetchBytes)
	sp := s.d.tracer.Start(parent.ID(), "pipeline.optimize", obs.KindDriver)
	if sp.Active() {
		sp.SetAttr("ops", fmt.Sprintf("%d", len(ops)))
		sp.SetAttr("materialized-bytes", fmt.Sprintf("%d", mat))
		sp.SetAttr("resident-bytes", fmt.Sprintf("%d", res))
	}
	sp.End()
	if mat > res {
		atomic.AddInt64(&s.d.rec.Net.Live().DriverBytesAvoided, mat-res)
	}
	return nil
}

// Price reports the optimizer's whole-pipeline wire estimate for an
// expression over the given bindings: the driver-routed bytes of
// materialize-every-op execution versus the worker→worker bytes of resident
// execution (including the final driver fetch).
func (s *Session) Price(x plan.Expr, binds map[string]*Handle) (materialized, resident int64, err error) {
	if err := s.check(); err != nil {
		return 0, 0, err
	}
	for name, h := range binds {
		if err := s.checkHandle(h); err != nil {
			return 0, 0, fmt.Errorf("distnet: bind %q: %w", name, err)
		}
	}
	p, err := plan.Compile(x)
	if err != nil {
		return 0, 0, err
	}
	ops, fetchBytes, err := s.pipeOps(p, binds)
	if err != nil {
		return 0, 0, err
	}
	mat, res := core.PipelineCost(ops, len(s.workers), fetchBytes)
	return mat, res, nil
}

// outputShape validates one operator's operand shapes and returns its output
// shape — the same conformability rules the engine enforces, applied before
// any network traffic.
func outputShape(n plan.NodeInfo, a, b pipeShape) (pipeShape, error) {
	switch n.Kind {
	case plan.OpMul:
		if err := core.CheckConformable(a.rows, a.cols, a.blockSize, b.rows, b.cols, b.blockSize); err != nil {
			return pipeShape{}, fmt.Errorf("distnet: %w", err)
		}
		return pipeShape{rows: a.rows, cols: b.cols, blockSize: a.blockSize}, nil
	case plan.OpTranspose:
		return pipeShape{rows: a.cols, cols: a.rows, blockSize: a.blockSize}, nil
	case plan.OpScale:
		return a, nil
	case plan.OpAdd, plan.OpSub, plan.OpHadamard, plan.OpDivElem:
		if a.rows != b.rows || a.cols != b.cols || a.blockSize != b.blockSize {
			return pipeShape{}, fmt.Errorf("distnet: element-wise operands differ (%dx%d vs %dx%d)", a.rows, a.cols, b.rows, b.cols)
		}
		return a, nil
	default:
		return pipeShape{}, fmt.Errorf("distnet: unsupported pipeline operator %v", n.Kind)
	}
}

// execOpCode maps a plan operator to its wire code.
func execOpCode(k plan.OpKind) (uint8, bool) {
	switch k {
	case plan.OpMul:
		return execMul, true
	case plan.OpTranspose:
		return execTranspose, true
	case plan.OpAdd:
		return execAdd, true
	case plan.OpSub:
		return execSub, true
	case plan.OpHadamard:
		return execHadamard, true
	case plan.OpDivElem:
		return execDivElem, true
	case plan.OpScale:
		return execScale, true
	default:
		return 0, false
	}
}

// newExecHandle allocates the handle for one operator's output, carrying the
// operator and operands as lineage.
func (s *Session) newExecHandle(n plan.NodeInfo, a, b *Handle) (*Handle, error) {
	code, ok := execOpCode(n.Kind)
	if !ok {
		return nil, fmt.Errorf("distnet: unsupported pipeline operator %v", n.Kind)
	}
	sa := pipeShape{rows: a.rows, cols: a.cols, blockSize: a.blockSize}
	var sb pipeShape
	if b != nil {
		sb = pipeShape{rows: b.rows, cols: b.cols, blockSize: b.blockSize}
	}
	o, err := outputShape(n, sa, sb)
	if err != nil {
		return nil, err
	}
	h := &Handle{
		s: s, id: s.d.handleID.Add(1),
		rows: o.rows, cols: o.cols, blockSize: o.blockSize,
		ib: ceilDivInt(o.rows, o.blockSize),
		op: code, la: a, lb: b, scalar: n.Scalar,
	}
	if n.Unary() {
		h.lb = nil
	}
	return h, nil
}

func ceilDivInt(a, b int) int { return (a + b - 1) / b }

// execParts fans one operator out to the placement: each worker computes its
// output band against resident operands, streaming what it lacks from peers.
// Bands run concurrently; arithmetic order inside a band is fixed, so the
// result is byte-identical regardless of scheduling.
func (s *Session) execParts(ctx context.Context, h *Handle) error {
	sp := s.d.tracer.Start(0, "pipeline.exec", obs.KindDriver)
	if sp.Active() {
		sp.SetAttr("op", fmt.Sprintf("%d", h.op))
		sp.SetAttr("handle", fmt.Sprintf("%d", h.id))
	}
	defer sp.End()
	ps := s.parts(h.ib)
	aParts := s.partLocs(h.la)
	var bParts []partLoc
	var bID uint64
	if h.lb != nil {
		bParts = s.partLocs(h.lb)
		bID = h.lb.id
	}
	atomic.AddInt64(&s.d.rec.Net.Live().PullJobs, 1)
	errs := make([]error, len(ps))
	bytes := make([]int64, len(ps))
	peer := make([]int64, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p part) {
			defer wg.Done()
			args := &execArgs{
				Op: h.op, Out: h.id, Epoch: s.epoch,
				A: h.la.id, B: bID, Scalar: h.scalar,
				OutLo: p.lo, OutHi: p.hi,
				AParts: aParts, BParts: bParts,
				Self:      p.m.addr,
				traceSpan: uint64(sp.ID()),
			}
			var reply execReply
			if err := s.callMember(ctx, p.m, methodExecOp, sp.ID(), codec.Writes(appendExecArgs, args), codec.Reads(decodeExecReply, &reply)); err != nil {
				errs[i] = err
				return
			}
			bytes[i] = reply.Bytes
			peer[i] = reply.PeerBytes
		}(i, p)
	}
	wg.Wait()
	var total, peerTotal int64
	for i := range errs {
		if errs[i] != nil {
			return errs[i]
		}
		total += bytes[i]
		peerTotal += peer[i]
	}
	n := s.d.rec.Net.Live()
	if peerTotal > 0 {
		atomic.AddInt64(&n.PullPeerBytes, peerTotal)
		s.peerBytes += peerTotal
	}
	atomic.AddInt64(&n.PipelineOps, 1)
	atomic.AddInt64(&n.ResidentBytes, total-h.bytes)
	h.bytes = total
	return nil
}

// RunMaterialized executes the same compiled plan with every operator's
// inputs uploaded from the driver and its output fetched straight back — the
// worker→driver→worker baseline the resident pipeline exists to beat. The
// worker-side arithmetic and band placement are identical, so the result is
// byte-identical to Run's; only the traffic pattern differs. It exists for
// measurement (the pipeline tests gate Run at 5x fewer driver bytes against
// it) and equivalence tests.
func (s *Session) RunMaterialized(ctx context.Context, x plan.Expr, binds map[string]*bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	p, err := plan.Compile(x)
	if err != nil {
		return nil, err
	}
	apply := func(n plan.NodeInfo, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
		ha, err := s.Put(ctx, a)
		if err != nil {
			return nil, err
		}
		defer func() { _ = s.Free(ctx, ha) }()
		var hb *Handle
		if !n.Unary() {
			if hb, err = s.Put(ctx, b); err != nil {
				return nil, err
			}
			defer func() { _ = s.Free(ctx, hb) }()
		}
		h, err := s.exec(ctx, n, ha, hb)
		if err != nil {
			return nil, err
		}
		out, err := s.Fetch(ctx, h)
		_ = s.Free(ctx, h)
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	return plan.EvalWith(p, binds, apply, nil)
}
