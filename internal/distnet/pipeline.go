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
//
// Two operators do not run where they stand. A transpose becomes a view of
// its source and a guarded division a deferred quotient: a handle with
// lineage and no bands, which holds its operands. A multiply reads a view
// through the transpose (execArgs.TransA/TransB), and a Hadamard product
// over a quotient runs x∘(n⊘d) as one pass (execHadamardDivElem); any other
// use — another operator, Fetch, Pin, the root of a Run — forces the
// deferred handle first by running its operator, once. The bits are those
// of running every operator: transposition is exact, and the fused pass
// rounds as the two passes do.

// deferKind is what a pipeline value is before anything runs it.
type deferKind uint8

const (
	resident deferKind = iota // bands on the workers, or a bound input
	view                      // a transpose not run: its source, read through it
	quotient                  // a guarded division not run
)

// nodePlan is how one operator node runs over what its operands are: the
// kind of deferred value it returns instead of running (resident: it runs),
// what it absorbs of its operands, and which it forces first.
type nodePlan struct {
	defers         deferKind
	transA, transB bool // a multiply reads that operand's view
	fuseA, fuseB   bool // a Hadamard product fuses that operand's quotient
	forceA, forceB bool
}

// planNode is the one rule of deferral, shared by execution (Session.node)
// and pricing (pipeOps): a transpose defers as a view and a guarded
// division as a quotient; a multiply absorbs views and a Hadamard product
// one quotient; everything else is forced.
func planNode(k plan.OpKind, a, b deferKind) nodePlan {
	var np nodePlan
	switch k {
	case plan.OpTranspose:
		np.defers = view
	case plan.OpDivElem:
		np.defers = quotient
	case plan.OpMul:
		np.transA, np.transB = a == view, b == view
	case plan.OpHadamard:
		np.fuseB = b == quotient
		np.fuseA = a == quotient && !np.fuseB
	}
	np.forceA = a != resident && !np.transA && !np.fuseA
	np.forceB = b != resident && !np.transB && !np.fuseB
	return np
}

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

	apply := func(n plan.NodeInfo, a, b *Handle) (*Handle, error) { return s.node(ctx, n, a, b) }
	release := func(h *Handle) { s.release(ctx, h) }
	peerBefore := s.peerBytes
	out, err := plan.EvalWith(p, binds, apply, release)
	if err == nil {
		if err = s.force(ctx, out); err != nil {
			s.release(ctx, out)
			out = nil
		}
	}
	if root.Active() {
		// Measured, beside pipeline.optimize's priced resident-bytes.
		root.SetAttr("peer-bytes", fmt.Sprintf("%d", s.peerBytes-peerBefore))
	}
	return out, err
}

// node runs one operator node of a Run under planNode's rule: it forces
// the operands the node cannot absorb, returns a deferred handle for a
// transpose or a guarded division, and otherwise runs the operator —
// reading a view's source through the transpose, or fusing a quotient.
func (s *Session) node(ctx context.Context, n plan.NodeInfo, a, b *Handle) (*Handle, error) {
	np := planNode(n.Kind, a.kind(), b.kind())
	if np.forceA {
		if err := s.force(ctx, a); err != nil {
			return nil, err
		}
	}
	if np.forceB {
		if err := s.force(ctx, b); err != nil {
			return nil, err
		}
	}
	h, err := s.newExecHandle(n, a, b)
	if err != nil {
		return nil, err
	}
	if np.defers != resident {
		h.deferred = true
		for _, o := range h.operands() {
			o.holds++
		}
		return h, nil
	}
	if np.transA {
		h.la, h.transA = a.la, true
	}
	if np.transB {
		h.lb, h.transB = b.la, true
	}
	if np.fuseA || np.fuseB {
		x, q := a, b
		if np.fuseA {
			x, q = b, a
		}
		h.op, h.la, h.lb, h.lc, h.scalar = execHadamardDivElem, x, q.la, q.lb, q.scalar
	}
	return h, s.run(ctx, h)
}

// kind is what h is before anything runs it; a nil handle (a unary node's
// second operand) is resident.
func (h *Handle) kind() deferKind {
	switch {
	case h == nil || !h.deferred:
		return resident
	case h.op == execTranspose:
		return view
	default:
		return quotient
	}
}

// operands lists the handles h's operator reads.
func (h *Handle) operands() []*Handle {
	var out []*Handle
	for _, o := range []*Handle{h.la, h.lb, h.lc} {
		if o != nil {
			out = append(out, o)
		}
	}
	return out
}

// force runs a deferred handle's operator, once: from then on h is an
// ordinary resident handle, and its operands are no longer held. It does
// nothing to a resident handle.
func (s *Session) force(ctx context.Context, h *Handle) error {
	if !h.deferred {
		return nil
	}
	if err := s.run(ctx, h); err != nil {
		return err
	}
	h.deferred = false
	s.unhold(ctx, h)
	return nil
}

// release is Run's drop of an intermediate whose last consumer has run: a
// handle a deferred one still holds is freed when the last holder lets go
// (unhold), any other now.
func (s *Session) release(ctx context.Context, h *Handle) {
	if h == nil || h.freed {
		return
	}
	if h.holds > 0 {
		h.unheld = true
		return
	}
	_ = s.Free(ctx, h)
}

// unhold lets go of a deferred handle's operands, once it is forced or
// freed, releasing those Run had already dropped.
func (s *Session) unhold(ctx context.Context, h *Handle) {
	for _, o := range h.operands() {
		if o.holds--; o.holds == 0 && o.unheld {
			s.release(ctx, o)
		}
	}
}

// exec runs one operator node over resident operands, as it stands.
func (s *Session) exec(ctx context.Context, n plan.NodeInfo, a, b *Handle) (*Handle, error) {
	h, err := s.newExecHandle(n, a, b)
	if err != nil {
		return nil, err
	}
	return h, s.run(ctx, h)
}

// run executes h's operator under lineage recovery and registers h.
func (s *Session) run(ctx context.Context, h *Handle) error {
	if err := s.withRecovery(ctx, h, func(ctx context.Context) error { return s.execParts(ctx, h) }); err != nil {
		return err
	}
	s.handles[h.id] = h
	return nil
}

// pipeShape is the dims value the pricing pre-pass walks the plan with.
type pipeShape struct {
	rows, cols, blockSize int
}

func (d pipeShape) denseBytes() int64 { return int64(d.rows) * int64(d.cols) * 8 }

// pipeVal is a value of the pricing walk: its shape, what it is before
// anything runs it, and — deferred — its operator's index in the priced
// sequence, whose Deferred mark a force clears.
type pipeVal struct {
	pipeShape
	defers deferKind
	op     int
}

func (v *pipeVal) kind() deferKind {
	if v == nil {
		return resident
	}
	return v.defers
}

func (v *pipeVal) shape() pipeShape {
	if v == nil {
		return pipeShape{}
	}
	return v.pipeShape
}

// pipeOps walks the compiled plan once over shapes only — validating
// conformability before any RPC — under the deferral rule execution
// follows (planNode), and renders it as the cost model's operator sequence
// plus the final fetch payload.
func (s *Session) pipeOps(p *plan.Program, binds map[string]*Handle) ([]core.PipeOp, int64, error) {
	vals := make(map[string]*pipeVal, len(binds))
	for name, h := range binds {
		vals[name] = &pipeVal{pipeShape: pipeShape{rows: h.rows, cols: h.cols, blockSize: h.blockSize}}
	}
	var ops []core.PipeOp
	force := func(v *pipeVal) {
		ops[v.op].Deferred = false
		v.defers = resident
	}
	out, err := plan.EvalWith(p, vals, func(n plan.NodeInfo, a, b *pipeVal) (*pipeVal, error) {
		o, err := outputShape(n, a.shape(), b.shape())
		if err != nil {
			return nil, err
		}
		np := planNode(n.Kind, a.kind(), b.kind())
		if np.forceA {
			force(a)
		}
		if np.forceB {
			force(b)
		}
		op := core.PipeOp{ABytes: a.denseBytes(), OutBytes: o.denseBytes(), Deferred: np.defers != resident}
		switch n.Kind {
		case plan.OpMul:
			op.Kind = core.PipeMul
			op.BBytes = b.denseBytes()
			op.ViewA = np.transA
		case plan.OpTranspose:
			op.Kind = core.PipeTranspose
		default:
			op.Kind = core.PipeElementwise
			if !n.Unary() {
				op.BBytes = b.denseBytes()
			}
		}
		ops = append(ops, op)
		return &pipeVal{pipeShape: o, defers: np.defers, op: len(ops) - 1}, nil
	}, nil)
	if err != nil {
		return nil, 0, err
	}
	if out.defers != resident {
		force(out)
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
	for code, kind := range execOpKinds {
		if kind == k && code != execHadamardDivElem {
			return code, true
		}
	}
	return 0, false
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
		sp.SetAttr("op", execOpKinds[h.op].String())
		if a := absorbed(h.op, h.transA, h.transB); a != "" {
			sp.SetAttr("deferred", a)
		}
		sp.SetAttr("handle", fmt.Sprintf("%d", h.id))
	}
	defer sp.End()
	ps := s.parts(h.ib)
	aParts := s.partLocs(h.la)
	var bParts []partLoc
	var bID, cID uint64
	if h.lb != nil {
		bParts = s.partLocs(h.lb)
		bID = h.lb.id
	}
	if h.lc != nil {
		cID = h.lc.id
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
				A: h.la.id, B: bID, C: cID, Scalar: h.scalar,
				TransA: h.transA, TransB: h.transB,
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
