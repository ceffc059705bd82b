// Package engine implements the DistME engine of the paper's §5: block
// matrices as the distributed data representation, operator execution
// (multiply, transpose, element-wise) on the cluster substrate, strategy
// selection among BMM / CPMM / RMM / CuboidMM, a pluggable local multiplier
// (CPU by default), and the matrix-dependency layout tracking that
// iterative queries like GNMF exploit.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/metrics"
	"distme/internal/obs"
)

// ErrEngineClosed reports a call on an engine after Close.
var ErrEngineClosed = errors.New("engine: engine is closed")

// ErrUnknownMethod reports a MulOptions.Method outside the defined set.
var ErrUnknownMethod = errors.New("engine: unknown multiplication method")

// Method selects the distributed multiplication strategy.
type Method int

const (
	// MethodAuto runs the Eq.(2) optimizer and CuboidMM — DistME's default.
	MethodAuto Method = iota
	// MethodBMM forces Broadcast Matrix Multiplication.
	MethodBMM
	// MethodCPMM forces Cross-Product Matrix Multiplication.
	MethodCPMM
	// MethodRMM forces Replication-based Matrix Multiplication.
	MethodRMM
	// MethodCuboid forces CuboidMM with explicitly given parameters.
	MethodCuboid
)

// String names the method as the paper does.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "CuboidMM(auto)"
	case MethodBMM:
		return "BMM"
	case MethodCPMM:
		return "CPMM"
	case MethodRMM:
		return "RMM"
	case MethodCuboid:
		return "CuboidMM"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Config describes an engine instance.
type Config struct {
	// Cluster is the hardware envelope tasks run against.
	Cluster cluster.Config
	// Local runs the local multiplication step: every cuboid's product and
	// RMM's block-pair products. Nil means core.CPUMultiplier; the gpu
	// package's Multiplier is the §4 GPU path, whose device the caller owns
	// and reads.
	Local core.LocalMultiplier
	// TrackLayouts enables matrix-dependency reuse: operands already
	// partitioned as the chosen method requires skip their base
	// repartition copy (the DMac optimization, which DistME's GNMF plan
	// shares).
	TrackLayouts bool
	// BalanceBySparsity schedules cuboids longest-estimated-work-first,
	// the §8 load-balancing extension for skewed sparse inputs.
	BalanceBySparsity bool
	// Tracer, when set, records an end-to-end span tree for every
	// multiplication — the multiply root, optimizer choice, repartition,
	// one task span per cuboid and aggregation. Each Report then carries
	// that multiplication's spans in Report.Trace. Nil disables tracing
	// with zero overhead.
	Tracer *obs.Tracer
}

// Engine is a DistME instance bound to a (simulated) cluster.
//
// Ownership: the engine owns its cluster and layout table. A
// caller that is done with an engine should Close it; a caller that is done
// with a particular matrix (but not the engine) should ReleaseLayout the
// matrix so the layout table does not pin it for the engine's lifetime.
// The table is additionally bounded at maxTrackedLayouts entries — beyond
// that the oldest tags are evicted (losing only a repartition-reuse
// opportunity, never correctness).
type Engine struct {
	cfg     Config
	cluster *cluster.Cluster

	mu          sync.Mutex
	closed      bool
	layouts     map[*bmat.BlockMatrix]layoutTag
	layoutOrder []*bmat.BlockMatrix // insertion order, for bounded eviction
}

// maxTrackedLayouts bounds the layout table. Iterative workloads (GNMF)
// track a handful of long-lived factors; anything past this bound is churn
// from single-use intermediates and safe to forget.
const maxTrackedLayouts = 4096

// layoutTag records how a matrix is currently partitioned across tasks.
type layoutTag struct {
	kind string // "row", "col", or "grid"
	p, r int    // grid extents when kind == "grid"
}

// New creates an engine.
func New(cfg Config) (*Engine, error) {
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:     cfg,
		cluster: cl,
		layouts: make(map[*bmat.BlockMatrix]layoutTag),
	}, nil
}

// Cluster exposes the underlying cluster (budgets, recorder).
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// Recorder exposes the cumulative metrics recorder.
func (e *Engine) Recorder() *metrics.Recorder { return e.cluster.Recorder() }

// MulOptions tunes one multiplication.
type MulOptions struct {
	// Method selects the strategy; MethodAuto by default.
	Method Method
	// Params is required with MethodCuboid and ignored otherwise.
	Params core.Params
	// RMMTasks sets RMM's task count (0 → I·J, the paper's setting).
	RMMTasks int
}

// Report describes what one multiplication did.
type Report struct {
	// Method is the strategy that ran.
	Method Method
	// Params is the (P,Q,R) used (zero for RMM, which is voxel-hashed).
	Params core.Params
	// Elapsed is the wall-clock duration of the whole multiplication.
	Elapsed time.Duration
	// Comm is the traffic of this multiplication only.
	Comm metrics.Snapshot
	// Elastic counts the fault-tolerance work of this multiplication only:
	// task retries, speculative copies launched/won, shuffle-fetch retries
	// and lineage recomputations.
	Elastic metrics.ElasticStats
	// Trace holds this multiplication's completed spans (nil unless the
	// engine was configured with a Tracer). Trace.WriteChromeTrace renders
	// it for chrome://tracing / Perfetto.
	Trace *obs.Trace
}

// Multiply computes A×B under MethodAuto with no report — the multiply of
// ml.Ops. Use Run for per-call options, the execution report or the trace.
// Cancelling ctx aborts the multiplication promptly — including mid-backoff
// between task retry attempts — and returns an error matching
// errors.Is(err, ErrCancelled) that wraps ctx.Err(). A nil ctx behaves like
// context.Background().
func (e *Engine) Multiply(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	c, _, err := e.mulTraced(ctx, a, b, MulOptions{})
	return c, err
}

// mulTraced runs one multiplication under its own engine.multiply root span
// and extracts exactly that multiplication's spans into the report. It is
// the single-multiply path shared by Multiply and Run.
func (e *Engine) mulTraced(ctx context.Context, a, b *bmat.BlockMatrix, opts MulOptions) (*bmat.BlockMatrix, *Report, error) {
	tr := e.cfg.Tracer
	if tr == nil {
		return e.multiply(ctx, a, b, opts, obs.Span{})
	}
	// Mark the completed-span buffer so the report extracts exactly this
	// multiplication's spans, even on a shared long-lived tracer.
	mark := tr.Len()
	root := tr.Start(0, "engine.multiply", obs.KindDriver)
	c, report, err := e.multiply(ctx, a, b, opts, root)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()
	if report != nil {
		snap := tr.SnapshotSince(mark)
		report.Trace = &snap
	}
	return c, report, err
}

// multiply is the body of one multiplication; root is its root span (inert
// when tracing is off).
func (e *Engine) multiply(ctx context.Context, a, b *bmat.BlockMatrix, opts MulOptions, root obs.Span) (*bmat.BlockMatrix, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.checkOpen(); err != nil {
		return nil, nil, err
	}
	rec := e.Recorder()
	before := rec.Snapshot()
	start := time.Now()

	env := core.Env{
		Cluster:           e.cluster,
		Multiplier:        e.cfg.Local,
		BalanceBySparsity: e.cfg.BalanceBySparsity,
		Tracer:            e.cfg.Tracer,
		TraceParent:       root.ID(),
	}

	method := opts.Method
	s := core.ShapeOf(a, b)
	var params core.Params
	var c *bmat.BlockMatrix
	var err error
	if method == MethodRMM {
		c, err = core.MultiplyRMM(ctx, a, b, rmmTasks(opts, s), env)
	} else {
		params, err = e.chooseParams(s, opts, e.cfg.Tracer, root.ID())
		if err != nil {
			return nil, nil, err
		}
		if e.cfg.TrackLayouts {
			env.AColocated, env.BColocated = e.colocation(a, b, params)
		}
		c, err = core.MultiplyCuboid(ctx, a, b, params, env)
		// Eq.(3) sizes cuboids by averages; ragged grids and sparsity skew
		// can make one cuboid exceed θt anyway. Under MethodAuto the engine
		// stays elastic: re-optimize with a finer minimum partitioning and
		// retry until the actual cuboids fit or no partitioning exists.
		// Injected O.O.M. faults never reach here — the cluster retries
		// those per attempt; only a genuine θt violation refines params.
		if method == MethodAuto {
			for retry := 0; err != nil && errors.Is(err, cluster.ErrOutOfMemory) && retry < 8; retry++ {
				if cerr := ctx.Err(); cerr != nil {
					return nil, nil, fmt.Errorf("%w: %w", cluster.ErrCancelled, cerr)
				}
				minTasks := params.Tasks() * 2
				osp := e.cfg.Tracer.Start(root.ID(), "optimize", obs.KindDriver)
				osp.SetAttr("refine", "true")
				params, err = core.Optimize(s, e.cfg.Cluster.TaskMemBytes, minTasks)
				finishOptimizeSpan(osp, params, err)
				if err != nil {
					break
				}
				if e.cfg.TrackLayouts {
					env.AColocated, env.BColocated = e.colocation(a, b, params)
				}
				c, err = core.MultiplyCuboid(ctx, a, b, params, env)
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}

	if root.Active() {
		root.SetAttr("method", method.String())
		root.SetAttr("params", fmt.Sprintf("(%d,%d,%d)", params.P, params.Q, params.R))
	}

	if e.cfg.TrackLayouts {
		e.recordLayouts(a, b, c, method, params)
	}

	comm := rec.Snapshot().Sub(before)
	report := &Report{
		Method:  method,
		Params:  params,
		Elapsed: time.Since(start),
		Comm:    comm,
		Elastic: comm.Elastic,
	}
	return c, report, nil
}

// chooseParams resolves the (P,Q,R) a cuboid-family method runs with: the
// Eq.(2) optimizer under MethodAuto, recorded as an optimize span under
// parent when tr is set; the classical corner cases for BMM and CPMM; the
// given params for MethodCuboid.
func (e *Engine) chooseParams(s core.Shape, opts MulOptions, tr *obs.Tracer, parent obs.SpanID) (core.Params, error) {
	switch opts.Method {
	case MethodAuto:
		osp := tr.Start(parent, "optimize", obs.KindDriver)
		params, err := core.Optimize(s, e.cfg.Cluster.TaskMemBytes, e.cfg.Cluster.Slots())
		finishOptimizeSpan(osp, params, err)
		return params, err
	case MethodBMM:
		return s.BMMParams(), nil
	case MethodCPMM:
		return s.CPMMParams(), nil
	case MethodCuboid:
		return opts.Params, nil
	}
	return core.Params{}, fmt.Errorf("%w: %d", ErrUnknownMethod, int(opts.Method))
}

// rmmTasks resolves RMM's task count: the per-call value, else I·J, the
// paper's setting.
func rmmTasks(opts MulOptions, s core.Shape) int {
	if opts.RMMTasks > 0 {
		return opts.RMMTasks
	}
	return s.I * s.J
}

// finishOptimizeSpan annotates one optimizer-choice span with its outcome.
func finishOptimizeSpan(osp obs.Span, params core.Params, err error) {
	if osp.Active() {
		if err != nil {
			osp.SetAttr("error", err.Error())
		} else {
			osp.SetAttr("params", fmt.Sprintf("(%d,%d,%d)", params.P, params.Q, params.R))
		}
	}
	osp.End()
}

// checkOpen fails calls on a closed engine.
func (e *Engine) checkOpen() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	return nil
}

// Close releases the engine's resources: the layout table is dropped (so
// tracked matrices become collectable) and further operations fail with
// ErrEngineClosed. Close is idempotent. Matrices produced by the engine
// remain valid — they are plain block matrices with no reference back to
// the engine.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	e.layouts = nil
	e.layoutOrder = nil
	return nil
}

// ReleaseLayout forgets a matrix's tracked layout. Call it when a matrix
// goes out of use but the engine lives on; otherwise the layout table would
// pin the matrix until Close. Releasing a matrix that was never tracked is
// a no-op. The only cost of releasing early is that a future multiply
// involving the matrix repeats its base repartition copy.
func (e *Engine) ReleaseLayout(m *bmat.BlockMatrix) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.layouts, m)
}

// requiredLayouts returns the layouts a cuboid multiplication imposes on its
// operands: A is grid-partitioned (P,R) over (i,k), B is (R,Q) over (k,j).
// The classical corner cases degenerate to row/column partitioning.
func requiredLayouts(params core.Params) (la, lb layoutTag) {
	la = layoutTag{kind: "grid", p: params.P, r: params.R}
	lb = layoutTag{kind: "grid", p: params.R, r: params.Q}
	if params.Q == 1 && params.R == 1 {
		la = layoutTag{kind: "row", p: params.P}
	}
	if params.P == 1 && params.Q == 1 {
		la = layoutTag{kind: "col", p: params.R}
		lb = layoutTag{kind: "row", p: params.R}
	}
	return la, lb
}

// colocation reports whether each operand already sits in the layout the
// parameters require.
func (e *Engine) colocation(a, b *bmat.BlockMatrix, params core.Params) (bool, bool) {
	la, lb := requiredLayouts(params)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.layouts[a] == la, e.layouts[b] == lb
}

// recordLayouts notes where the operands and output live after a multiply:
// the operands were just repartitioned to the method's layouts; the
// aggregated output is written row-partitioned, the engine's convention.
func (e *Engine) recordLayouts(a, b, c *bmat.BlockMatrix, method Method, params core.Params) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	if method == MethodRMM {
		// Hash-scattered; no reusable layout.
		delete(e.layouts, a)
		delete(e.layouts, b)
	} else {
		la, lb := requiredLayouts(params)
		e.setLayoutLocked(a, la)
		e.setLayoutLocked(b, lb)
	}
	e.setLayoutLocked(c, layoutTag{kind: "row", p: e.cfg.Cluster.Slots()})
}

// setLayoutLocked inserts a layout tag, evicting the oldest tags once the
// table passes maxTrackedLayouts. layoutOrder may hold stale pointers
// (released or already-evicted matrices); they are skipped during eviction
// and the slice is compacted when it grows past twice the live table.
func (e *Engine) setLayoutLocked(m *bmat.BlockMatrix, tag layoutTag) {
	if _, tracked := e.layouts[m]; !tracked {
		e.layoutOrder = append(e.layoutOrder, m)
	}
	e.layouts[m] = tag
	for len(e.layouts) > maxTrackedLayouts && len(e.layoutOrder) > 0 {
		oldest := e.layoutOrder[0]
		e.layoutOrder = e.layoutOrder[1:]
		delete(e.layouts, oldest)
	}
	if len(e.layoutOrder) > 2*maxTrackedLayouts {
		live := e.layoutOrder[:0]
		for _, m := range e.layoutOrder {
			if _, ok := e.layouts[m]; ok {
				live = append(live, m)
			}
		}
		e.layoutOrder = live
	}
}
