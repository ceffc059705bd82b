package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/matrix"
	"distme/internal/metrics"
	"distme/internal/obs"
)

// Env is the execution environment of one distributed multiplication: the
// cluster that runs the tasks (its recorder is what the repartition /
// local-multiplication / aggregation steps charge), and the local multiplier
// that computes a cuboid's partial results and RMM's block-pair products
// (CPU by default; the gpu package provides the accelerated implementation
// of §4).
type Env struct {
	Cluster    *cluster.Cluster
	Multiplier LocalMultiplier
	// AColocated (BColocated) declares that A (B) is already partitioned in
	// the layout the chosen method wants, so its base copy does not cross
	// the network: one |A| (|B|) is deducted from the repartition charge.
	// This is the matrix-dependency reuse of DMac/MatFast (§7) that the
	// engine's layout tracker drives for iterative queries like GNMF.
	AColocated, BColocated bool
	// BalanceBySparsity schedules cuboids longest-estimated-work-first (the
	// LPT rule) so skewed sparse inputs do not leave one straggler cuboid
	// running after the rest of the wave drains — the load-balancing
	// extension the paper's §8 names as future work.
	BalanceBySparsity bool
	// Tracer records phase spans (repartition, local multiply, aggregation)
	// and one task span per committed cuboid; nil disables tracing with no
	// overhead. TraceParent is the span the phase spans parent to (0 roots
	// them).
	Tracer      *obs.Tracer
	TraceParent obs.SpanID
}

// multiplier returns the configured local multiplier or the CPU default.
func (e *Env) multiplier() LocalMultiplier {
	if e.Multiplier != nil {
		return e.Multiplier
	}
	return CPUMultiplier{}
}

// Cuboid is one task's work unit D_{p,q,r}: the voxel box
// [ILo,IHi)×[JLo,JHi)×[KLo,KHi) of the 3-dimensional model, with views of
// the A and B source matrices. A local multiplier computes, for every (i,j)
// in the box, the partial block sum over the box's k range.
type Cuboid struct {
	P, Q, R                      int // cuboid index (p,q,r)
	ILo, IHi, JLo, JHi, KLo, KHi int // voxel box, block coordinates
	A, B                         *bmat.BlockMatrix
}

// Name identifies the cuboid in errors and traces.
func (c *Cuboid) Name() string { return fmt.Sprintf("cuboid(%d,%d,%d)", c.P, c.Q, c.R) }

// Box returns the cuboid's voxel box.
func (c *Cuboid) Box() Box {
	return Box{ILo: c.ILo, IHi: c.IHi, JLo: c.JLo, JHi: c.JHi, KLo: c.KLo, KHi: c.KHi}
}

// Voxels returns the number of voxels in the box.
func (c *Cuboid) Voxels() int {
	return (c.IHi - c.ILo) * (c.JHi - c.JLo) * (c.KHi - c.KLo)
}

// Shape summarizes the cuboid for the subcuboid optimizer: grid extents and
// payload sizes of this task's A^m, B^m and dense C^m estimate.
func (c *Cuboid) Shape() CuboidShape {
	return CuboidShape{
		IB:     c.IHi - c.ILo,
		JB:     c.JHi - c.JLo,
		KB:     c.KHi - c.KLo,
		ABytes: c.ABytes(),
		BBytes: c.BBytes(),
		CBytes: c.CDenseBytes(),
	}
}

// ABytes returns the stored payload of the cuboid's A-side blocks.
func (c *Cuboid) ABytes() int64 {
	var n int64
	for i := c.ILo; i < c.IHi; i++ {
		for k := c.KLo; k < c.KHi; k++ {
			if blk := c.A.Block(i, k); blk != nil {
				n += blk.SizeBytes()
			}
		}
	}
	return n
}

// BBytes returns the stored payload of the cuboid's B-side blocks.
func (c *Cuboid) BBytes() int64 {
	var n int64
	for k := c.KLo; k < c.KHi; k++ {
		for j := c.JLo; j < c.JHi; j++ {
			if blk := c.B.Block(k, j); blk != nil {
				n += blk.SizeBytes()
			}
		}
	}
	return n
}

// CDenseBytes returns the dense estimate of the cuboid's C-side payload —
// the worst case the paper uses for intermediate blocks.
func (c *Cuboid) CDenseBytes() int64 {
	var n int64
	for i := c.ILo; i < c.IHi; i++ {
		r, _ := c.A.BlockDims(i, 0)
		for j := c.JLo; j < c.JHi; j++ {
			_, cc := c.B.BlockDims(0, j)
			n += int64(r) * int64(cc) * 8
		}
	}
	return n
}

// MemEstimateBytes is the task working set charged against θt: inputs at
// stored size plus the dense output estimate.
func (c *Cuboid) MemEstimateBytes() int64 {
	return c.ABytes() + c.BBytes() + c.CDenseBytes()
}

// FlopsEstimate predicts the cuboid's arithmetic from its actual blocks:
// for each (i, k) pair of A, 2·work(A_{i,k})·(columns of B in range), with
// work = nnz for sparse blocks and rows×cols for dense ones. Sparsity skew
// across cuboids makes these estimates differ, which is what the §8
// load-balancing extension exploits.
func (c *Cuboid) FlopsEstimate() float64 {
	var bCols float64
	for j := c.JLo; j < c.JHi; j++ {
		_, cc := c.B.BlockDims(0, j)
		bCols += float64(cc)
	}
	var work float64
	for i := c.ILo; i < c.IHi; i++ {
		for k := c.KLo; k < c.KHi; k++ {
			if blk := c.A.Block(i, k); blk != nil {
				work += leftWork(blk)
			}
		}
	}
	return 2 * work * bCols
}

// LocalMultiplier computes the local multiplication step at both of its
// granularities. Multiply runs one cuboid, returning its partial C blocks,
// each output position at most once. MultiplyPair runs one block pair — the
// granularity of RMM, whose hash partitioning prevents cuboid-level
// batching. The CPU implementation multiplies directly; the GPU
// implementation (gpu package) streams subcuboids through the simulated
// device per Algorithm 1, and block pairs one at a time.
type LocalMultiplier interface {
	Multiply(c *Cuboid) ([]Partial, error)
	MultiplyPair(a, b matrix.Block) (*matrix.Dense, error)
}

// CPUMultiplier is the LAPACK-style local multiplication: MultiplyBox over
// the cuboid's box, reading blocks straight from the source matrices.
type CPUMultiplier struct{}

// Multiply implements LocalMultiplier.
func (CPUMultiplier) Multiply(c *Cuboid) ([]Partial, error) {
	tiles, _ := MultiplyBox(c.Box(), c.A.Block, c.B.Block, nil)
	return c.Box().Partials(tiles), nil
}

// MultiplyPair implements LocalMultiplier.
func (CPUMultiplier) MultiplyPair(a, b matrix.Block) (*matrix.Dense, error) {
	return matrix.MulAdd(nil, a, b), nil
}

// ErrShapeMismatch reports operands that are not conformable for the
// requested operation — wrong inner dimensions or differing block sizes.
// Every operand-validation error of the executors, on either plane, wraps it.
var ErrShapeMismatch = errors.New("core: operand shapes are not conformable")

// CheckConformable validates C = A×B for an aRows×aCols A in aBlock-sized
// blocks and a bRows×bCols B in bBlock-sized ones.
func CheckConformable(aRows, aCols, aBlock, bRows, bCols, bBlock int) error {
	if aCols != bRows {
		return fmt.Errorf("%w: A is %dx%d, B is %dx%d: inner dimensions differ", ErrShapeMismatch, aRows, aCols, bRows, bCols)
	}
	if aBlock != bBlock {
		return fmt.Errorf("%w: block sizes differ: %d vs %d", ErrShapeMismatch, aBlock, bBlock)
	}
	return nil
}

// checkOperands is CheckConformable over two block matrices.
func checkOperands(a, b *bmat.BlockMatrix) error {
	return CheckConformable(a.Rows, a.Cols, a.BlockSize, b.Rows, b.Cols, b.BlockSize)
}

// ShapeOf summarizes C = A×B for the optimizer: grid extents, stored input
// payloads, dense output estimate — the worst case the paper (like
// SystemML and DMac, §2.2.2) uses for intermediate blocks.
func ShapeOf(a, b *bmat.BlockMatrix) Shape {
	return Shape{
		I:      a.IB,
		J:      b.JB,
		K:      a.JB,
		ABytes: a.StoredBytes(),
		BBytes: b.StoredBytes(),
		CBytes: int64(a.Rows) * int64(b.Cols) * 8,
	}
}

// ShapeOfEstimated is ShapeOf with a probabilistic output-density estimate
// instead of the dense worst case: under the uniform-scatter model, a C
// element is non-zero with probability 1 − (1 − spA·spB)^K over the K inner
// elements, and a sparse C stores ≈16 B per non-zero. For genuinely sparse
// products this admits far coarser (cheaper) cuboid partitionings than the
// worst case — the estimation ablation the paper's §2.2.2 gestures at when
// it notes "the actual cost may be lower".
func ShapeOfEstimated(a, b *bmat.BlockMatrix) Shape {
	s := ShapeOf(a, b)
	spA, spB := a.Sparsity(), b.Sparsity()
	pNZ := 1 - pow1m(spA*spB, a.Cols)
	sparse := int64(pNZ*float64(a.Rows)*float64(b.Cols)) * 16
	if sparse < s.CBytes {
		s.CBytes = sparse
	}
	return s
}

// pow1m computes (1-p)^n stably for small p and large n via exp(n·log1p(-p)).
func pow1m(p float64, n int) float64 {
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	return math.Exp(float64(n) * math.Log1p(-p))
}

// MultiplyCuboid executes C = A×B with an explicit (P,Q,R)-cuboid
// partitioning: the three steps of §3.1 — repartition (charged to the
// recorder), local multiplication (one cluster task per cuboid), and
// aggregation across the R cuboids of each (p,q) column (charged and
// reduced). Passing BMMParams/CPMMParams/RMMParams reproduces the classical
// methods' costs exactly (Table 2): Broadcast MM (§2.2.1, row-partition A
// over T = I tasks and broadcast B) is CuboidMM at BMMParams (I,1,1), and
// Cross-Product MM (§2.2.2, column-partition A, row-partition B over T = K
// tasks, aggregate T·|C|) is CuboidMM at CPMMParams (1,1,K).
//
// The cluster's retry, backoff and speculation loops observe ctx and abort
// within one backoff step of cancellation, returning an error wrapping
// cluster.ErrCancelled and ctx.Err().
func MultiplyCuboid(ctx context.Context, a, b *bmat.BlockMatrix, params Params, env Env) (*bmat.BlockMatrix, error) {
	if err := checkOperands(a, b); err != nil {
		return nil, err
	}
	s := ShapeOf(a, b)
	if err := params.Check(s.I, s.J, s.K); err != nil {
		return nil, err
	}
	mult := env.multiplier()
	return runSteps(ctx, a, b, env, func() stepPlan {
		// Every A block lands in exactly Q cuboids and every B block in
		// exactly P, so the charge equals Eq.(4)'s Q·|A| + P·|B| term exactly.
		plan := stepPlan{tasks: make([]stepTask, 0, params.Tasks()), compact: true}
		cuboids := make([]*Cuboid, 0, params.Tasks())
		ForEachCuboid(params, s.I, s.J, s.K, func(p, q, r int, box Box) {
			c := &Cuboid{
				P: p, Q: q, R: r,
				ILo: box.ILo, IHi: box.IHi, JLo: box.JLo, JHi: box.JHi, KLo: box.KLo, KHi: box.KHi,
				A: a, B: b,
			}
			in := c.ABytes() + c.BBytes()
			plan.repartitionBytes += in
			plan.tasks = append(plan.tasks, stepTask{
				name: c.Name(), p: p, q: q, r: r,
				mem:     in + c.CDenseBytes(),
				compute: func() ([]Partial, error) { return mult.Multiply(c) },
			})
			cuboids = append(cuboids, c)
		})
		if env.AColocated {
			plan.repartitionBytes -= a.StoredBytes()
		}
		if env.BColocated {
			plan.repartitionBytes -= b.StoredBytes()
		}
		if plan.repartitionBytes < 0 {
			plan.repartitionBytes = 0
		}
		// With R = 1 the local products are final blocks and no shuffle
		// occurs (BMM's "-" in Table 2). With R > 1 every partial block
		// crosses the shuffle, totalling R·|C| for dense partials — Eq.(4)'s
		// last term — serialized in its compact form: a mostly-zero partial
		// travels as CSR (the format decision SystemML makes per block),
		// which is why the actual aggregation cost of sparse products runs
		// below the worst-case R·|C| (§2.2.2).
		if params.R > 1 {
			plan.sizeOf = compactSizeBytes
		}
		if env.BalanceBySparsity {
			// No box of a checked plan is empty, so cuboid (p,q,r) is task
			// (p·Q+q)·R+r of the plan.
			sortCuboidsByWork(cuboids)
			plan.submit = make([]int, len(cuboids))
			for n, c := range cuboids {
				plan.submit[n] = (c.P*params.Q+c.Q)*params.R + c.R
			}
		}
		return plan
	})
}

// stepTask is one task of a plan — a cuboid of CuboidMM, a voxel group of
// RMM. compute derives the task's partial C blocks from the operands alone
// (its lineage), in the order the fold must add them; it is deterministic,
// so re-executed, speculative and recomputed attempts agree to the bit.
type stepTask struct {
	name    string
	p, q, r int   // cuboid index on the task's spans; -1 where there is none
	mem     int64 // working set charged against θt
	compute func() ([]Partial, error)
}

// stepPlan is what a method decides about the three steps of §3.1; runSteps
// is how they run.
type stepPlan struct {
	// tasks are in plan order: the order the fold adds their partials in,
	// whatever order they run or finish in.
	tasks []stepTask
	// submit, when not nil, is the order tasks are handed to the cluster, as
	// indices into tasks. Scheduling may permute work; it never reaches the
	// fold.
	submit []int
	// repartitionBytes is the repartition step's network charge.
	repartitionBytes int64
	// sizeOf is what one partial block costs the aggregation shuffle; nil
	// when the partials are final blocks and nothing is shuffled.
	sizeOf func(*matrix.Dense) int64
	// compact stores low-density output blocks as CSR. CuboidMM does; RMM
	// returns its output dense, as the paper's RMM has no format step.
	compact bool
	// spillEmptyAggregation charges the aggregation spill even at zero bytes:
	// RMM always runs its (i,j) shuffle, CuboidMM at R = 1 has none to charge.
	spillEmptyAggregation bool
}

// runSteps is the executor under every method: it charges the repartition
// the plan prices, runs one cluster task per plan task, recovers partials
// whose aggregation-side fetch fails, folds the partials in plan order and
// charges the aggregation. build runs inside the repartition step, whose
// span and duration cover the planning. Task bodies commit their partial
// output under a mutex with first-writer-wins, so re-executed and
// speculative attempts leave output bytes identical to a failure-free run.
func runSteps(ctx context.Context, a, b *bmat.BlockMatrix, env Env, build func() stepPlan) (*bmat.BlockMatrix, error) {
	rec := env.Cluster.Recorder()

	// ---- Matrix repartition step -------------------------------------
	start := time.Now()
	rsp := env.Tracer.Start(env.TraceParent, "repartition", obs.KindDriver)
	plan := build()
	rec.AddBytes(metrics.StepRepartition, plan.repartitionBytes)
	if err := env.Cluster.ChargeSpill(plan.repartitionBytes); err != nil {
		endSpanErr(rsp, err)
		return nil, err
	}
	rec.AddDuration(metrics.StepRepartition, time.Since(start))
	rsp.AddBytes(plan.repartitionBytes)
	rsp.End()

	// ---- Local multiplication step -----------------------------------
	start = time.Now()
	lsp := env.Tracer.Start(env.TraceParent, "local-multiply", obs.KindDriver)
	partials := make([][]Partial, len(plan.tasks))
	committed := make([]bool, len(plan.tasks))
	var commitMu sync.Mutex
	tasks := make([]cluster.Task, len(plan.tasks))
	for n := range tasks {
		idx := n
		if plan.submit != nil {
			idx = plan.submit[n]
		}
		t := &plan.tasks[idx]
		tasks[n] = cluster.Task{
			Name:        t.name,
			MemEstimate: t.mem,
			Fn: func() error {
				attemptStart := time.Now()
				out, err := t.compute()
				if err != nil {
					return err
				}
				// First-writer-wins commit: a speculative copy losing the
				// race discards its (identical) result, so concurrent
				// attempts never double-publish. Only the winning attempt
				// records a task span, keeping the invariant of exactly one
				// span per task across retries and speculation.
				commitMu.Lock()
				defer commitMu.Unlock()
				if committed[idx] {
					releasePartials(out)
					return nil
				}
				committed[idx], partials[idx] = true, out
				env.taskSpan(lsp.ID(), "task.multiply", t, attemptStart)
				return nil
			},
		}
	}
	if err := env.Cluster.Run(ctx, tasks); err != nil {
		endSpanErr(lsp, err)
		return nil, err
	}
	if err := recoverPartials(ctx, env, lsp.ID(), plan.tasks, partials); err != nil {
		endSpanErr(lsp, err)
		return nil, err
	}
	rec.AddDuration(metrics.StepLocalMultiply, time.Since(start))
	lsp.End()

	// ---- Matrix aggregation step -------------------------------------
	start = time.Now()
	asp := env.Tracer.Start(env.TraceParent, "aggregate", obs.KindDriver)
	out := bmat.New(a.Rows, b.Cols, a.BlockSize)
	aggregationBytes := FoldPartials(out, partials, plan.sizeOf)
	if plan.compact {
		compactOutput(out)
	}
	rec.AddBytes(metrics.StepAggregation, aggregationBytes)
	if aggregationBytes > 0 || plan.spillEmptyAggregation {
		if err := env.Cluster.ChargeSpill(aggregationBytes); err != nil {
			endSpanErr(asp, err)
			return nil, err
		}
	}
	rec.AddDuration(metrics.StepAggregation, time.Since(start))
	asp.AddBytes(aggregationBytes)
	asp.End()
	return out, nil
}

// taskSpan records one finished attempt of a task under parent.
func (e *Env) taskSpan(parent obs.SpanID, name string, t *stepTask, start time.Time) {
	if !e.Tracer.Enabled() {
		return
	}
	e.Tracer.AddCompleted(obs.SpanData{
		Parent: parent,
		Name:   name,
		Kind:   obs.KindTask,
		Worker: t.name,
		P:      t.p, Q: t.q, R: t.r,
		Start: start, End: time.Now(),
	})
}

// endSpanErr annotates a span with an error and ends it (phase spans on
// early-return paths).
func endSpanErr(sp obs.Span, err error) {
	if sp.Active() {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
}

// sparseFormatThreshold is the density below which a result block is stored
// (and shipped) in CSR rather than dense: 16 B/nnz beats 8 B/element below
// one half, with margin for the row-pointer array.
const sparseFormatThreshold = 0.4

// compactSizeBytes is the serialized size of a block in its best format.
func compactSizeBytes(d *matrix.Dense) int64 {
	if matrix.Sparsity(d) < sparseFormatThreshold {
		nnz := int64(d.NNZ())
		sparse := nnz*16 + int64(d.RowsN+1)*8
		if sparse < d.SizeBytes() {
			return sparse
		}
	}
	return d.SizeBytes()
}

// compactOutput converts low-density dense result blocks to CSR — the
// output-format selection step, so downstream operators see sparse blocks
// when the product really is sparse.
func compactOutput(m *bmat.BlockMatrix) {
	for _, key := range m.Keys() {
		blk := m.Block(key.I, key.J)
		d, ok := blk.(*matrix.Dense)
		if !ok {
			continue
		}
		if matrix.Sparsity(d) < sparseFormatThreshold {
			csr := matrix.NewCSRFromDense(d)
			if csr.SizeBytes() < d.SizeBytes() {
				m.SetBlock(key.I, key.J, csr)
				// The dense buffer was typically a pooled MulAdd
				// accumulator; the CSR copy replaces it, so recycle.
				matrix.PutDense(d)
			}
		}
	}
}

// sortCuboidsByWork orders cuboids by descending flops estimate
// (longest-processing-time-first), tie-broken by index for determinism.
func sortCuboidsByWork(cs []*Cuboid) {
	sort.SliceStable(cs, func(a, b int) bool {
		wa, wb := cs[a].FlopsEstimate(), cs[b].FlopsEstimate()
		if wa != wb {
			return wa > wb
		}
		ka := [3]int{cs[a].P, cs[a].Q, cs[a].R}
		kb := [3]int{cs[b].P, cs[b].Q, cs[b].R}
		for i := range ka {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	})
}

// MultiplyRMM runs Replication-based Matrix Multiplication (§2.2.3):
// replicate every A block J times and every B block I times, hash-shuffle
// voxels over tasks, multiply block pairs, then shuffle K·|C| intermediate
// blocks by (i,j). T is the task count; the paper's best practical setting
// is I·J (pass 0 to use it). Unlike the cuboid path, tasks hold
// non-consecutive voxels, so no communication sharing is possible and every
// voxel pays full replication — that difference is the point of Figure 6.
// ctx has the same elastic semantics as in MultiplyCuboid.
func MultiplyRMM(ctx context.Context, a, b *bmat.BlockMatrix, tasks int, env Env) (*bmat.BlockMatrix, error) {
	if err := checkOperands(a, b); err != nil {
		return nil, err
	}
	s := ShapeOf(a, b)
	if tasks <= 0 {
		tasks = s.I * s.J
	}
	vm := env.multiplier()
	return runSteps(ctx, a, b, env, func() stepPlan {
		// Every partial block crosses the (i,j) shuffle at stored size.
		plan := stepPlan{sizeOf: (*matrix.Dense).SizeBytes, spillEmptyAggregation: true}
		groups := make([][]bmat.VoxelKey, tasks)
		memEstimates := make([]int64, tasks)
		for i := 0; i < s.I; i++ {
			for j := 0; j < s.J; j++ {
				for k := 0; k < s.K; k++ {
					ab := a.Block(i, k)
					bb := b.Block(k, j)
					// Replication cost is charged for every voxel the block is
					// copied to, even when a block is zero the paper's formula
					// counts stored payload only, so nil blocks cost nothing.
					var vbytes int64
					if ab != nil {
						vbytes += ab.SizeBytes()
					}
					if bb != nil {
						vbytes += bb.SizeBytes()
					}
					plan.repartitionBytes += vbytes
					vk := bmat.VoxelKey{I: i, J: j, K: k}
					t := voxelTask(vk, tasks)
					r, _ := a.BlockDims(i, 0)
					_, cc := b.BlockDims(0, j)
					// A task streams its voxels from the shuffle one at a time,
					// so its resident set is the largest single voxel — this is
					// what lets RMM scale to any matrix size (§2.2.3).
					if v := vbytes + int64(r)*int64(cc)*8; v > memEstimates[t] {
						memEstimates[t] = v
					}
					if ab != nil && bb != nil {
						groups[t] = append(groups[t], vk)
					}
				}
			}
		}
		for t, group := range groups {
			if len(group) == 0 {
				continue
			}
			plan.tasks = append(plan.tasks, stepTask{
				name: fmt.Sprintf("rmm-task(%d)", t), p: -1, q: -1, r: -1,
				mem: memEstimates[t],
				// One block pair per voxel, in the group's (i,j,k) order.
				compute: func() ([]Partial, error) {
					out := make([]Partial, 0, len(group))
					for _, vk := range group {
						prod, err := vm.MultiplyPair(a.Block(vk.I, vk.K), b.Block(vk.K, vk.J))
						if err != nil {
							releasePartials(out)
							return nil, err
						}
						out = append(out, Partial{Key: bmat.BlockKey{I: vk.I, J: vk.J}, Block: prod})
					}
					return out, nil
				},
			})
		}
		return plan
	})
}

// voxelTask hashes voxel v_{i,j,k} onto one of n tasks: RMM shuffles
// replicated blocks with the voxel index as the key (§2.2.3).
func voxelTask(v bmat.VoxelKey, n int) int {
	return int(hash2(hash2(uint64(v.I), uint64(v.J)), uint64(v.K)) % uint64(n))
}

// hash2 mixes two 64-bit values (splitmix64-style finalizer), giving the
// even spread the Hash scheme of §2.1 promises without pulling in
// hash/maphash state.
func hash2(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MultiplyAuto optimizes (P,Q,R) for the cluster's budgets (Eq. 2) and runs
// CuboidMM with the result. This is DistME's default multiplication path.
func MultiplyAuto(ctx context.Context, a, b *bmat.BlockMatrix, env Env) (*bmat.BlockMatrix, Params, error) {
	s := ShapeOf(a, b)
	cfg := env.Cluster.Config()
	params, err := Optimize(s, cfg.TaskMemBytes, cfg.Slots())
	if err != nil {
		return nil, Params{}, err
	}
	c, err := MultiplyCuboid(ctx, a, b, params, env)
	return c, params, err
}
