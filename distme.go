// Package distme is a fast and elastic distributed matrix computation
// engine — a from-scratch Go reproduction of "DistME: A Fast and Elastic
// Distributed Matrix Computation Engine using GPUs" (Han et al., SIGMOD
// 2019).
//
// The engine executes distributed matrix multiplication with CuboidMM,
// which partitions the I×J×K voxel space of C = A×B into P·Q·R cuboids
// chosen to minimize network communication (Q·|A| + P·|B| + R·|C|) under a
// per-task memory budget θt; it generalizes the classical BMM, CPMM and RMM
// methods, all of which the engine also implements. Local multiplication
// runs on the CPU unless EngineConfig.Local names another multiplier; the
// reproduction's simulated GPU, which streams subcuboids sized for the
// device budget θg through asynchronous copy/kernel pipelines (the paper's
// §4), is one.
//
// Quickstart:
//
//	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: distme.LaptopCluster()})
//	if err != nil { ... }
//	rng := rand.New(rand.NewSource(1))
//	a := distme.RandomDense(rng, 1024, 1024, 64)
//	b := distme.RandomDense(rng, 1024, 1024, 64)
//	c, report, err := eng.Run(context.Background(),
//		distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
//		map[string]*distme.Matrix{"a": a, "b": b})
//	fmt.Println(report.Params, report.Comm)
//
// The cluster, its task-memory discipline (which reproduces the paper's
// O.O.M. / E.D.C. failure modes), and the communication accounting are all
// simulated in-process, deterministic, and byte-exact against the paper's
// Table 2 cost formulas.
package distme

import (
	"context"
	"io"
	"math/rand"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/engine"
	"distme/internal/matrix"
	"distme/internal/metrics"
	"distme/internal/ml"
	"distme/internal/obs"
	"distme/internal/plan"
	"distme/internal/storage"
	"distme/internal/workload"
)

// Matrix is a distributed block matrix: a grid of dense or CSR/CSC sparse
// blocks, the unit the engine partitions, shuffles and multiplies.
type Matrix = bmat.BlockMatrix

// Engine executes distributed matrix operators against a simulated cluster.
type Engine = engine.Engine

// EngineConfig configures an Engine: cluster envelope, local multiplier,
// layout tracking, and default multiplication method.
type EngineConfig = engine.Config

// ClusterConfig is the simulated hardware envelope (nodes, slots, θt, θg,
// bandwidths, disk).
type ClusterConfig = cluster.Config

// Method selects a multiplication strategy.
type Method = engine.Method

// Strategy constants.
const (
	// MethodAuto optimizes (P,Q,R) per Eq.(2) and runs CuboidMM.
	MethodAuto = engine.MethodAuto
	// MethodBMM broadcasts the B matrix (§2.2.1).
	MethodBMM = engine.MethodBMM
	// MethodCPMM runs cross-product multiplication (§2.2.2).
	MethodCPMM = engine.MethodCPMM
	// MethodRMM runs replication-based multiplication (§2.2.3).
	MethodRMM = engine.MethodRMM
	// MethodCuboid runs CuboidMM with explicit Params.
	MethodCuboid = engine.MethodCuboid
)

// MulOptions tunes one multiplication.
type MulOptions = engine.MulOptions

// Report describes one executed multiplication: method, parameters,
// communication snapshot, elastic counters and trace.
type Report = engine.Report

// Params is a (P,Q,R)-cuboid partitioning.
type Params = core.Params

// Shape summarizes one multiplication for the optimizer.
type Shape = core.Shape

// CommSnapshot is a communication-accounting snapshot.
type CommSnapshot = metrics.Snapshot

// Faults configures deterministic fault injection for chaos runs: seeded
// task crashes, injected O.O.M., straggler delays and transient
// shuffle-fetch failures. Set it on ClusterConfig.Faults; the zero value
// disables injection. Results under any fault seed are bit-identical to the
// failure-free run.
type Faults = cluster.Faults

// ElasticStats counts the fault-tolerance work of a run: task retries,
// speculative copies launched and won, shuffle-fetch retries, lineage
// recomputations and injected faults. Available per-multiply on
// Report.Elastic and cumulatively via the recorder's snapshot.
type ElasticStats = metrics.ElasticStats

// Tracer collects end-to-end spans of the engine's execution. Set one on
// EngineConfig.Tracer (or distnet's driver/worker options) to record a span
// tree per multiplication; a nil tracer disables tracing with zero overhead.
type Tracer = obs.Tracer

// Trace is a set of completed spans — Report.Trace carries one per traced
// multiplication, and Trace.WriteChromeTrace renders it as Chrome
// trace_event JSON for chrome://tracing or Perfetto.
type Trace = obs.Trace

// SpanData is the record of one completed span within a Trace.
type SpanData = obs.SpanData

// NewTracer creates a span tracer bounded at a default completed-span limit.
func NewTracer() *Tracer { return obs.NewTracer() }

// GNMFOptions configures Gaussian non-negative matrix factorization.
type GNMFOptions = ml.GNMFOptions

// GNMFResult carries the GNMF factors and tracked objectives.
type GNMFResult = ml.GNMFResult

// Dataset describes a rating dataset by dimensions and non-zero count
// (Table 3 statistics).
type Dataset = workload.Dataset

// The paper's evaluation datasets (Table 3 statistics); RatingMatrix
// generates synthetic stand-ins with identical dimensions and density.
var (
	MovieLens  = workload.MovieLens
	Netflix    = workload.Netflix
	YahooMusic = workload.YahooMusic
)

// NewEngine creates a DistME engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// PaperCluster returns the paper's testbed envelope: 9 nodes × 10 tasks,
// θt = 6 GB, θg = 1 GB, 10 Gbps Ethernet, 36 TB disk.
func PaperCluster() ClusterConfig { return cluster.PaperConfig() }

// LaptopCluster returns a scaled-down envelope for single-machine runs.
func LaptopCluster() ClusterConfig { return cluster.LaptopConfig() }

// NewMatrix creates an all-zero rows×cols matrix with the given block size.
func NewMatrix(rows, cols, blockSize int) *Matrix { return bmat.New(rows, cols, blockSize) }

// RandomDense generates a dense matrix with uniform [0,1) entries.
func RandomDense(rng *rand.Rand, rows, cols, blockSize int) *Matrix {
	return bmat.RandomDense(rng, rows, cols, blockSize)
}

// RandomSparse generates a CSR-blocked matrix with uniformly scattered
// non-zeros at the given density (fraction of non-zero elements).
func RandomSparse(rng *rand.Rand, rows, cols, blockSize int, density float64) *Matrix {
	return bmat.RandomSparse(rng, rows, cols, blockSize, density)
}

// FromDense splits a dense local matrix into blocks.
func FromDense(d *matrix.Dense, blockSize int) *Matrix { return bmat.FromDense(d, blockSize) }

// Identity returns the n×n identity matrix.
func Identity(n, blockSize int) *Matrix { return bmat.Identity(n, blockSize) }

// Optimize solves the paper's Eq.(2): the (P,Q,R) minimizing communication
// cost subject to the per-task memory budget, requiring at least `slots`
// cuboids for full cluster utilization.
func Optimize(s Shape, taskMemBytes int64, slots int) (Params, error) {
	return core.Optimize(s, taskMemBytes, slots)
}

// ShapeOf summarizes C = A×B for Optimize.
func ShapeOf(a, b *Matrix) Shape { return core.ShapeOf(a, b) }

// GNMF factorizes V ≈ W×H with the multiplicative update rules of the
// paper's Appendix A, running every product through the engine. Like every
// query below it takes ctx first: cancelling it stops the query between
// operators with an error matching ErrCancelled.
func GNMF(ctx context.Context, e *Engine, v *Matrix, opt GNMFOptions) (*GNMFResult, error) {
	return ml.GNMF(ctx, e, v, opt)
}

// SaveMatrix writes a matrix in the engine's chunked, checksummed binary
// format (the Parquet-on-HDFS stand-in).
func SaveMatrix(w io.Writer, m *Matrix) error { return storage.Write(w, m) }

// LoadMatrix reads a matrix written by SaveMatrix.
func LoadMatrix(r io.Reader) (*Matrix, error) { return storage.Read(r) }

// SaveMatrixFile writes a matrix to a file path.
func SaveMatrixFile(path string, m *Matrix) error { return storage.WriteFile(path, m) }

// LoadMatrixFile reads a matrix from a file path.
func LoadMatrixFile(path string) (*Matrix, error) { return storage.ReadFile(path) }

// --- Query plans (§5's declarative path) -----------------------------------

// PlanExpr is a logical matrix expression built with the plan constructors.
type PlanExpr = plan.Expr

// PlanProgram is a compiled, optimized physical plan: transposes pushed to
// the leaves, scalars folded, common subexpressions shared.
type PlanProgram = plan.Program

// Expression constructors for the plan DSL.
var (
	// PlanVar references an input matrix bound at evaluation time.
	PlanVar = plan.V
	// PlanMul builds a distributed multiplication node.
	PlanMul = plan.Mul
	// PlanAdd builds an element-wise addition node.
	PlanAdd = plan.Plus
	// PlanSub builds an element-wise subtraction node.
	PlanSub = plan.Minus
	// PlanEMul builds an element-wise (Hadamard) product node.
	PlanEMul = plan.EMul
	// PlanEDiv builds a guarded element-wise division node.
	PlanEDiv = plan.EDiv
	// PlanT builds a transpose node.
	PlanT = plan.T
	// PlanScale builds a scalar-multiplication node.
	PlanScale = plan.Times
)

// CompilePlan rewrites and hash-conses an expression into a program.
func CompilePlan(e PlanExpr) (*PlanProgram, error) { return plan.Compile(e) }

// RunOption tunes one Engine.Run call.
type RunOption = engine.RunOption

// Options for Engine.Run, the consolidated context-first entry point.
var (
	// WithMethod selects the multiplication strategy for every
	// multiplication in the expression.
	WithMethod = engine.WithMethod
	// WithMulOptions applies explicit per-multiplication options.
	WithMulOptions = engine.WithMulOptions
	// WithParams fixes explicit (P,Q,R) cuboid parameters.
	WithParams = engine.WithParams
)

// --- Additional algorithms ---------------------------------------------------

// GNMFPlanned runs GNMF through the plan compiler — identical results to
// GNMF, exercising the declarative §5 path.
func GNMFPlanned(ctx context.Context, e *Engine, v *Matrix, opt GNMFOptions) (*GNMFResult, error) {
	return ml.GNMFPlanned(ctx, e, v, opt)
}

// PageRankOptions configures the PageRank power iteration.
type PageRankOptions = ml.PageRankOptions

// PageRankResult carries ranks and convergence facts.
type PageRankResult = ml.PageRankResult

// PageRank runs the damped power iteration over an adjacency matrix using
// the engine's distributed multiply.
func PageRank(ctx context.Context, e *Engine, adj *Matrix, opt PageRankOptions) (*PageRankResult, error) {
	return ml.PageRank(ctx, e, adj, opt)
}

// LoadRatings parses a "user item rating [timestamp]" ratings file (the
// MovieLens/Netflix export layout) into a sparse rating matrix.
func LoadRatings(r io.Reader, blockSize int) (*Matrix, error) {
	return workload.LoadRatings(r, blockSize)
}

// ALSOptions configures alternating least squares.
type ALSOptions = ml.ALSOptions

// ALSResult carries the ALS factors and tracked objective.
type ALSResult = ml.ALSResult

// ALS factorizes V ≈ W×H by alternating least squares: distributed products
// on the engine, local Cholesky solves for the r×r normal equations.
func ALS(ctx context.Context, e *Engine, v *Matrix, opt ALSOptions) (*ALSResult, error) {
	return ml.ALS(ctx, e, v, opt)
}

// SVDOptions configures the randomized truncated SVD.
type SVDOptions = ml.SVDOptions

// SVDResult carries the truncated factorization A ≈ U·diag(S)·Vᵀ.
type SVDResult = ml.SVDResult

// SVD computes a randomized truncated singular value decomposition with
// the big products running distributed through the engine.
func SVD(ctx context.Context, e *Engine, a *Matrix, opt SVDOptions) (*SVDResult, error) {
	return ml.SVD(ctx, e, a, opt)
}
