// Package costmodel is the analytic execution plane for paper-scale
// experiments: the measured plane (internal/core on internal/cluster) runs
// real blocks at laptop scale, while this model evaluates the same plans —
// same shapes, same optimizer, same Table 2 formulas — at the paper's full
// matrix sizes against the paper's hardware constants (10 Gbps Ethernet,
// 6 GB θt, 1 GB θg, GTX 1080 Ti throughput). The bench harness uses it to
// regenerate the rows of Figures 6–8 and Table 5 and to reproduce the
// O.O.M. / E.D.C. / T.O. verdicts.
package costmodel

import (
	"fmt"
	"time"

	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/gpu"
)

// Workload describes one paper-scale multiplication C = A×B in element
// coordinates: A is M×K elements, B is K×N.
type Workload struct {
	M, K, N   int64
	BlockSize int64
	// SparsityA and SparsityB are the fractions of non-zeros (1 = dense).
	SparsityA, SparsityB float64
}

// bytesOf estimates the stored payload of an m×n matrix at the given
// sparsity: dense 8 B/element, CSR ≈ 16 B/non-zero below half density. The
// paper stores half-dense synthetic data in dense blocks; only genuinely
// sparse data uses CSR.
func bytesOf(m, n int64, sparsity float64) int64 {
	if sparsity <= 0 || sparsity >= 0.5 {
		return m * n * 8
	}
	return int64(float64(m*n)*sparsity) * 16
}

// blockSize is the block side in elements; an unset BlockSize is 1000.
func (w Workload) blockSize() int64 {
	if w.BlockSize <= 0 {
		return 1000
	}
	return w.BlockSize
}

// Shape maps the workload onto the block-grid shape the optimizer consumes.
func (w Workload) Shape() core.Shape {
	b := w.blockSize()
	spA, spB := w.SparsityA, w.SparsityB
	if spA == 0 {
		spA = 1
	}
	if spB == 0 {
		spB = 1
	}
	return core.Shape{
		I:      int((w.M + b - 1) / b),
		J:      int((w.N + b - 1) / b),
		K:      int((w.K + b - 1) / b),
		ABytes: bytesOf(w.M, w.K, spA),
		BBytes: bytesOf(w.K, w.N, spB),
		CBytes: w.M * w.N * 8,
	}
}

// Flops is the arithmetic the kernels actually perform. Dense-stored
// operands run cublasDgemm/dgemm, which does the full 2·M·K·N regardless of
// zero content; a CSR-stored A runs csrmm with 2·nnz(A)·N. Storage follows
// bytesOf's rule: sparsity < 0.5 is stored sparse.
func (w Workload) Flops() float64 {
	full := 2 * float64(w.M) * float64(w.K) * float64(w.N)
	spA, spB := w.SparsityA, w.SparsityB
	if spA > 0 && spA < 0.5 {
		full *= spA
	}
	if spB > 0 && spB < 0.5 {
		full *= spB
	}
	return full
}

// Model evaluates plans against a hardware envelope.
type Model struct {
	Cfg cluster.Config
	// JobOverhead is the fixed per-job cost (driver startup, stage
	// scheduling); ~15 s for Spark-based systems, ~2 s for MPI.
	JobOverhead float64
	// TaskOverhead is the per-task scheduling cost (~50 ms in Spark).
	TaskOverhead float64
	// SerializationFactor inflates shuffle bytes for serialization framing
	// (Figure 9(b) notes measured traffic slightly exceeds Cost()); the
	// ext-wire experiment measures ≈13% over real TCP, validating the 1.15
	// default.
	SerializationFactor float64
	// NetEfficiency derates the aggregate network bandwidth (protocol
	// overhead, skew); 0.5 by default.
	NetEfficiency float64
	// CPUEfficiency derates peak CPU flops for real GEMM (~0.7).
	CPUEfficiency float64
	// GPUEfficiency derates peak GPU flops (~0.7).
	GPUEfficiency float64
	// Timeout is the experiment's T.O. threshold (4000 s in §6.2).
	Timeout time.Duration
}

// NewPaperModel returns the model tuned to the paper's testbed for
// Spark-based systems.
func NewPaperModel() Model {
	return Model{
		Cfg:                 cluster.PaperConfig(),
		JobOverhead:         15,
		TaskOverhead:        0.05,
		SerializationFactor: 1.15,
		NetEfficiency:       0.5,
		CPUEfficiency:       0.7,
		GPUEfficiency:       0.7,
		Timeout:             4000 * time.Second,
	}
}

// NewMPIModel returns the model for ScaLAPACK/SciDB: no JVM, tiny job and
// task overheads, but the same wires.
func NewMPIModel() Model {
	m := NewPaperModel()
	m.JobOverhead = 2
	m.TaskOverhead = 0.001
	m.SerializationFactor = 1.0
	return m
}

// Verdict is the outcome of a modeled run.
type Verdict string

// The outcomes the paper's figures annotate.
const (
	VerdictOK  Verdict = "ok"
	VerdictOOM Verdict = "O.O.M."
	VerdictEDC Verdict = "E.D.C."
	VerdictTO  Verdict = "T.O."
)

// Estimate is one modeled execution.
type Estimate struct {
	Label            string
	Params           core.Params
	Tasks            int
	RepartitionBytes int64
	AggregationBytes int64
	PCIEBytes        int64
	RepartitionSec   float64
	LocalSec         float64
	AggregationSec   float64
	OverheadSec      float64
	MemPerTaskBytes  int64
	Verdict          Verdict
}

// TotalSec is the modeled elapsed time.
func (e Estimate) TotalSec() float64 {
	return e.RepartitionSec + e.LocalSec + e.AggregationSec + e.OverheadSec
}

// CommunicationBytes is the modeled shuffle volume.
func (e Estimate) CommunicationBytes() int64 { return e.RepartitionBytes + e.AggregationBytes }

// StepRatios returns the repartition/local/aggregation time split of the
// modeled run (Figure 7(e)).
func (e Estimate) StepRatios() (rep, local, agg float64) {
	total := e.RepartitionSec + e.LocalSec + e.AggregationSec
	if total == 0 {
		return 0, 0, 0
	}
	return e.RepartitionSec / total, e.LocalSec / total, e.AggregationSec / total
}

// String renders the estimate compactly.
func (e Estimate) String() string {
	if e.Verdict != VerdictOK {
		return fmt.Sprintf("%s: %s", e.Label, e.Verdict)
	}
	return fmt.Sprintf("%s: %.0fs comm=%.0fMB", e.Label, e.TotalSec(), float64(e.CommunicationBytes())/1e6)
}

// netAggregate is the cluster-wide effective shuffle bandwidth in bytes/s.
func (m Model) netAggregate() float64 {
	eff := m.NetEfficiency
	if eff <= 0 {
		eff = 0.5
	}
	return float64(m.Cfg.Nodes) * m.Cfg.NetworkBandwidth * eff
}

// EstimateCuboid models CuboidMM (or a classical corner) with explicit
// parameters.
func (m Model) EstimateCuboid(w Workload, p core.Params, useGPU bool) Estimate {
	s := w.Shape()
	est := Estimate{Label: fmt.Sprintf("CuboidMM%v", p), Params: p, Tasks: p.Tasks()}

	repart := float64(p.Q)*float64(s.ABytes) + float64(p.P)*float64(s.BBytes)
	var agg float64
	if p.R > 1 {
		agg = float64(p.R) * float64(s.CBytes)
	}
	est.RepartitionBytes = int64(repart)
	est.AggregationBytes = int64(agg)

	// Physical per-task memory — this is what actually out-of-memories, and
	// it differs from the worst-case Eq.(3) the optimizer conservatively
	// uses, in the two ways the paper's own results exhibit:
	//
	//   1. a fully broadcast operand (its partition count is 1 on both of
	//      its axes) is node-resident and shared by the node's Tc tasks, so
	//      it is checked against node RAM — that is why BMM survives
	//      |B| > θt and dies only past node memory (Fig. 6(a): N > 80K);
	//   2. the C accumulator is resident only when a task covers more than
	//      one k block (it must accumulate); with R = K each partial block
	//      streams straight to the shuffle — that is why CPMM survives
	//      |C| ≫ θt on general matrices but dies when a single input slice
	//      (|A|/K) outgrows θt (Fig. 6(c): N ≥ 500K).
	taskMem := 0.0
	var nodeMem float64
	broadcastB := p.Q == 1 && p.R == 1 && p.P > 1
	broadcastA := p.P == 1 && p.R == 1 && p.Q > 1
	if broadcastA {
		nodeMem += float64(s.ABytes)
	} else {
		taskMem += float64(s.ABytes) / float64(p.P*p.R)
	}
	if broadcastB {
		nodeMem += float64(s.BBytes)
	} else {
		taskMem += float64(s.BBytes) / float64(p.R*p.Q)
	}
	blockBytes := float64(w.blockSize()*w.blockSize()) * 8
	kExtent := (s.K + p.R - 1) / p.R
	switch {
	case kExtent > 1:
		// The task accumulates C' over its k range: resident.
		taskMem += float64(s.CBytes) / float64(p.P*p.Q)
	case p.R == 1 && p.P*p.Q > 1:
		// Final tiles (no aggregation): the local multiply materializes its
		// whole C tile before writing it out — the BMM behavior.
		taskMem += float64(s.CBytes) / float64(p.P*p.Q)
	default:
		// Single-k outer products stream block by block into the shuffle —
		// the CPMM behavior that survives |C| ≫ θt.
		taskMem += blockBytes
	}
	est.MemPerTaskBytes = int64(taskMem)

	// Verdicts first: a failed run has no meaningful time. The node check
	// charges the broadcast once per node plus the working sets of the
	// tasks actually co-resident there (T may be far below the slot count,
	// e.g. BMM's T = I).
	perNode := (p.Tasks() + m.Cfg.Nodes - 1) / m.Cfg.Nodes
	if perNode > m.Cfg.TasksPerNode {
		perNode = m.Cfg.TasksPerNode
	}
	if est.MemPerTaskBytes > m.Cfg.TaskMemBytes ||
		(m.Cfg.NodeMemBytes > 0 && int64(nodeMem+taskMem*float64(perNode)) > m.Cfg.NodeMemBytes) {
		est.Verdict = VerdictOOM
		return est
	}
	spill := (repart + agg) * m.SerializationFactor
	if m.Cfg.DiskCapacityBytes > 0 && spill > float64(m.Cfg.DiskCapacityBytes) {
		est.Verdict = VerdictEDC
		return est
	}

	est.RepartitionSec = repart * m.SerializationFactor / m.netAggregate()
	est.AggregationSec = agg * m.SerializationFactor / m.netAggregate()
	est.LocalSec, est.PCIEBytes = m.localTime(w, s, p, useGPU)
	est.OverheadSec = m.JobOverhead + float64(est.Tasks)*m.TaskOverhead/float64(m.Cfg.Slots())
	if m.Timeout > 0 && est.TotalSec() > m.Timeout.Seconds() {
		est.Verdict = VerdictTO
		return est
	}
	est.Verdict = VerdictOK
	return est
}

// localTime models the local multiplication step, work-conserving: with T
// tasks on S slots the effective parallelism is min(T, S) — fewer tasks
// than slots underutilizes the cluster (the paper's §6.3 observation that
// SystemML's CPMM ran only 40 of 90 possible concurrent tasks), while more
// tasks than slots pipeline through with negligible quantization in Spark's
// fine-grained scheduler. On the GPU path, kernels overlap PCI-E streaming
// so a task takes the max of the two, and the bus traffic follows Eq.(6)
// via the subcuboid optimizer on the average cuboid.
func (m Model) localTime(w Workload, s core.Shape, p core.Params, useGPU bool) (sec float64, pcieBytes int64) {
	tasks := p.Tasks()
	slots := m.Cfg.Slots()
	par := tasks
	if par > slots {
		par = slots
	}
	flopsPerTask := w.Flops() / float64(tasks)

	if !useGPU {
		slotFlops := m.Cfg.CPUFlops / float64(m.Cfg.TasksPerNode) * m.CPUEfficiency
		return w.Flops() / (float64(par) * slotFlops), 0
	}

	// GPU path: subcuboid plan for the average cuboid.
	spec := gpu.TaskSpec(m.Cfg)
	cs, sub, err := gpu.AveragePlan(s, p, spec.MemPerTaskBytes)
	if err != nil {
		// Degenerate: stream at voxel granularity.
		sub = core.SubParams{P2: cs.IB, Q2: cs.JB, R2: cs.KB}
	}
	perTaskPCIE := cs.CostBytes(sub) + float64(cs.CBytes) // H2D per Eq.(6) + D2H of C
	pcieBytes = int64(perTaskPCIE) * int64(tasks)

	kernel := flopsPerTask / (spec.Flops * m.GPUEfficiency)
	bus := perTaskPCIE / spec.PCIEBandwidth
	taskTime := kernel
	if bus > taskTime {
		taskTime = bus
	}
	return taskTime * float64(tasks) / float64(par), pcieBytes
}

// EstimateAuto optimizes (P,Q,R) with the cluster budgets and models the
// result — the DistME path.
func (m Model) EstimateAuto(w Workload, useGPU bool) Estimate {
	s := w.Shape()
	p, err := core.Optimize(s, m.Cfg.TaskMemBytes, m.Cfg.Slots())
	if err != nil {
		return Estimate{Label: "CuboidMM(auto)", Verdict: VerdictOOM}
	}
	est := m.EstimateCuboid(w, p, useGPU)
	est.Label = fmt.Sprintf("CuboidMM%v", p)
	return est
}

// EstimateRMM models RMM with T tasks (0 → I·J): full replication, voxel
// hashing, K·|C| aggregation, and — on the GPU — the degraded block-level
// path with no C residency.
func (m Model) EstimateRMM(w Workload, tasks int, useGPU bool) Estimate {
	s := w.Shape()
	if tasks <= 0 {
		tasks = s.I * s.J
	}
	est := Estimate{Label: "RMM", Tasks: tasks}
	repart := float64(s.J)*float64(s.ABytes) + float64(s.I)*float64(s.BBytes)
	agg := float64(s.K) * float64(s.CBytes)
	est.RepartitionBytes = int64(repart)
	est.AggregationBytes = int64(agg)
	// An RMM task streams its voxels from the shuffle one at a time — the
	// resident set is a single voxel (one A block, one B block, one C
	// block), which is exactly why RMM "can process large-scale matrix
	// multiplication without out of memory error" (§1) at any size.
	blockBytes := float64(w.blockSize()*w.blockSize()) * 8
	est.MemPerTaskBytes = int64(3 * blockBytes)
	if est.MemPerTaskBytes > m.Cfg.TaskMemBytes {
		est.Verdict = VerdictOOM
		return est
	}
	if m.Cfg.DiskCapacityBytes > 0 && (repart+agg)*m.SerializationFactor > float64(m.Cfg.DiskCapacityBytes) {
		est.Verdict = VerdictEDC
		return est
	}
	est.RepartitionSec = repart * m.SerializationFactor / m.netAggregate()
	est.AggregationSec = agg * m.SerializationFactor / m.netAggregate()

	slots := m.Cfg.Slots()
	par := tasks
	if par > slots {
		par = slots
	}
	if useGPU {
		// Block-level GPU: every voxel pays its own copies in and out.
		voxels := float64(s.I) * float64(s.J) * float64(s.K)
		perVoxelPCIE := float64(s.ABytes)/(float64(s.I)*float64(s.K)) +
			float64(s.BBytes)/(float64(s.K)*float64(s.J)) +
			float64(s.CBytes)/(float64(s.I)*float64(s.J))
		est.PCIEBytes = int64(perVoxelPCIE * voxels)
		spec := gpu.TaskSpec(m.Cfg)
		// No overlap in the block-level path: copies then kernel.
		total := w.Flops()/(spec.Flops*m.GPUEfficiency) + perVoxelPCIE*voxels/spec.PCIEBandwidth
		est.LocalSec = total / float64(par)
	} else {
		slotFlops := m.Cfg.CPUFlops / float64(m.Cfg.TasksPerNode) * m.CPUEfficiency
		est.LocalSec = w.Flops() / (float64(par) * slotFlops)
	}
	est.OverheadSec = m.JobOverhead + float64(tasks)*m.TaskOverhead/float64(slots)
	if m.Timeout > 0 && est.TotalSec() > m.Timeout.Seconds() {
		est.Verdict = VerdictTO
		return est
	}
	est.Verdict = VerdictOK
	return est
}

// EstimateBMM models Broadcast MM: (I,1,1).
func (m Model) EstimateBMM(w Workload, useGPU bool) Estimate {
	s := w.Shape()
	est := m.EstimateCuboid(w, s.BMMParams(), useGPU)
	est.Label = "BMM"
	return est
}

// EstimateCPMM models Cross-Product MM: (1,1,K).
func (m Model) EstimateCPMM(w Workload, useGPU bool) Estimate {
	s := w.Shape()
	est := m.EstimateCuboid(w, s.CPMMParams(), useGPU)
	est.Label = "CPMM"
	return est
}

// EstimateSUMMA models ScaLAPACK's PDGEMM on a gridP×gridQ process grid:
// Q·|A| + P·|B| panel broadcasts, no aggregation, single-array local
// memory (|A|+|B|+|C|)/(P·Q) — the §6.5 behavior.
func (m Model) EstimateSUMMA(w Workload, gridP, gridQ int, label string) Estimate {
	s := w.Shape()
	if gridP > s.I {
		gridP = s.I
	}
	if gridQ > s.J {
		gridQ = s.J
	}
	est := Estimate{Label: label, Tasks: gridP * gridQ, Params: core.Params{P: gridP, Q: gridQ, R: 1}}
	repart := float64(gridQ)*float64(s.ABytes) + float64(gridP)*float64(s.BBytes)
	est.RepartitionBytes = int64(repart)
	est.MemPerTaskBytes = (s.ABytes + s.BBytes + s.CBytes) / int64(gridP*gridQ)
	if est.MemPerTaskBytes > m.Cfg.TaskMemBytes {
		est.Verdict = VerdictOOM
		return est
	}
	est.RepartitionSec = repart * m.SerializationFactor / m.netAggregate()
	slots := m.Cfg.Slots()
	waves := (est.Tasks + slots - 1) / slots
	slotFlops := m.Cfg.CPUFlops / float64(m.Cfg.TasksPerNode) * m.CPUEfficiency
	est.LocalSec = float64(waves) * w.Flops() / float64(est.Tasks) / slotFlops
	est.OverheadSec = m.JobOverhead + float64(est.Tasks)*m.TaskOverhead/float64(slots)
	if m.Timeout > 0 && est.TotalSec() > m.Timeout.Seconds() {
		est.Verdict = VerdictTO
		return est
	}
	est.Verdict = VerdictOK
	return est
}

// EstimateSciDB models SciDB's operator: an extra |A|+|B| repartition into
// ScaLAPACK layout, then SUMMA.
func (m Model) EstimateSciDB(w Workload, gridP, gridQ int) Estimate {
	est := m.EstimateSUMMA(w, gridP, gridQ, "SciDB")
	if est.Verdict != VerdictOK {
		return est
	}
	s := w.Shape()
	pre := float64(s.ABytes + s.BBytes)
	est.RepartitionBytes += int64(pre)
	est.RepartitionSec += pre * m.SerializationFactor / m.netAggregate()
	// Array-store staging adds a constant factor.
	est.OverheadSec += m.JobOverhead
	return est
}
