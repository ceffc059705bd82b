package costmodel

import (
	"testing"

	"distme/internal/core"
)

// paperModel is the Spark-system model at testbed constants.
func paperModel() Model { return NewPaperModel() }

func generalW(n int64) Workload {
	return Workload{M: n, K: n, N: n, BlockSize: 1000}
}

func commonDimW(n int64) Workload {
	return Workload{M: 10000, K: n, N: 10000, BlockSize: 1000}
}

func twoLargeW(n int64) Workload {
	return Workload{M: n, K: 1000, N: n, BlockSize: 1000}
}

func TestWorkloadShape(t *testing.T) {
	w := Workload{M: 70000, K: 70000, N: 70000, BlockSize: 1000}
	s := w.Shape()
	if s.I != 70 || s.J != 70 || s.K != 70 {
		t.Fatalf("grid = %d,%d,%d, want 70³", s.I, s.J, s.K)
	}
	if s.ABytes != 70000*70000*8 {
		t.Fatalf("ABytes = %d", s.ABytes)
	}
}

func TestWorkloadShapeSparse(t *testing.T) {
	w := Workload{M: 1000, K: 1000, N: 1000, BlockSize: 100, SparsityA: 0.01}
	s := w.Shape()
	if s.ABytes != 1000*1000/100*16 {
		t.Fatalf("sparse ABytes = %d, want 16 B/nnz", s.ABytes)
	}
	if s.BBytes != 1000*1000*8 {
		t.Fatalf("dense BBytes = %d", s.BBytes)
	}
}

func TestWorkloadFlops(t *testing.T) {
	dense := Workload{M: 10, K: 10, N: 10}
	if dense.Flops() != 2000 {
		t.Fatalf("dense flops = %g", dense.Flops())
	}
	// Half-dense data stays in dense blocks → full GEMM work.
	half := Workload{M: 10, K: 10, N: 10, SparsityA: 0.5}
	if half.Flops() != 2000 {
		t.Fatalf("half-dense flops = %g", half.Flops())
	}
	// Truly sparse A runs csrmm: work scales with nnz.
	sparse := Workload{M: 10, K: 10, N: 10, SparsityA: 0.01}
	if sparse.Flops() != 20 {
		t.Fatalf("sparse flops = %g", sparse.Flops())
	}
}

// TestFig6aVerdicts locks the Figure 6(a) pattern: BMM out-of-memories past
// N = 80K (|B| outgrows node RAM), CPMM and CuboidMM run everywhere, RMM is
// always the slowest of the runnable methods, CuboidMM always the fastest.
func TestFig6aVerdicts(t *testing.T) {
	m := paperModel()
	for _, n := range []int64{70000, 80000} {
		if v := m.EstimateBMM(generalW(n), true).Verdict; v != VerdictOK {
			t.Errorf("BMM at %d: %v, want ok", n, v)
		}
	}
	for _, n := range []int64{90000, 100000} {
		if v := m.EstimateBMM(generalW(n), true).Verdict; v != VerdictOOM {
			t.Errorf("BMM at %d: %v, want O.O.M.", n, v)
		}
	}
	for _, n := range []int64{70000, 80000, 90000, 100000} {
		w := generalW(n)
		cpmm := m.EstimateCPMM(w, true)
		cub := m.EstimateAuto(w, true)
		rmm := m.EstimateRMM(w, 0, true)
		if cpmm.Verdict != VerdictOK {
			t.Errorf("CPMM at %d: %v", n, cpmm.Verdict)
		}
		if cub.Verdict != VerdictOK {
			t.Errorf("CuboidMM at %d: %v", n, cub.Verdict)
		}
		if rmm.Verdict == VerdictOOM {
			t.Errorf("RMM must never O.O.M. (it streams voxels), got O.O.M. at %d", n)
		}
		if cub.TotalSec() >= cpmm.TotalSec() {
			t.Errorf("at %d CuboidMM (%.0fs) should beat CPMM (%.0fs)", n, cub.TotalSec(), cpmm.TotalSec())
		}
		if rmm.Verdict == VerdictOK && rmm.TotalSec() <= cpmm.TotalSec() {
			t.Errorf("at %d RMM (%.0fs) should trail CPMM (%.0fs)", n, rmm.TotalSec(), cpmm.TotalSec())
		}
		if cub.CommunicationBytes() >= cpmm.CommunicationBytes() {
			t.Errorf("at %d CuboidMM comm should be lowest", n)
		}
	}
}

// TestFig6bVerdicts locks Figure 6(b): BMM dies past N = 500K, the
// optimizer flattens to (1,1,R) — CPMM-like but with far fewer aggregations
// — and CuboidMM wins everywhere.
func TestFig6bVerdicts(t *testing.T) {
	m := paperModel()
	if v := m.EstimateBMM(commonDimW(500000), true).Verdict; v != VerdictOK {
		t.Errorf("BMM at 500K: %v, want ok", v)
	}
	for _, n := range []int64{1000000, 5000000} {
		if v := m.EstimateBMM(commonDimW(n), true).Verdict; v != VerdictOOM {
			t.Errorf("BMM at %d: %v, want O.O.M.", n, v)
		}
	}
	for _, n := range []int64{100000, 500000, 1000000, 5000000} {
		w := commonDimW(n)
		cub := m.EstimateAuto(w, true)
		cpmm := m.EstimateCPMM(w, true)
		if cub.Verdict != VerdictOK || cpmm.Verdict != VerdictOK {
			t.Fatalf("at %d: cub=%v cpmm=%v", n, cub.Verdict, cpmm.Verdict)
		}
		if n >= 500000 && (cub.Params.P != 1 || cub.Params.Q != 1) {
			t.Errorf("at %d optimizer should flatten to (1,1,R): %v", n, cub.Params)
		}
		if cub.Params.R >= w.Shape().K {
			t.Errorf("at %d R (%d) should be far below K (%d)", n, cub.Params.R, w.Shape().K)
		}
		if cub.TotalSec() >= cpmm.TotalSec() {
			t.Errorf("at %d CuboidMM should beat CPMM", n)
		}
		if cub.CommunicationBytes() >= cpmm.CommunicationBytes() {
			t.Errorf("at %d CuboidMM comm should undercut CPMM", n)
		}
	}
}

// TestFig6cVerdicts locks Figure 6(c): CPMM out-of-memories from 500K
// (input slices outgrow θt), BMM from 750K (its C tile materializes), and
// only CuboidMM survives 750K among the memory-bound methods, with R = 1.
func TestFig6cVerdicts(t *testing.T) {
	m := paperModel()
	if v := m.EstimateCPMM(twoLargeW(250000), true).Verdict; v == VerdictOOM {
		t.Error("CPMM at 250K should not O.O.M.")
	}
	for _, n := range []int64{500000, 750000} {
		if v := m.EstimateCPMM(twoLargeW(n), true).Verdict; v != VerdictOOM {
			t.Errorf("CPMM at %d: %v, want O.O.M.", n, v)
		}
	}
	if v := m.EstimateBMM(twoLargeW(500000), true).Verdict; v != VerdictOK {
		t.Errorf("BMM at 500K: %v, want ok", v)
	}
	if v := m.EstimateBMM(twoLargeW(750000), true).Verdict; v != VerdictOOM {
		t.Errorf("BMM at 750K: %v, want O.O.M.", v)
	}
	for _, n := range []int64{100000, 250000, 500000, 750000} {
		cub := m.EstimateAuto(twoLargeW(n), true)
		if cub.Verdict != VerdictOK {
			t.Errorf("CuboidMM at %d: %v", n, cub.Verdict)
		}
		if cub.Params.R != 1 {
			t.Errorf("at %d optimizer should pick R=1: %v", n, cub.Params)
		}
	}
}

// TestTable4Parameters reproduces the two Table 4 rows our decimal-GB
// budgets pin down exactly: 500K and 750K of the N×1K×N family.
func TestTable4Parameters(t *testing.T) {
	m := paperModel()
	cases := map[int64]core.Params{
		500000: {P: 17, Q: 24, R: 1},
		750000: {P: 26, Q: 35, R: 1},
	}
	for n, want := range cases {
		got := m.EstimateAuto(twoLargeW(n), false).Params
		s := twoLargeW(n).Shape()
		// Exact tie-breaking differs from the paper's unspecified search
		// order, so assert the strong structural facts instead: R = 1, the
		// memory budget holds, and our choice is no worse than the paper's
		// published parameters under the paper's own objective Eq.(4).
		if got.R != 1 {
			t.Errorf("N=%d: params %v, want R=1 like paper's %v", n, got, want)
		}
		if s.MemBytes(got) > float64(m.Cfg.TaskMemBytes) {
			t.Errorf("N=%d: params %v violate θt", n, got)
		}
		if s.CostBytes(got) > s.CostBytes(want) {
			t.Errorf("N=%d: our %v costs %g, worse than paper's %v at %g",
				n, got, s.CostBytes(got), want, s.CostBytes(want))
		}
	}
}

// TestTable5Pattern locks §6.5: ScaLAPACK wins the small general case, loses
// the common-large-dimension cases, and both HPC systems O.O.M. on the
// output-heavy 500K case that DistME(C) finishes.
func TestTable5Pattern(t *testing.T) {
	spark := paperModel()
	mpi := NewMPIModel()

	small := Workload{M: 10000, K: 10000, N: 10000, BlockSize: 1000}
	scal := mpi.EstimateSUMMA(small, 9, 10, "ScaLAPACK")
	distme := spark.EstimateAuto(small, false)
	if scal.Verdict != VerdictOK || distme.Verdict != VerdictOK {
		t.Fatalf("small case failed: %v / %v", scal.Verdict, distme.Verdict)
	}
	if scal.TotalSec() >= distme.TotalSec() {
		t.Errorf("small case: ScaLAPACK (%.0fs) should beat DistME (%.0fs) on overhead",
			scal.TotalSec(), distme.TotalSec())
	}

	big := Workload{M: 5000, K: 1000000, N: 5000, BlockSize: 1000}
	scal2 := mpi.EstimateSUMMA(big, 9, 10, "ScaLAPACK")
	distme2 := spark.EstimateAuto(big, false)
	if distme2.TotalSec() >= scal2.TotalSec() {
		t.Errorf("common-dim case: DistME (%.0fs) should beat ScaLAPACK (%.0fs)",
			distme2.TotalSec(), scal2.TotalSec())
	}
	// The paper reports ≈3×; require at least 2×.
	if distme2.TotalSec()*2 > scal2.TotalSec() {
		t.Errorf("common-dim speedup below 2x: %.0fs vs %.0fs", distme2.TotalSec(), scal2.TotalSec())
	}

	heavy := Workload{M: 500000, K: 1000, N: 500000, BlockSize: 1000}
	if v := mpi.EstimateSUMMA(heavy, 9, 10, "ScaLAPACK").Verdict; v != VerdictOOM {
		t.Errorf("ScaLAPACK on 500K×1K×500K: %v, want O.O.M.", v)
	}
	if v := mpi.EstimateSciDB(heavy, 9, 10).Verdict; v != VerdictOOM {
		t.Errorf("SciDB on 500K×1K×500K: %v, want O.O.M.", v)
	}
	if v := spark.EstimateAuto(heavy, false).Verdict; v != VerdictOK {
		t.Errorf("DistME on 500K×1K×500K: %v, want ok", v)
	}
}

// TestGPUSpeedsUpLocalStep verifies the (C) vs (G) relationship of Figure 7:
// same communication, faster local multiplication.
func TestGPUSpeedsUpLocalStep(t *testing.T) {
	m := paperModel()
	w := generalW(40000)
	cpu := m.EstimateAuto(w, false)
	gpuE := m.EstimateAuto(w, true)
	if cpu.Verdict != VerdictOK || gpuE.Verdict != VerdictOK {
		t.Fatal("40K case should run")
	}
	if gpuE.LocalSec >= cpu.LocalSec {
		t.Errorf("GPU local (%.0fs) should beat CPU local (%.0fs)", gpuE.LocalSec, cpu.LocalSec)
	}
	if gpuE.CommunicationBytes() != cpu.CommunicationBytes() {
		t.Error("GPU must not change network traffic")
	}
	if gpuE.PCIEBytes == 0 {
		t.Error("GPU path should report PCI-E traffic")
	}
}

// TestRMMGPUBlockLevelPenalty verifies that RMM's degraded block-level GPU
// path moves more PCI-E data per useful flop than the cuboid streaming path.
func TestRMMGPUBlockLevelPenalty(t *testing.T) {
	m := paperModel()
	w := generalW(40000)
	rmm := m.EstimateRMM(w, 0, true)
	cub := m.EstimateAuto(w, true)
	if rmm.Verdict != VerdictOK || cub.Verdict != VerdictOK {
		t.Skip("case not runnable")
	}
	if rmm.PCIEBytes <= cub.PCIEBytes {
		t.Errorf("RMM PCI-E (%d) should exceed CuboidMM's (%d)", rmm.PCIEBytes, cub.PCIEBytes)
	}
}

// TestEDCOnTwoLargeDimsAtScale reproduces Figure 7(c)'s E.D.C.: RMM's K·|C|
// aggregation on N×1K×1M exceeds the 36 TB disk for N ≥ 1.5M.
func TestEDCOnTwoLargeDimsAtScale(t *testing.T) {
	m := paperModel()
	m.Timeout = 0 // §6.3 runs had no 4000 s cap (Fig 7(c)'s axis is minutes)
	ok := Workload{M: 1000000, K: 1000, N: 1000000, BlockSize: 1000}
	if v := m.EstimateRMM(ok, 0, false).Verdict; v != VerdictOK {
		t.Errorf("RMM at 1M×1K×1M: %v, want ok", v)
	}
	for _, n := range []int64{1500000, 2000000} {
		w := Workload{M: n, K: 1000, N: 1000000, BlockSize: 1000}
		if v := m.EstimateRMM(w, 0, false).Verdict; v != VerdictEDC {
			t.Errorf("RMM at %d×1K×1M: %v, want E.D.C.", n, v)
		}
	}
}

func TestEstimateHelpers(t *testing.T) {
	e := Estimate{RepartitionSec: 1, LocalSec: 2, AggregationSec: 1, OverheadSec: 1}
	if e.TotalSec() != 5 {
		t.Fatalf("TotalSec = %g", e.TotalSec())
	}
	r, l, a := e.StepRatios()
	if r != 0.25 || l != 0.5 || a != 0.25 {
		t.Fatalf("ratios = %g %g %g", r, l, a)
	}
	if (Estimate{}).StepRatios(); false {
		t.Fatal("unreachable")
	}
	if (Estimate{Label: "x", Verdict: VerdictOOM}).String() != "x: O.O.M." {
		t.Fatal("failed estimate should render verdict")
	}
	okEst := Estimate{Label: "y", Verdict: VerdictOK, LocalSec: 1}
	if okEst.String() == "" {
		t.Fatal("estimate should render")
	}
}

func TestMultiGPUScalesLocalOnly(t *testing.T) {
	w := generalW(40000)
	m1 := paperModel()
	m4 := paperModel()
	m4.Cfg.GPUsPerNode = 4
	e1 := m1.EstimateAuto(w, true)
	e4 := m4.EstimateAuto(w, true)
	if e1.Verdict != VerdictOK || e4.Verdict != VerdictOK {
		t.Fatal("40K case should run")
	}
	if e4.LocalSec >= e1.LocalSec {
		t.Fatalf("4 GPUs local %.0fs not below 1 GPU %.0fs", e4.LocalSec, e1.LocalSec)
	}
	if e4.RepartitionSec != e1.RepartitionSec || e4.AggregationSec != e1.AggregationSec {
		t.Fatal("device count must not change network time")
	}
}

func TestMPIModelCheaperOverheads(t *testing.T) {
	spark := NewPaperModel()
	mpi := NewMPIModel()
	if mpi.JobOverhead >= spark.JobOverhead {
		t.Fatal("MPI job overhead should undercut Spark's")
	}
	if mpi.SerializationFactor != 1.0 {
		t.Fatal("MPI model should not pay serialization framing")
	}
}

func TestEstimateSUMMAGridClamp(t *testing.T) {
	m := NewMPIModel()
	// A 2-block-wide matrix cannot host a 10-wide grid; the estimate must
	// clamp rather than divide by zero.
	w := Workload{M: 2000, K: 2000, N: 2000, BlockSize: 1000}
	est := m.EstimateSUMMA(w, 9, 10, "ScaLAPACK")
	if est.Verdict != VerdictOK {
		t.Fatalf("clamped SUMMA failed: %v", est.Verdict)
	}
	if est.Params.P > 2 || est.Params.Q > 2 {
		t.Fatalf("grid not clamped: %v", est.Params)
	}
}

func TestEstimateCPMMZeroAggWhenKOne(t *testing.T) {
	m := paperModel()
	w := Workload{M: 5000, K: 1000, N: 5000, BlockSize: 1000} // K = 1 block
	est := m.EstimateCPMM(w, false)
	if est.AggregationBytes != 0 {
		t.Fatalf("K=1 CPMM should have no aggregation, got %d", est.AggregationBytes)
	}
}

// TestUnsetBlockSizeIsDefault: BlockSize 0 means 1000 everywhere a block is
// sized — the grid, CPMM's streamed block and RMM's three-block resident
// set — so both give equal estimates, O.O.M. verdicts included.
func TestUnsetBlockSizeIsDefault(t *testing.T) {
	tight := paperModel()
	tight.Cfg.TaskMemBytes = 16e6 // under RMM's three 8 MB blocks
	for _, tc := range []struct {
		name string
		m    Model
		w    Workload
	}{
		{"general", paperModel(), generalW(40000)},
		{"two large dims", paperModel(), twoLargeW(200000)},
		{"tight θt", tight, generalW(20000)},
	} {
		unset := tc.w
		unset.BlockSize = 0
		for method, est := range map[string]func(Model, Workload) Estimate{
			"BMM":  func(m Model, w Workload) Estimate { return m.EstimateBMM(w, false) },
			"CPMM": func(m Model, w Workload) Estimate { return m.EstimateCPMM(w, false) },
			"RMM":  func(m Model, w Workload) Estimate { return m.EstimateRMM(w, 0, false) },
			"auto": func(m Model, w Workload) Estimate { return m.EstimateAuto(w, false) },
		} {
			if got, want := est(tc.m, unset), est(tc.m, tc.w); got != want {
				t.Errorf("%s %s: BlockSize 0 gives %#v, 1000 gives %#v", tc.name, method, got, want)
			}
		}
	}
	if v := tight.EstimateRMM(Workload{M: 20000, K: 20000, N: 20000}, 0, false).Verdict; v != VerdictOOM {
		t.Errorf("RMM under a 16 MB θt with BlockSize 0: %v, want O.O.M.", v)
	}
}
