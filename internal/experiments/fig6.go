package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/costmodel"
	"distme/internal/workload"
)

// fig6Sizes lists the swept N per family, as in Figure 6.
func fig6Sizes(f workload.Family) (sizes []int64, fixed int64) {
	switch f {
	case workload.General:
		return []int64{70_000, 80_000, 90_000, 100_000}, 0
	case workload.CommonLargeDim:
		return []int64{100_000, 500_000, 1_000_000, 5_000_000}, 10_000
	case workload.TwoLargeDims:
		return []int64{100_000, 250_000, 500_000, 750_000}, 1_000
	default:
		panic("experiments: unknown family")
	}
}

func fig6Workload(f workload.Family, n, fixed int64) costmodel.Workload {
	i, k, j := f.Dims(int(n), int(fixed))
	return costmodel.Workload{M: int64(i), K: int64(k), N: int64(j), BlockSize: 1000}
}

// Fig6Elapsed regenerates Figures 6(a–c): modeled elapsed times of BMM,
// CPMM, RMM and CuboidMM at paper scale, GPU-accelerated as §6.2 runs them
// (all four methods executed on DistME; RMM restricted to block-level GPU).
func Fig6Elapsed(f workload.Family) *Table {
	id := map[workload.Family]string{
		workload.General: "fig6a", workload.CommonLargeDim: "fig6b", workload.TwoLargeDims: "fig6c",
	}[f]
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("%s (elapsed time, modeled at paper scale)", f),
		Columns: []string{"N", "RMM", "CPMM", "BMM", "CuboidMM", "(P*,Q*,R*)"},
	}
	m := costmodel.NewPaperModel()
	sizes, fixed := fig6Sizes(f)
	for _, n := range sizes {
		w := fig6Workload(f, n, fixed)
		rmm := m.EstimateRMM(w, 0, true)
		cpmm := m.EstimateCPMM(w, true)
		bmm := m.EstimateBMM(w, true)
		cub := m.EstimateAuto(w, true)
		t.AddRow(fmtN(n),
			estCell(rmm), estCell(cpmm), estCell(bmm), estCell(cub), cub.Params.String())
	}
	t.Notes = append(t.Notes,
		"absolute seconds are model outputs at the testbed constants; the paper-matching shape is the ordering, the gaps, and the O.O.M./T.O. boundaries")
	return t
}

// Fig6Comm regenerates Figures 6(d–f): the communication cost (MB) of the
// four methods, from the Table 2 formulas the engine's shuffles implement
// byte-for-byte.
func Fig6Comm(f workload.Family) *Table {
	id := map[workload.Family]string{
		workload.General: "fig6d", workload.CommonLargeDim: "fig6e", workload.TwoLargeDims: "fig6f",
	}[f]
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("%s (communication cost, MB)", f),
		Columns: []string{"N", "RMM", "CPMM", "BMM", "CuboidMM"},
	}
	m := costmodel.NewPaperModel()
	sizes, fixed := fig6Sizes(f)
	for _, n := range sizes {
		w := fig6Workload(f, n, fixed)
		rmm := m.EstimateRMM(w, 0, true)
		cpmm := m.EstimateCPMM(w, true)
		bmm := m.EstimateBMM(w, true)
		cub := m.EstimateAuto(w, true)
		t.AddRow(fmtN(n),
			commCell(rmm), commCell(cpmm), commCell(bmm), commCell(cub))
	}
	return t
}

// Fig6Measured runs the four methods for real at laptop scale on the given
// family and reports measured shuffle bytes (exact, equal to Eq.(4)) and
// wall-clock times. It is the measured-plane counterpart of Fig6Elapsed.
func Fig6Measured(f workload.Family, seed int64) (*Table, error) {
	t := &Table{
		ID:      "fig6-measured",
		Title:   fmt.Sprintf("%s (measured at laptop scale)", f),
		Columns: []string{"N(blocks)", "method", "comm bytes", "elapsed", "result"},
	}
	const bs = 16
	var n, fixed int
	switch f {
	case workload.General:
		n, fixed = 10*bs, 0
	case workload.CommonLargeDim:
		n, fixed = 40*bs, 3*bs
	case workload.TwoLargeDims:
		n, fixed = 20*bs, 2*bs
	}
	rng := rand.New(rand.NewSource(seed))
	a, b := workload.SyntheticPair(rng, f, n, fixed, bs, 1.0)

	newEnv := func() core.Env {
		cfg := cluster.LaptopConfig()
		cfg.LocalWorkers = runtime.GOMAXPROCS(0)
		cfg.TaskMemBytes = 1 << 30
		cfg.DiskCapacityBytes = 0
		c, err := cluster.New(cfg)
		if err != nil {
			panic(err)
		}
		return core.Env{Cluster: c}
	}

	type method struct {
		name string
		run  func(env core.Env) (*bmat.BlockMatrix, core.Params, error)
	}
	// BMM and CPMM are CuboidMM at (I,1,1) and (1,1,K) (Table 2), so they
	// run through the same entry point with those parameters.
	ctx := context.Background()
	shape := core.ShapeOf(a, b)
	cuboidAt := func(p core.Params) func(core.Env) (*bmat.BlockMatrix, core.Params, error) {
		return func(env core.Env) (*bmat.BlockMatrix, core.Params, error) {
			c, err := core.MultiplyCuboid(ctx, a, b, p, env)
			return c, p, err
		}
	}
	methods := []method{
		{"RMM", func(env core.Env) (*bmat.BlockMatrix, core.Params, error) {
			c, err := core.MultiplyRMM(ctx, a, b, 0, env)
			return c, shape.RMMParams(), err
		}},
		{"CPMM", cuboidAt(shape.CPMMParams())},
		{"BMM", cuboidAt(shape.BMMParams())},
		{"CuboidMM", func(env core.Env) (*bmat.BlockMatrix, core.Params, error) {
			return core.MultiplyAuto(ctx, a, b, env)
		}},
	}
	var ref *bmat.BlockMatrix
	for _, mth := range methods {
		env := newEnv()
		start := time.Now()
		c, params, err := mth.run(env)
		elapsed := time.Since(start)
		if err != nil {
			t.AddRow(fmt.Sprintf("%dx%d", a.IB, b.JB), mth.name, "-", "-", err.Error())
			continue
		}
		verdict := fmt.Sprintf("ok %v", params)
		if ref == nil {
			ref = c
		} else if !bmat.EqualApprox(ref, c, 1e-9) {
			verdict = "MISMATCH"
		}
		t.AddRow(fmt.Sprintf("%dx%d", a.IB, b.JB), mth.name,
			fmt.Sprintf("%d", env.Cluster.Recorder().CommunicationBytes()),
			elapsed.Round(time.Millisecond).String(), verdict)
	}
	return t, nil
}

func fmtN(n int64) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func estCell(e costmodel.Estimate) string {
	return secOrVerdict(e.Verdict == costmodel.VerdictOK, string(e.Verdict), e.TotalSec())
}

func commCell(e costmodel.Estimate) string {
	if e.Verdict == costmodel.VerdictOOM {
		return string(e.Verdict)
	}
	return mb(e.CommunicationBytes())
}
