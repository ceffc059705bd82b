package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/matrix"
	"distme/internal/metrics"
)

// testEnv builds a cluster with generous budgets for correctness tests.
func testEnv(t *testing.T) Env {
	t.Helper()
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Env{Cluster: c}
}

// refMul is the single-node reference product.
func refMul(a, b *bmat.BlockMatrix) *matrix.Dense {
	return matrix.Mul(a.ToDense(), b.ToDense()).Dense()
}

func TestMultiplyCuboidMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	a := bmat.RandomDense(rng, 12, 16, 4) // 3×4 blocks
	b := bmat.RandomDense(rng, 16, 8, 4)  // 4×2 blocks
	want := refMul(a, b)
	for _, p := range []Params{
		{1, 1, 1}, {3, 1, 1}, {1, 1, 4}, {3, 2, 4}, {2, 2, 2}, {3, 2, 1},
	} {
		env := testEnv(t)
		got, err := MultiplyCuboid(context.Background(), a, b, p, env)
		if err != nil {
			t.Fatalf("params %v: %v", p, err)
		}
		if !got.ToDense().EqualApprox(want, 1e-9) {
			t.Fatalf("params %v: wrong product", p)
		}
	}
}

// TestGeneralizationEquivalenceProperty is the paper's central claim
// verified end to end: BMM, CPMM, RMM and CuboidMM with any valid (P,Q,R)
// compute the same C, for dense and sparse inputs, including ragged edges.
func TestGeneralizationEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bs := 2 + rng.Intn(3)
		m := 1 + rng.Intn(12)
		k := 1 + rng.Intn(12)
		n := 1 + rng.Intn(12)
		var a, b *bmat.BlockMatrix
		if rng.Intn(2) == 0 {
			a = bmat.RandomDense(rng, m, k, bs)
		} else {
			a = bmat.RandomSparse(rng, m, k, bs, 0.4)
		}
		if rng.Intn(2) == 0 {
			b = bmat.RandomDense(rng, k, n, bs)
		} else {
			b = bmat.RandomSparse(rng, k, n, bs, 0.4)
		}
		want := refMul(a, b)

		check := func(got *bmat.BlockMatrix, err error) bool {
			if err != nil {
				return false
			}
			return got.ToDense().EqualApprox(want, 1e-9)
		}
		if !check(MultiplyCuboid(context.Background(), a, b, ShapeOf(a, b).BMMParams(), testEnv(t))) {
			return false
		}
		if !check(MultiplyCuboid(context.Background(), a, b, ShapeOf(a, b).CPMMParams(), testEnv(t))) {
			return false
		}
		if !check(MultiplyRMM(context.Background(), a, b, 0, testEnv(t))) {
			return false
		}
		s := ShapeOf(a, b)
		p := Params{P: 1 + rng.Intn(s.I), Q: 1 + rng.Intn(s.J), R: 1 + rng.Intn(s.K)}
		return check(MultiplyCuboid(context.Background(), a, b, p, testEnv(t)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCommunicationAccountingMatchesEq4 asserts the measured shuffle volume
// equals the closed-form Cost(P,Q,R) exactly for dense inputs — the engine
// moves precisely what Table 2 says each method moves.
func TestCommunicationAccountingMatchesEq4(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := bmat.RandomDense(rng, 12, 12, 3) // 4×4 blocks
	b := bmat.RandomDense(rng, 12, 12, 3)
	s := ShapeOf(a, b)
	for _, p := range []Params{
		s.BMMParams(), s.CPMMParams(), s.RMMParams(),
		{2, 2, 2}, {4, 1, 2}, {1, 4, 4},
	} {
		env := testEnv(t)
		if _, err := MultiplyCuboid(context.Background(), a, b, p, env); err != nil {
			t.Fatalf("params %v: %v", p, err)
		}
		rec := env.Cluster.Recorder()
		got := float64(rec.CommunicationBytes())
		want := s.CostBytes(p)
		if got != want {
			t.Errorf("params %v: measured %g bytes, Eq.(4) says %g", p, got, want)
		}
	}
}

// TestRMMAccountingMatchesTable2 checks RMM's separate executor against its
// Table 2 row: J·|A| + I·|B| repartition and K·|C| aggregation.
func TestRMMAccountingMatchesTable2(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := bmat.RandomDense(rng, 8, 6, 2)  // I=4, K=3
	b := bmat.RandomDense(rng, 6, 10, 2) // K=3, J=5
	env := testEnv(t)
	if _, err := MultiplyRMM(context.Background(), a, b, 7, env); err != nil {
		t.Fatal(err)
	}
	rec := env.Cluster.Recorder()
	s := ShapeOf(a, b)
	wantRepart := int64(s.J)*a.StoredBytes() + int64(s.I)*b.StoredBytes()
	if got := rec.Bytes(metrics.StepRepartition); got != wantRepart {
		t.Errorf("repartition = %d, want %d", got, wantRepart)
	}
	wantAgg := int64(s.K) * int64(a.Rows) * int64(b.Cols) * 8
	if got := rec.Bytes(metrics.StepAggregation); got != wantAgg {
		t.Errorf("aggregation = %d, want %d (K·|C|)", got, wantAgg)
	}
}

// TestCuboidBeatsRMMCommunication verifies the headline comparison of
// Figure 6: with the same inputs, CuboidMM at the optimizer's choice moves
// far less data than RMM.
func TestCuboidBeatsRMMCommunication(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := bmat.RandomDense(rng, 24, 24, 3)
	b := bmat.RandomDense(rng, 24, 24, 3)
	// A 3-node × 3-slot cluster: the 8×8×8 grid has plenty of headroom over
	// the 9 slots, so the optimizer can exploit coarse cuboids.
	smallEnv := func() Env {
		cfg := cluster.LaptopConfig()
		cfg.Nodes, cfg.TasksPerNode, cfg.LocalWorkers = 3, 3, 4
		cfg.TaskMemBytes = 1 << 30
		cfg.DiskCapacityBytes = 0
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Env{Cluster: c}
	}

	envR := smallEnv()
	if _, err := MultiplyRMM(context.Background(), a, b, 0, envR); err != nil {
		t.Fatal(err)
	}
	rmmBytes := envR.Cluster.Recorder().CommunicationBytes()

	envC := smallEnv()
	if _, _, err := MultiplyAuto(context.Background(), a, b, envC); err != nil {
		t.Fatal(err)
	}
	cuboidBytes := envC.Cluster.Recorder().CommunicationBytes()

	if cuboidBytes*2 >= rmmBytes {
		t.Fatalf("CuboidMM (%d) should move far less than RMM (%d)", cuboidBytes, rmmBytes)
	}
}

func TestMultiplyCuboidOOM(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 2
	cfg.TaskMemBytes = 1 << 10 // 1 KiB: nothing fits
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	_, err = MultiplyCuboid(context.Background(), a, b, Params{1, 1, 1}, Env{Cluster: c})
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestMultiplyCuboidEDC(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 2
	cfg.DiskCapacityBytes = 64 // everything spills past this
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := bmat.RandomDense(rng, 8, 8, 2)
	b := bmat.RandomDense(rng, 8, 8, 2)
	_, err = MultiplyCuboid(context.Background(), a, b, Params{2, 2, 2}, Env{Cluster: c})
	if !errors.Is(err, cluster.ErrExceededDisk) {
		t.Fatalf("err = %v, want ErrExceededDisk", err)
	}
}

func TestMultiplyAutoPicksFeasibleParams(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 6 << 10 // tight: forces real partitioning
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := bmat.RandomDense(rng, 32, 32, 4)
	b := bmat.RandomDense(rng, 32, 32, 4)
	got, params, err := MultiplyAuto(context.Background(), a, b, Env{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	s := ShapeOf(a, b)
	if s.MemBytes(params) > float64(cfg.TaskMemBytes) {
		t.Fatalf("auto params %v violate θt", params)
	}
	if !got.ToDense().EqualApprox(refMul(a, b), 1e-9) {
		t.Fatal("auto multiply wrong product")
	}
}

func TestMultiplyDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := bmat.RandomDense(rng, 4, 6, 2)
	b := bmat.RandomDense(rng, 8, 4, 2)
	if _, err := MultiplyCuboid(context.Background(), a, b, Params{1, 1, 1}, testEnv(t)); err == nil {
		t.Fatal("inner dimension mismatch accepted")
	}
	b2 := bmat.RandomDense(rng, 6, 4, 3)
	if _, err := MultiplyCuboid(context.Background(), a, b2, Params{1, 1, 1}, testEnv(t)); err == nil {
		t.Fatal("block size mismatch accepted")
	}
}

func TestMultiplyCuboidInvalidParams(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := bmat.RandomDense(rng, 4, 4, 2)
	b := bmat.RandomDense(rng, 4, 4, 2)
	for _, p := range []Params{{0, 1, 1}, {3, 1, 1}, {1, 3, 1}, {1, 1, 3}} {
		if _, err := MultiplyCuboid(context.Background(), a, b, p, testEnv(t)); err == nil {
			t.Errorf("params %v accepted for 2x2x2 grid", p)
		}
	}
}

func TestSparseInputsKeepSparseAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	a := bmat.RandomSparse(rng, 40, 40, 4, 0.05)
	b := bmat.RandomDense(rng, 40, 40, 4)
	env := testEnv(t)
	if _, err := MultiplyCuboid(context.Background(), a, b, Params{2, 2, 1}, env); err != nil {
		t.Fatal(err)
	}
	// Repartition charge must reflect the CSR payload, far below dense.
	got := env.Cluster.Recorder().Bytes(metrics.StepRepartition)
	denseWould := int64(2)*a.DenseBytes() + int64(2)*b.DenseBytes()
	if got >= denseWould {
		t.Fatalf("sparse repartition %d not below dense estimate %d", got, denseWould)
	}
	want := int64(2)*a.StoredBytes() + int64(2)*b.StoredBytes()
	if got != want {
		t.Fatalf("sparse repartition %d, want %d", got, want)
	}
}

func TestCuboidShapeAndMemEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	a := bmat.RandomDense(rng, 8, 8, 2)
	b := bmat.RandomDense(rng, 8, 8, 2)
	c := &Cuboid{P: 0, Q: 0, R: 0, ILo: 0, IHi: 2, JLo: 0, JHi: 2, KLo: 0, KHi: 4, A: a, B: b}
	if c.Voxels() != 16 {
		t.Fatalf("Voxels = %d, want 16", c.Voxels())
	}
	sh := c.Shape()
	if sh.IB != 2 || sh.JB != 2 || sh.KB != 4 {
		t.Fatalf("shape grid = %+v", sh)
	}
	// 2×4 A blocks of 2×2 dense = 8 blocks × 32 bytes.
	if sh.ABytes != 8*32 {
		t.Fatalf("ABytes = %d, want 256", sh.ABytes)
	}
	if c.MemEstimateBytes() != sh.ABytes+sh.BBytes+sh.CBytes {
		t.Fatal("mem estimate inconsistent with shape")
	}
}

func TestStepDurationsRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	env := testEnv(t)
	if _, err := MultiplyCuboid(context.Background(), a, b, Params{2, 2, 2}, env); err != nil {
		t.Fatal(err)
	}
	rec := env.Cluster.Recorder()
	if rec.Duration(metrics.StepLocalMultiply) <= 0 {
		t.Fatal("local multiply duration not recorded")
	}
	_, local, _ := rec.StepRatios()
	if local <= 0 {
		t.Fatal("step ratios empty")
	}
}

func TestFlopsEstimateSparseVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	aDense := bmat.RandomDense(rng, 8, 8, 2)
	aSparse := bmat.RandomSparse(rng, 8, 8, 2, 0.1)
	b := bmat.RandomDense(rng, 8, 8, 2)
	cd := &Cuboid{ILo: 0, IHi: 4, JLo: 0, JHi: 4, KLo: 0, KHi: 4, A: aDense, B: b}
	cs := &Cuboid{ILo: 0, IHi: 4, JLo: 0, JHi: 4, KLo: 0, KHi: 4, A: aSparse, B: b}
	if cd.FlopsEstimate() <= cs.FlopsEstimate() {
		t.Fatalf("dense cuboid (%g) should predict more work than 10%%-sparse (%g)",
			cd.FlopsEstimate(), cs.FlopsEstimate())
	}
	// Dense estimate is exactly 2·(A elements in range)·(B columns in range).
	want := 2.0 * float64(4*4*2*2) * float64(4*2)
	if got := cd.FlopsEstimate(); got != want {
		t.Fatalf("dense FlopsEstimate = %g, want %g", got, want)
	}
}

func TestSortCuboidsByWorkLPT(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// A with wildly skewed density: left half dense, right half nearly empty.
	a := bmat.New(8, 16, 2)
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			a.SetBlock(i, k, matrix.RandomDense(rng, 2, 2))
		}
	}
	a.SetBlock(0, 7, matrix.NewCSRFromDense(matrix.NewDense(2, 2))) // empty tail
	b := bmat.RandomDense(rng, 16, 8, 2)
	var cuboids []*Cuboid
	for r := 0; r < 4; r++ {
		cuboids = append(cuboids, &Cuboid{
			R: r, ILo: 0, IHi: 4, JLo: 0, JHi: 4, KLo: 2 * r, KHi: 2 * (r + 1),
			A: a, B: b,
		})
	}
	sortCuboidsByWork(cuboids)
	for i := 1; i < len(cuboids); i++ {
		if cuboids[i-1].FlopsEstimate() < cuboids[i].FlopsEstimate() {
			t.Fatal("cuboids not in descending work order")
		}
	}
}

func TestBalanceBySparsityPreservesResult(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	a := bmat.RandomSparse(rng, 24, 24, 4, 0.3)
	b := bmat.RandomDense(rng, 24, 24, 4)
	want := refMul(a, b)
	env := testEnv(t)
	env.BalanceBySparsity = true
	got, err := MultiplyCuboid(context.Background(), a, b, Params{2, 3, 2}, env)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("balanced scheduling changed the product")
	}
}

// TestBalanceBySparsityBitIdentical: LPT permutes the order tasks are handed
// to the cluster, never the order the fold adds their partials in, so the
// balanced product is the unbalanced one to the bit.
func TestBalanceBySparsityBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(540 + seed))
		a := bmat.RandomSparse(rng, 24, 36, 4, 0.3)
		b := bmat.RandomDense(rng, 36, 24, 4)
		params := Params{2, 3, 3}
		plain, err := MultiplyCuboid(context.Background(), a, b, params, testEnv(t))
		if err != nil {
			t.Fatal(err)
		}
		env := testEnv(t)
		env.BalanceBySparsity = true
		balanced, err := MultiplyCuboid(context.Background(), a, b, params, env)
		if err != nil {
			t.Fatal(err)
		}
		matricesBitIdentical(t, plain, balanced)
	}
}

func TestMultiplySurvivesInjectedTaskLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	cfg.TaskRetries = 2
	// Every task's first attempt is lost — the lineage re-run must recover
	// the whole multiplication with an identical product.
	cfg.Faults = cluster.Faults{CrashRate: 1, MaxFaultsPerTask: 1}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	got, err := MultiplyCuboid(context.Background(), a, b, Params{2, 2, 2}, Env{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().EqualApprox(refMul(a, b), 1e-9) {
		t.Fatal("recovered multiply wrong")
	}
}

func TestShapeOfEstimatedSparseProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	a := bmat.RandomSparse(rng, 200, 200, 20, 0.005)
	b := bmat.RandomSparse(rng, 200, 200, 20, 0.005)
	worst := ShapeOf(a, b)
	est := ShapeOfEstimated(a, b)
	if est.CBytes >= worst.CBytes {
		t.Fatalf("estimated |C| (%d) should undercut dense worst case (%d) at 0.5%% density",
			est.CBytes, worst.CBytes)
	}
	// The estimate must still dominate the actual product's stored size.
	env := testEnv(t)
	c, err := MultiplyCuboid(context.Background(), a, b, ShapeOf(a, b).CPMMParams(), env)
	if err != nil {
		t.Fatal(err)
	}
	// C blocks are dense accumulators; compare against the nnz payload.
	actualNNZ := c.NNZ() * 16
	if est.CBytes < actualNNZ/4 {
		t.Fatalf("estimate %d is wildly below the actual nnz payload %d", est.CBytes, actualNNZ)
	}
}

func TestShapeOfEstimatedDenseUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	if got, want := ShapeOfEstimated(a, b).CBytes, ShapeOf(a, b).CBytes; got != want {
		t.Fatalf("dense inputs must keep the dense estimate: %d vs %d", got, want)
	}
}

func TestPow1mStability(t *testing.T) {
	if pow1m(0, 100) != 1 || pow1m(1, 100) != 0 {
		t.Fatal("pow1m boundaries wrong")
	}
	// (1-1e-6)^1e6 ≈ 1/e.
	got := pow1m(1e-6, 1_000_000)
	if got < 0.36 || got > 0.37 {
		t.Fatalf("pow1m(1e-6, 1e6) = %g, want ≈0.3679", got)
	}
}

func TestSparseProductOutputCompacted(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	// Very sparse inputs: the product is sparse, so output blocks should
	// come back in CSR form (output-format selection).
	a := bmat.RandomSparse(rng, 200, 200, 25, 0.002)
	b := bmat.RandomSparse(rng, 200, 200, 25, 0.002)
	env := testEnv(t)
	c, err := MultiplyCuboid(context.Background(), a, b, Params{2, 2, 2}, env)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumBlocks() > 0 && !c.IsSparse() {
		t.Fatal("sparse product kept dense output blocks")
	}
	// And the values must still be right.
	if !c.ToDense().EqualApprox(refMul(a, b), 1e-9) {
		t.Fatal("compacted output wrong")
	}
}

func TestDenseProductOutputStaysDense(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	env := testEnv(t)
	c, err := MultiplyCuboid(context.Background(), a, b, Params{2, 2, 1}, env)
	if err != nil {
		t.Fatal(err)
	}
	if c.IsSparse() {
		t.Fatal("dense product converted to sparse")
	}
}

func TestVoxelTaskDeterministic(t *testing.T) {
	v := bmat.VoxelKey{I: 3, J: 1, K: 2}
	if voxelTask(v, 5) != voxelTask(v, 5) {
		t.Fatal("voxel hash not deterministic")
	}
}

func TestVoxelTaskRangeAndSpread(t *testing.T) {
	counts := make([]int, 7)
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			d := voxelTask(bmat.VoxelKey{I: i, J: j, K: (i + j) % 5}, 7)
			if d < 0 || d >= 7 {
				t.Fatalf("task %d out of range", d)
			}
			counts[d]++
		}
	}
	for i, c := range counts {
		if c < 1600/7/2 || c > 1600/7*2 {
			t.Fatalf("voxel task %d badly balanced: %d of 1600", i, c)
		}
	}
}
