package baselines

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/metrics"
)

func testEnv(t *testing.T, taskMem int64) core.Env {
	t.Helper()
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = taskMem
	cfg.DiskCapacityBytes = 0
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return core.Env{Cluster: c}
}

func TestSUMMAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	a := bmat.RandomDense(rng, 18, 12, 3)
	b := bmat.RandomDense(rng, 12, 24, 3)
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	for _, grid := range [][2]int{{1, 1}, {2, 2}, {3, 4}, {6, 8}} {
		got, err := MultiplySUMMA(context.Background(), a, b, grid[0], grid[1], testEnv(t, 1<<30))
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		if !got.ToDense().EqualApprox(want, 1e-9) {
			t.Fatalf("grid %v: wrong product", grid)
		}
	}
}

func TestSUMMAProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bs := 2 + rng.Intn(3)
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := bmat.RandomDense(rng, m, k, bs)
		b := bmat.RandomDense(rng, k, n, bs)
		gp, gq := 1+rng.Intn(4), 1+rng.Intn(4)
		got, err := MultiplySUMMA(context.Background(), a, b, gp, gq, testEnv(t, 1<<30))
		if err != nil {
			return false
		}
		want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
		return got.ToDense().EqualApprox(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSUMMACommunicationAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	a := bmat.RandomDense(rng, 12, 12, 3)
	b := bmat.RandomDense(rng, 12, 12, 3)
	env := testEnv(t, 1<<30)
	if _, err := MultiplySUMMA(context.Background(), a, b, 2, 3, env); err != nil {
		t.Fatal(err)
	}
	rec := env.Cluster.Recorder()
	want := int64(3)*a.StoredBytes() + int64(2)*b.StoredBytes()
	if got := rec.Bytes(metrics.StepRepartition); got != want {
		t.Fatalf("SUMMA repartition = %d, want Q·|A|+P·|B| = %d", got, want)
	}
	if rec.Bytes(metrics.StepAggregation) != 0 {
		t.Fatal("SUMMA must have no aggregation shuffle (C stays in place)")
	}
}

// TestSUMMAOOMOnOutputHeavyShape reproduces Table 5's bottom row: the
// single-array local C kills ScaLAPACK on N×1K×N while CuboidMM survives.
func TestSUMMAOOMOnOutputHeavyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	a := bmat.RandomDense(rng, 64, 2, 2)
	b := bmat.RandomDense(rng, 2, 64, 2)
	// |C| = 64·64·8 = 32 KiB over 4 processes → 8 KiB each; budget 6 KiB.
	env := testEnv(t, 6<<10)
	_, err := MultiplySUMMA(context.Background(), a, b, 2, 2, env)
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}

	// CuboidMM on the same budget survives by raising P·Q.
	env2 := testEnv(t, 6<<10)
	got, params, err := core.MultiplyAuto(context.Background(), a, b, env2)
	if err != nil {
		t.Fatalf("CuboidMM failed where it should survive: %v", err)
	}
	if params.R != 1 {
		t.Fatalf("optimizer picked %v; expected R=1 for two large dimensions", params)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("CuboidMM product wrong")
	}
}

func TestSUMMAGridClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	a := bmat.RandomDense(rng, 4, 4, 2) // 2×2 blocks
	b := bmat.RandomDense(rng, 4, 4, 2)
	// Grid larger than the block grid must clamp, not break.
	got, err := MultiplySUMMA(context.Background(), a, b, 10, 10, testEnv(t, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("clamped grid wrong product")
	}
}

func TestSUMMAInvalidInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	a := bmat.RandomDense(rng, 4, 4, 2)
	b := bmat.RandomDense(rng, 6, 4, 2)
	if _, err := MultiplySUMMA(context.Background(), a, b, 2, 2, testEnv(t, 1<<30)); err == nil {
		t.Fatal("nonconformable inputs accepted")
	}
	c := bmat.RandomDense(rng, 4, 4, 2)
	if _, err := MultiplySUMMA(context.Background(), a, c, 0, 2, testEnv(t, 1<<30)); err == nil {
		t.Fatal("zero grid accepted")
	}
}

func TestSciDBAddsRepartitionCost(t *testing.T) {
	rng := rand.New(rand.NewSource(135))
	a := bmat.RandomDense(rng, 12, 12, 3)
	b := bmat.RandomDense(rng, 12, 12, 3)

	envS := testEnv(t, 1<<30)
	if _, err := MultiplySUMMA(context.Background(), a, b, 2, 2, envS); err != nil {
		t.Fatal(err)
	}
	envD := testEnv(t, 1<<30)
	got, err := MultiplySciDB(context.Background(), a, b, 2, 2, envD)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("SciDB product wrong")
	}
	extra := envD.Cluster.Recorder().Bytes(metrics.StepRepartition) -
		envS.Cluster.Recorder().Bytes(metrics.StepRepartition)
	if extra != a.StoredBytes()+b.StoredBytes() {
		t.Fatalf("SciDB pre-repartition = %d, want |A|+|B| = %d", extra, a.StoredBytes()+b.StoredBytes())
	}
}

func TestCRMMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(136))
	a := bmat.RandomDense(rng, 16, 12, 2)
	b := bmat.RandomDense(rng, 12, 20, 2)
	got, err := MultiplyCRMM(context.Background(), a, b, testEnv(t, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("CRMM product wrong")
	}
}

// TestCRMMCubesCostMoreThanCuboids verifies §7's point about Marlin: cube
// logical blocks cannot reach the cuboid optimum on skewed shapes.
func TestCRMMCubesCostMoreThanCuboids(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	// Common large dimension: cuboids flatten to (1,1,R); cubes cannot.
	a := bmat.RandomDense(rng, 6, 60, 3)
	b := bmat.RandomDense(rng, 60, 6, 3)
	smallEnv := func() core.Env {
		cfg := cluster.LaptopConfig()
		cfg.Nodes, cfg.TasksPerNode, cfg.LocalWorkers = 2, 2, 4
		cfg.TaskMemBytes = 8 << 10
		cfg.DiskCapacityBytes = 0
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return core.Env{Cluster: c}
	}

	envCube := smallEnv()
	if _, err := MultiplyCRMM(context.Background(), a, b, envCube); err != nil {
		t.Fatal(err)
	}
	crmm := envCube.Cluster.Recorder().CommunicationBytes()

	envCuboid := smallEnv()
	if _, _, err := core.MultiplyAuto(context.Background(), a, b, envCuboid); err != nil {
		t.Fatal(err)
	}
	cuboid := envCuboid.Cluster.Recorder().CommunicationBytes()
	if cuboid >= crmm {
		t.Fatalf("CuboidMM (%d) should beat CRMM (%d) on a skewed shape", cuboid, crmm)
	}
}

func TestCRMMInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(138))
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	_, err := MultiplyCRMM(context.Background(), a, b, testEnv(t, 16))
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestBaselinesCancel: every measured baseline runs under its caller's ctx,
// so a cancelled ctx stops it with the executors' cancellation error.
func TestBaselinesCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func(core.Env) error{
		"SUMMA": func(env core.Env) error { _, err := MultiplySUMMA(ctx, a, b, 2, 2, env); return err },
		"SciDB": func(env core.Env) error { _, err := MultiplySciDB(ctx, a, b, 2, 2, env); return err },
		"CRMM":  func(env core.Env) error { _, err := MultiplyCRMM(ctx, a, b, env); return err },
	} {
		err := run(testEnv(t, 1<<30))
		if !errors.Is(err, cluster.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want cluster.ErrCancelled wrapping context.Canceled", name, err)
		}
	}
}
