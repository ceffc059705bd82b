package ml

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/engine"
	"distme/internal/systems"
)

func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	e, err := engine.New(engine.Config{Cluster: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func ratingMatrix(t *testing.T, seed int64, rows, cols int) *bmat.BlockMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return bmat.RandomSparse(rng, rows, cols, 4, 0.2)
}

func TestGNMFObjectiveDecreases(t *testing.T) {
	e := testEngine(t)
	v := ratingMatrix(t, 110, 24, 20)
	res, err := GNMF(context.Background(), e, v, GNMFOptions{Rank: 4, Iterations: 8, Seed: 1, TrackObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objectives) != 8 {
		t.Fatalf("tracked %d objectives, want 8", len(res.Objectives))
	}
	// Multiplicative updates are monotone non-increasing on the Frobenius
	// objective (Lee & Seung 2001); allow a hair of float slack.
	for i := 1; i < len(res.Objectives); i++ {
		if res.Objectives[i] > res.Objectives[i-1]*(1+1e-9) {
			t.Fatalf("objective increased at iteration %d: %g → %g",
				i, res.Objectives[i-1], res.Objectives[i])
		}
	}
	// And it should actually make progress.
	if res.Objectives[len(res.Objectives)-1] >= res.Objectives[0] {
		t.Fatal("objective made no progress over 8 iterations")
	}
}

func TestGNMFFactorsShapedAndNonNegative(t *testing.T) {
	e := testEngine(t)
	v := ratingMatrix(t, 111, 16, 12)
	res, err := GNMF(context.Background(), e, v, GNMFOptions{Rank: 3, Iterations: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.W.Rows != 16 || res.W.Cols != 3 {
		t.Fatalf("W is %dx%d, want 16x3", res.W.Rows, res.W.Cols)
	}
	if res.H.Rows != 3 || res.H.Cols != 12 {
		t.Fatalf("H is %dx%d, want 3x12", res.H.Rows, res.H.Cols)
	}
	for _, m := range []*bmat.BlockMatrix{res.W, res.H} {
		d := m.ToDense()
		for _, x := range d.Data {
			if x < 0 {
				t.Fatal("multiplicative updates produced a negative factor")
			}
		}
	}
}

func TestGNMFDeterministicForSeed(t *testing.T) {
	v := ratingMatrix(t, 112, 12, 12)
	r1, err := GNMF(context.Background(), testEngine(t), v, GNMFOptions{Rank: 2, Iterations: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := GNMF(context.Background(), testEngine(t), v, GNMFOptions{Rank: 2, Iterations: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.W.ToDense().Equal(r2.W.ToDense()) || !r1.H.ToDense().Equal(r2.H.ToDense()) {
		t.Fatal("same seed produced different factors")
	}
}

func TestGNMFRunsOnEverySystem(t *testing.T) {
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	v := ratingMatrix(t, 113, 16, 16)
	for _, p := range systems.All() {
		sys, err := systems.New(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res, err := GNMF(context.Background(), sys, v, GNMFOptions{Rank: 4, Iterations: 2, Seed: 3, TrackObjective: true})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.Objectives[1] > res.Objectives[0]*(1+1e-9) {
			t.Errorf("%s: objective increased", p.Name)
		}
	}
}

func TestGNMFSameFactorsAcrossSystems(t *testing.T) {
	// All systems run the same arithmetic, so with one seed the factors
	// must agree bit-for-bit across strategy choices — the distributed
	// generalization claim applied to a whole query.
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	v := ratingMatrix(t, 114, 12, 12)
	var refW, refH *bmat.BlockMatrix
	for _, p := range []systems.Profile{systems.SystemMLC, systems.DistMEC, systems.DistMEG} {
		sys, err := systems.New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := GNMF(context.Background(), sys, v, GNMFOptions{Rank: 2, Iterations: 2, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if refW == nil {
			refW, refH = res.W, res.H
			continue
		}
		if !res.W.ToDense().EqualApprox(refW.ToDense(), 1e-9) ||
			!res.H.ToDense().EqualApprox(refH.ToDense(), 1e-9) {
			t.Errorf("%s: factors diverge from reference", p.Name)
		}
	}
}

func TestGNMFInvalidOptions(t *testing.T) {
	e := testEngine(t)
	v := ratingMatrix(t, 115, 8, 8)
	if _, err := GNMF(context.Background(), e, v, GNMFOptions{Rank: 0, Iterations: 1}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := GNMF(context.Background(), e, v, GNMFOptions{Rank: 2, Iterations: 0}); err == nil {
		t.Fatal("0 iterations accepted")
	}
}

func TestGNMFObjectiveMatchesDirect(t *testing.T) {
	e := testEngine(t)
	v := ratingMatrix(t, 116, 20, 16)
	res, err := GNMF(context.Background(), e, v, GNMFOptions{Rank: 4, Iterations: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Direct: materialize W·H and subtract.
	wh, err := e.Multiply(context.Background(), res.W, res.H)
	if err != nil {
		t.Fatal(err)
	}
	want := bmat.Sub(v, wh).FrobeniusNorm()
	// The benchmark's exact call form: an *engine.Engine and no context.
	got, err := GNMFObjective(e, v, res.W, res.H)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("Gram-trick objective %g, direct %g", got, want)
	}
}

// cancelAfterFirstOp is the engine with one change: the first operator of
// an iteration (Wᵀ) cancels the query's context on its way out.
type cancelAfterFirstOp struct {
	Ops
	cancel     context.CancelFunc
	multiplies int
}

func (c *cancelAfterFirstOp) Transpose(ctx context.Context, a *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	defer c.cancel()
	return c.Ops.Transpose(ctx, a)
}

func (c *cancelAfterFirstOp) Multiply(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	c.multiplies++
	return c.Ops.Multiply(ctx, a, b)
}

// TestGNMFStopsOnCancelledContext: the eager queries hand their context to
// every operator, so cancelling it stops a factorization at the next
// operator instead of after the last iteration.
func TestGNMFStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ops := &cancelAfterFirstOp{Ops: testEngine(t), cancel: cancel}
	v := ratingMatrix(t, 117, 16, 12)
	_, err := GNMF(ctx, ops, v, GNMFOptions{Rank: 3, Iterations: 50, Seed: 8})
	if !errors.Is(err, cluster.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if ops.multiplies != 1 {
		t.Fatalf("%d multiplications started after the cancellation, want only the one that observed it", ops.multiplies)
	}
}
