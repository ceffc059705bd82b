package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/plan"
)

func bitSame(t *testing.T, got, want *bmat.BlockMatrix) {
	t.Helper()
	g, w := got.ToDense(), want.ToDense()
	gr, gc := g.Dims()
	wr, wc := w.Dims()
	if gr != wr || gc != wc {
		t.Fatalf("shape %dx%d != %dx%d", gr, gc, wr, wc)
	}
	for i := range g.Data {
		if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
			t.Fatalf("element %d differs bitwise: %v != %v", i, g.Data[i], w.Data[i])
		}
	}
}

// TestRunMatchesComposedOps: a multi-operator expression through Run equals
// the same pipeline hand-composed from the per-op calls — same worker
// arithmetic, same order, byte-identical.
func TestRunMatchesComposedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	v := bmat.RandomDense(rng, 12, 10, 4)
	w := bmat.RandomDense(rng, 12, 4, 4)
	h := bmat.RandomDense(rng, 4, 10, 4)
	const eps = 1e-9

	// Hand-composed H update, one operator call at a time.
	ctx := context.Background()
	e1 := newTestEngine(t, testConfig())
	wt, err := e1.Transpose(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	num, err := e1.Multiply(ctx, wt, v)
	if err != nil {
		t.Fatal(err)
	}
	wtw, err := e1.Multiply(ctx, wt, w)
	if err != nil {
		t.Fatal(err)
	}
	den, err := e1.Multiply(ctx, wtw, h)
	if err != nil {
		t.Fatal(err)
	}
	quot, err := e1.DivElem(ctx, num, den, eps)
	if err != nil {
		t.Fatal(err)
	}
	old, err := e1.Hadamard(ctx, h, quot)
	if err != nil {
		t.Fatal(err)
	}

	// The same update as one expression through Run.
	wtE := plan.T(plan.V("w"))
	update := plan.EMul(plan.V("h"),
		plan.EDiv(plan.Mul(wtE, plan.V("v")),
			plan.Mul(plan.Mul(wtE, plan.V("w")), plan.V("h")), eps))
	got, rep, err := newTestEngine(t, testConfig()).Run(ctx, update,
		map[string]*bmat.BlockMatrix{"v": v, "w": w, "h": h})
	if err != nil {
		t.Fatal(err)
	}
	bitSame(t, got, old)
	if rep.Elapsed <= 0 {
		t.Fatal("report elapsed not populated")
	}
}

func TestRunErrors(t *testing.T) {
	e := newTestEngine(t, testConfig())
	if _, _, err := e.Run(context.Background(), nil, nil); err == nil {
		t.Fatal("nil expression accepted")
	}
	_, _, err := e.Run(context.Background(), plan.Mul(plan.V("a"), plan.V("b")), nil)
	if err == nil {
		t.Fatal("missing bindings accepted")
	}
	rng := rand.New(rand.NewSource(155))
	a := bmat.RandomDense(rng, 4, 4, 2)
	// Multi-op expression with one input missing must error, not panic.
	_, _, err = e.Run(context.Background(), plan.Plus(plan.V("a"), plan.V("missing")),
		map[string]*bmat.BlockMatrix{"a": a})
	if err == nil {
		t.Fatal("missing binding in multi-op expression accepted")
	}
}

// TestRunCancelledContext: a cancelled context aborts a multi-op pipeline.
func TestRunCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(156))
	a := bmat.RandomDense(rng, 8, 8, 2)
	e := newTestEngine(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := e.Run(ctx, plan.Plus(plan.V("a"), plan.V("a")),
		map[string]*bmat.BlockMatrix{"a": a})
	if err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// TestBalanceBySparsityBitIdentical: Config.BalanceBySparsity changes when a
// cuboid runs, not the bits of the product.
func TestBalanceBySparsityBitIdentical(t *testing.T) {
	opts := MulOptions{Method: MethodCuboid, Params: core.Params{P: 2, Q: 3, R: 3}}
	balancedCfg := testConfig()
	balancedCfg.BalanceBySparsity = true
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(1540 + seed))
		a := bmat.RandomSparse(rng, 24, 36, 4, 0.3)
		b := bmat.RandomDense(rng, 36, 24, 4)
		plain, _, err := runMul(context.Background(), newTestEngine(t, testConfig()), a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		balanced, _, err := runMul(context.Background(), newTestEngine(t, balancedCfg), a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		bitSame(t, balanced, plain)
	}
}
