// Execution tests for compiled plans over real evaluators. These live in an
// external test package: the engine imports plan (for Engine.Run), so
// in-package tests here cannot import the engine back.
package plan_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/engine"
	"distme/internal/matrix"
	"distme/internal/ml"
	"distme/internal/plan"
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

// naiveEval evaluates an expression directly on dense matrices, the
// reference for every rewrite.
func naiveEval(e plan.Expr, binds map[string]*matrix.Dense) *matrix.Dense {
	switch v := e.(type) {
	case *plan.Var:
		return binds[v.Name]
	case *plan.MatMul:
		return matrix.Mul(naiveEval(v.L, binds), naiveEval(v.R, binds)).Dense()
	case *plan.Add:
		return matrix.Add(naiveEval(v.L, binds), naiveEval(v.R, binds))
	case *plan.Sub:
		return matrix.Sub(naiveEval(v.L, binds), naiveEval(v.R, binds))
	case *plan.Hadamard:
		return matrix.Hadamard(naiveEval(v.L, binds), naiveEval(v.R, binds))
	case *plan.DivElem:
		return matrix.DivElem(naiveEval(v.L, binds), naiveEval(v.R, binds), v.Eps)
	case *plan.Transpose:
		return naiveEval(v.X, binds).Transpose()
	case *plan.Scale:
		return matrix.Scale(v.S, naiveEval(v.X, binds))
	default:
		panic("unknown expr")
	}
}

func TestEvalMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		bs := 2 + rng.Intn(3)
		// Random square matrices keep every composition conformable.
		names := []string{"A", "B", "C"}
		dense := map[string]*matrix.Dense{}
		blocks := map[string]*bmat.BlockMatrix{}
		for _, name := range names {
			d := matrix.RandomDense(rng, n, n)
			dense[name] = d
			blocks[name] = bmat.FromDense(d, bs)
		}
		e := randomExpr(rng, names, 0)
		got, _, err := testEngineQuick().Run(context.Background(), e, blocks)
		if err != nil {
			return false
		}
		want := naiveEval(e, dense)
		return got.ToDense().EqualApprox(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// testEngineQuick builds an engine without a *testing.T for quick.Check.
func testEngineQuick() *engine.Engine {
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	e, err := engine.New(engine.Config{Cluster: cfg})
	if err != nil {
		panic(err)
	}
	return e
}

// randomExpr builds a random well-formed expression over square matrices.
func randomExpr(rng *rand.Rand, names []string, depth int) plan.Expr {
	if depth >= 3 || rng.Intn(3) == 0 {
		return plan.V(names[rng.Intn(len(names))])
	}
	switch rng.Intn(6) {
	case 0:
		return plan.Mul(randomExpr(rng, names, depth+1), randomExpr(rng, names, depth+1))
	case 1:
		return plan.Plus(randomExpr(rng, names, depth+1), randomExpr(rng, names, depth+1))
	case 2:
		return plan.Minus(randomExpr(rng, names, depth+1), randomExpr(rng, names, depth+1))
	case 3:
		return plan.EMul(randomExpr(rng, names, depth+1), randomExpr(rng, names, depth+1))
	case 4:
		return plan.T(randomExpr(rng, names, depth+1))
	default:
		return plan.Times(float64(1+rng.Intn(3)), randomExpr(rng, names, depth+1))
	}
}

func TestEvalGNMFHUpdate(t *testing.T) {
	// H' = H ∘ (Wᵀ·V) ⊘ (Wᵀ·W·H): the paper's H update as one plan.
	rng := rand.New(rand.NewSource(140))
	vD := matrix.RandomDense(rng, 12, 10)
	wD := matrix.RandomDense(rng, 12, 4)
	hD := matrix.RandomDense(rng, 4, 10)
	wt := plan.T(plan.V("W"))
	update := plan.EMul(plan.V("H"), plan.EDiv(plan.Mul(wt, plan.V("V")), plan.Mul(plan.Mul(wt, plan.V("W")), plan.V("H")), 1e-9))
	p, err := plan.Compile(update)
	if err != nil {
		t.Fatal(err)
	}
	// The shared Wᵀ must be computed once.
	if p.SharedNodes() == 0 {
		t.Fatal("expected Wᵀ to be shared")
	}
	got, _, err := testEngine(t).Run(context.Background(), update, map[string]*bmat.BlockMatrix{
		"V": bmat.FromDense(vD, 4),
		"W": bmat.FromDense(wD, 4),
		"H": bmat.FromDense(hD, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveEval(update, map[string]*matrix.Dense{"V": vD, "W": wD, "H": hD})
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("GNMF H update via plan mismatch")
	}
}

func TestEvalMissingBinding(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	a := bmat.RandomDense(rng, 4, 4, 2)
	for _, x := range []plan.Expr{
		plan.Mul(plan.V("A"), plan.V("B")),
		plan.Plus(plan.T(plan.V("A")), plan.V("B")),
	} {
		_, _, err := testEngine(t).Run(context.Background(), x, map[string]*bmat.BlockMatrix{"A": a})
		if err == nil {
			t.Fatalf("%v: missing binding accepted", x)
		}
	}
}

func TestEvalSameOperandTwice(t *testing.T) {
	// A∘A: both consumers read the same node; memo eviction must not
	// clobber the value before the second read.
	rng := rand.New(rand.NewSource(142))
	d := matrix.RandomDense(rng, 6, 6)
	got, _, err := testEngine(t).Run(context.Background(), plan.EMul(plan.V("A"), plan.V("A")),
		map[string]*bmat.BlockMatrix{"A": bmat.FromDense(d, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().EqualApprox(matrix.Hadamard(d, d), 1e-12) {
		t.Fatal("A∘A wrong")
	}
}

// evalOps runs a compiled program on any ml.Ops implementation through the
// one evaluator, plan.EvalWith: what a caller that holds a Program (not an
// expression) or a non-engine operator set does.
func evalOps(p *plan.Program, ops ml.Ops, binds map[string]*bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	ctx := context.Background()
	return plan.EvalWith(p, binds, func(n plan.NodeInfo, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
		switch n.Kind {
		case plan.OpMul:
			return ops.Multiply(ctx, a, b)
		case plan.OpTranspose:
			return ops.Transpose(ctx, a)
		case plan.OpHadamard:
			return ops.Hadamard(ctx, a, b)
		case plan.OpDivElem:
			return ops.DivElem(ctx, a, b, n.Scalar)
		default:
			return nil, fmt.Errorf("ml.Ops has no %v", n.Kind)
		}
	}, nil)
}

// TestEvalOverSystemProfile: the same compiled plan runs under a comparison
// system's strategy chooser — EvalWith is generic over who applies a node.
func TestEvalOverSystemProfile(t *testing.T) {
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	sys, err := systems.New(systems.SystemMLC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(143))
	aD := matrix.RandomDense(rng, 12, 12)
	bD := matrix.RandomDense(rng, 12, 12)
	e := plan.EMul(plan.Mul(plan.T(plan.V("A")), plan.V("B")), plan.EDiv(plan.V("A"), plan.V("B"), 1e-9))
	p, err := plan.Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := evalOps(p, sys, map[string]*bmat.BlockMatrix{
		"A": bmat.FromDense(aD, 4),
		"B": bmat.FromDense(bD, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveEval(e, map[string]*matrix.Dense{"A": aD, "B": bD})
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("plan over a system profile diverged")
	}
}

// TestChainOrderPreservesValueProperty: reordering must never change the
// product — associativity executed for real on the engine.
func TestChainOrderPreservesValueProperty(t *testing.T) {
	eng := testEngineQuick()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random chain of 3–5 conformable factors with varied dimensions.
		n := 3 + rng.Intn(3)
		dims := make([]int, n+1)
		for i := range dims {
			dims[i] = 2 + rng.Intn(10)
		}
		shapes := map[string]plan.Dims{}
		binds := map[string]*bmat.BlockMatrix{}
		dense := map[string]*matrix.Dense{}
		var expr plan.Expr
		for i := 0; i < n; i++ {
			name := string(rune('A' + i))
			d := matrix.RandomDense(rng, dims[i], dims[i+1])
			dense[name] = d
			binds[name] = bmat.FromDense(d, 3)
			shapes[name] = plan.Dims{Rows: int64(dims[i]), Cols: int64(dims[i+1])}
			if expr == nil {
				expr = plan.V(name)
			} else {
				expr = plan.Mul(expr, plan.V(name))
			}
		}
		p, err := plan.CompileWithShapes(expr, shapes)
		if err != nil {
			return false
		}
		// The re-associated program, not the expression as written, is what
		// must run here, so it goes through EvalWith rather than Engine.Run.
		got, err := evalOps(p, eng, binds)
		if err != nil {
			return false
		}
		want := naiveEval(expr, dense)
		return got.ToDense().EqualApprox(want, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
