package engine

import (
	"context"
	"fmt"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/obs"
	"distme/internal/plan"
)

// Run is the engine's consolidated entry point: one context-first call that
// compiles a matrix expression (with the plan layer's transpose pushing,
// scalar folding, and common-subexpression elimination) and executes the
// whole DAG on the engine — multiplications under the configured strategy
// chooser, everything else block-parallel. A bare multiplication expression
// (plan.Mul of two variables) takes exactly the single-multiply path
// Multiply takes, so its trace has one engine.multiply root and its report
// covers precisely that multiplication.

// RunOption tunes one Run call.
type RunOption func(*runConfig)

type runConfig struct {
	mul MulOptions
}

// WithMulOptions applies explicit per-multiplication options (method and
// cuboid params) to every multiplication in the expression.
func WithMulOptions(o MulOptions) RunOption {
	return func(c *runConfig) { c.mul = o }
}

// WithMethod selects the multiplication strategy for every multiplication
// in the expression.
func WithMethod(m Method) RunOption {
	return func(c *runConfig) { c.mul.Method = m }
}

// WithParams fixes explicit (P,Q,R) cuboid parameters (implies
// MethodCuboid).
func WithParams(p core.Params) RunOption {
	return func(c *runConfig) { c.mul.Params = p; c.mul.Method = MethodCuboid }
}

// Run compiles and executes a matrix expression over the bound inputs,
// returning the result and an execution report covering the whole pipeline.
// Without an explicit method option, multiplications run MethodAuto, as
// Multiply does.
func (e *Engine) Run(ctx context.Context, x plan.Expr, binds map[string]*bmat.BlockMatrix, opts ...RunOption) (*bmat.BlockMatrix, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if x == nil {
		return nil, nil, fmt.Errorf("engine: nil expression")
	}
	var ro runConfig
	for _, o := range opts {
		o(&ro)
	}

	// A bare L×R over two bound inputs is the classic multiply: run the
	// exact Multiply path so the trace keeps one engine.multiply root and
	// the report covers precisely that multiplication.
	if mm, ok := x.(*plan.MatMul); ok {
		lv, lok := mm.L.(*plan.Var)
		rv, rok := mm.R.(*plan.Var)
		if lok && rok {
			a, aok := binds[lv.Name]
			b, bok := binds[rv.Name]
			if !aok || a == nil {
				return nil, nil, fmt.Errorf("plan: input %q not bound", lv.Name)
			}
			if !bok || b == nil {
				return nil, nil, fmt.Errorf("plan: input %q not bound", rv.Name)
			}
			return e.mulTraced(ctx, a, b, ro.mul)
		}
	}

	p, err := plan.Compile(x)
	if err != nil {
		return nil, nil, err
	}
	if err := e.checkOpen(); err != nil {
		return nil, nil, err
	}

	tr := e.cfg.Tracer
	var mark int
	var root obs.Span
	if tr != nil {
		mark = tr.Len()
		root = tr.Start(0, "engine.run", obs.KindDriver)
		if root.Active() {
			root.SetAttr("expr", x.String())
			root.SetAttr("nodes", fmt.Sprintf("%d", p.NumNodes()))
		}
	}
	rec := e.Recorder()
	before := rec.Snapshot()
	start := time.Now()

	lastMethod := ro.mul.Method
	var lastParams core.Params
	apply := func(n plan.NodeInfo, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
		switch n.Kind {
		case plan.OpMul:
			msp := tr.Start(root.ID(), "engine.multiply", obs.KindDriver)
			c, rep, err := e.multiply(ctx, a, b, ro.mul, msp)
			if err != nil && msp.Active() {
				msp.SetAttr("error", err.Error())
			}
			msp.End()
			if rep != nil {
				lastMethod, lastParams = rep.Method, rep.Params
			}
			return c, err
		case plan.OpTranspose:
			return e.Transpose(ctx, a)
		case plan.OpAdd:
			return e.Add(ctx, a, b)
		case plan.OpSub:
			return e.Sub(ctx, a, b)
		case plan.OpHadamard:
			return e.Hadamard(ctx, a, b)
		case plan.OpDivElem:
			return e.DivElem(ctx, a, b, n.Scalar)
		case plan.OpScale:
			return e.Scale(ctx, n.Scalar, a)
		default:
			return nil, fmt.Errorf("engine: unsupported operator %v", n.Kind)
		}
	}
	out, err := plan.EvalWith(p, binds, apply, nil)
	if tr != nil {
		if err != nil && root.Active() {
			root.SetAttr("error", err.Error())
		}
		root.End()
	}
	if err != nil {
		return nil, nil, err
	}

	comm := rec.Snapshot().Sub(before)
	report := &Report{
		Method:  lastMethod,
		Params:  lastParams,
		Elapsed: time.Since(start),
		Comm:    comm,
		Elastic: comm.Elastic,
	}
	if tr != nil {
		snap := tr.SnapshotSince(mark)
		report.Trace = &snap
	}
	return out, report, nil
}
