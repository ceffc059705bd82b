package distnet

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/engine"
	"distme/internal/matrix"
	"distme/internal/ml"
	"distme/internal/obs"
	"distme/internal/plan"
)

// deferredInputs: x and y for the transpose cases (T(x)·y is 8×24, as is
// T(x)), n, d and h for the quotient cases, all on blocks of 4.
func deferredInputs(seed int64) map[string]*bmat.BlockMatrix {
	rng := rand.New(rand.NewSource(seed))
	return map[string]*bmat.BlockMatrix{
		"x": bmat.RandomDense(rng, 24, 8, 4),
		"y": bmat.RandomSparse(rng, 24, 24, 4, 0.4),
		"n": bmat.RandomDense(rng, 8, 24, 4),
		"d": bmat.RandomDense(rng, 8, 24, 4),
		"h": bmat.RandomDense(rng, 8, 24, 4),
	}
}

// tracedSession is a session on two traced workers, its driver and tracer.
func tracedSession(t *testing.T) (*Session, *Driver, *obs.Tracer, []string) {
	t.Helper()
	tr := obs.NewTracer()
	addrs := startTracedWorkers(t, 2, tr)
	d, err := DialOptions(addrs, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return newSession(t, d), d, tr, addrs
}

// opsSince lists the operators the pipeline.exec spans recorded after mark
// ran, as "op" or "op/deferred", in the order they started.
func opsSince(tr *obs.Tracer, mark int) []string {
	spans := tr.SnapshotSince(mark).Spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var ops []string
	for _, sp := range spans {
		if sp.Name != "pipeline.exec" {
			continue
		}
		op := spanAttr(sp, "op")
		if a := spanAttr(sp, "deferred"); a != "" {
			op += "/" + a
		}
		ops = append(ops, op)
	}
	return ops
}

// engineAt111 is the expression on the local engine at one cuboid per
// multiplication: every output block accumulates k-ascending, as the band
// exchange does.
func engineAt111(t *testing.T, x plan.Expr, inputs map[string]*bmat.BlockMatrix) *bmat.BlockMatrix {
	t.Helper()
	eng := localEngine(t)
	defer eng.Close()
	out, _, err := eng.Run(context.Background(), x, inputs, engine.WithParams(core.Params{P: 1, Q: 1, R: 1}))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDeferredOperatorsForcing: each way a deferred handle is absorbed or
// forced runs exactly the operators listed — a transpose forced once
// however many consume it, a quotient run only where something other than
// a Hadamard product reads it — with the bits of engine.Run at (1,1,1).
func TestDeferredOperatorsForcing(t *testing.T) {
	xt := plan.T(plan.V("x"))
	q := plan.EDiv(plan.V("n"), plan.V("d"), 1e-9)
	for _, tc := range []struct {
		name string
		expr plan.Expr
		ops  []string
	}{
		{"transpose read by a multiply and an add", plan.Plus(plan.Mul(xt, plan.V("y")), xt),
			[]string{"multiply/transposed-a", "transpose", "add"}},
		{"transpose read by a multiply as its b", plan.Mul(plan.V("h"), plan.T(plan.V("h"))),
			[]string{"multiply/transposed-b"}},
		{"root a transpose", xt, []string{"transpose"}},
		{"quotient fused and added", plan.Plus(plan.EMul(plan.V("h"), q), q),
			[]string{"hadamard/fused-divelem", "divelem", "add"}},
		{"quotient fused twice", plan.Plus(plan.EMul(plan.V("h"), q), plan.EMul(q, xt)),
			[]string{"hadamard/fused-divelem", "transpose", "hadamard/fused-divelem", "add"}},
		{"root a quotient", q, []string{"divelem"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			inputs := deferredInputs(3)
			s, _, tr, _ := tracedSession(t)
			binds := putAll(t, s, inputs)
			mark := tr.Len()
			out, err := s.Run(ctx, tc.expr, binds)
			if err != nil {
				t.Fatal(err)
			}
			if got := opsSince(tr, mark); !equalStrings(got, tc.ops) {
				t.Fatalf("operators run: %v, want %v", got, tc.ops)
			}
			got, err := s.Fetch(ctx, out)
			if err != nil {
				t.Fatal(err)
			}
			bitIdentical(t, got, engineAt111(t, tc.expr, inputs))
			// Only the root stays: every intermediate, deferred or not, is
			// gone, and nothing holds the inputs.
			if len(s.handles) != len(binds)+1 {
				t.Fatalf("%d live handles after the run, want the %d inputs and the root", len(s.handles), len(binds))
			}
			for name, h := range binds {
				if h.holds != 0 || h.unheld {
					t.Fatalf("input %q still held: holds %d, unheld %v", name, h.holds, h.unheld)
				}
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeferredHandleFetchAndPin: Fetch and Pin of a deferred handle force
// it, once, and a deferred handle freed unforced moves nothing.
func TestDeferredHandleFetchAndPin(t *testing.T) {
	ctx := context.Background()
	inputs := deferredInputs(5)
	s, d, _, _ := tracedSession(t)
	binds := putAll(t, s, inputs)
	want := engineAt111(t, plan.T(plan.V("x")), inputs)
	transpose := plan.NodeInfo{Kind: plan.OpTranspose}

	ops := d.NetStats().PipelineOps
	view, err := s.node(ctx, transpose, binds["x"], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !view.deferred || d.NetStats().PipelineOps != ops {
		t.Fatalf("transpose ran at once: deferred %v, %d operators", view.deferred, d.NetStats().PipelineOps-ops)
	}
	got, err := s.Fetch(ctx, view)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	if _, err := s.Fetch(ctx, view); err != nil {
		t.Fatal(err)
	}
	if n := d.NetStats().PipelineOps - ops; n != 1 {
		t.Fatalf("two fetches of a view ran %d operators, want 1", n)
	}

	pinned, err := s.node(ctx, transpose, binds["x"], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(ctx, pinned); err != nil {
		t.Fatal(err)
	}
	if pinned.deferred || !pinned.pinned || d.NetStats().PipelineOps-ops != 2 {
		t.Fatalf("pin: deferred %v, pinned %v, %d operators", pinned.deferred, pinned.pinned, d.NetStats().PipelineOps-ops)
	}
	if got, err = s.Fetch(ctx, pinned); err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)

	dropped, err := s.node(ctx, plan.NodeInfo{Kind: plan.OpDivElem, Scalar: 1e-9}, binds["n"], binds["d"])
	if err != nil {
		t.Fatal(err)
	}
	if binds["n"].holds != 1 || binds["d"].holds != 1 {
		t.Fatalf("quotient holds n %d, d %d, want 1 each", binds["n"].holds, binds["d"].holds)
	}
	if err := s.Free(ctx, dropped); err != nil {
		t.Fatal(err)
	}
	if binds["n"].holds != 0 || binds["d"].holds != 0 || d.NetStats().PipelineOps-ops != 2 {
		t.Fatalf("freed quotient: holds n %d, d %d, %d operators", binds["n"].holds, binds["d"].holds, d.NetStats().PipelineOps-ops)
	}
}

// blockless is m with the blocks at the listed keys left out.
func blockless(m *bmat.BlockMatrix, keys ...bmat.BlockKey) *bmat.BlockMatrix {
	out := bmat.New(m.Rows, m.Cols, m.BlockSize)
	for i := 0; i < m.IB; i++ {
		for j := 0; j < m.JB; j++ {
			out.SetBlock(i, j, m.Block(i, j))
		}
	}
	for _, k := range keys {
		out.SetBlock(k.I, k.J, nil)
	}
	return out
}

// TestFusedUpdateAbsentBlocks: x∘(n⊘d) over operands each missing blocks —
// in x, in n, in d, and where two of them miss one together — stores a
// block exactly where the two passes would, with their bits, eps guard
// under a missing denominator included.
func TestFusedUpdateAbsentBlocks(t *testing.T) {
	ctx := context.Background()
	in := deferredInputs(7)
	inputs := map[string]*bmat.BlockMatrix{
		"x": blockless(in["h"], bmat.BlockKey{I: 0, J: 1}, bmat.BlockKey{I: 1, J: 5}),
		"n": blockless(in["n"], bmat.BlockKey{I: 0, J: 2}, bmat.BlockKey{I: 1, J: 5}),
		"d": blockless(in["d"], bmat.BlockKey{I: 0, J: 3}, bmat.BlockKey{I: 1, J: 4}, bmat.BlockKey{I: 0, J: 1}),
	}
	expr := plan.EMul(plan.V("x"), plan.EDiv(plan.V("n"), plan.V("d"), 1e-3))
	s, _, tr, _ := tracedSession(t)
	binds := putAll(t, s, inputs)
	mark := tr.Len()
	out, err := s.Run(ctx, expr, binds)
	if err != nil {
		t.Fatal(err)
	}
	if ops := opsSince(tr, mark); !equalStrings(ops, []string{"hadamard/fused-divelem"}) {
		t.Fatalf("operators run: %v", ops)
	}
	got, err := s.Fetch(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	want := engineAt111(t, expr, inputs)
	bitIdentical(t, got, want)
	for i := 0; i < want.IB; i++ {
		for j := 0; j < want.JB; j++ {
			if (got.Block(i, j) == nil) != (want.Block(i, j) == nil) {
				t.Fatalf("block (%d,%d): stored %v, the two passes %v", i, j, got.Block(i, j) != nil, want.Block(i, j) != nil)
			}
		}
	}
	if got.Block(0, 3) == nil || got.Block(0, 1) != nil || got.Block(0, 2) != nil {
		t.Fatal("absent blocks not handled as the two passes handle them")
	}
}

// TestDeferredSurvivesWorkerKill kills a worker after a transpose and a
// quotient were deferred and before their consumers run: lineage recovery
// rebuilds what they hold, the consumers keep the bits, and freeing
// everything leaves nothing on the survivor.
func TestDeferredSurvivesWorkerKill(t *testing.T) {
	ctx := context.Background()
	inputs := deferredInputs(9)
	addrs, workers := startWorkers(t, 2)
	opts := fastOpts()
	opts.DisableHeartbeat = true // death is detected by the failed call itself
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := newSession(t, d)
	binds := putAll(t, s, inputs)

	view, err := s.node(ctx, plan.NodeInfo{Kind: plan.OpTranspose}, binds["x"], nil)
	if err != nil {
		t.Fatal(err)
	}
	quot, err := s.node(ctx, plan.NodeInfo{Kind: plan.OpDivElem, Scalar: 1e-9}, binds["n"], binds["d"])
	if err != nil {
		t.Fatal(err)
	}
	killWorker(workers[0])

	prod, err := s.node(ctx, plan.NodeInfo{Kind: plan.OpMul}, view, binds["y"])
	if err != nil {
		t.Fatalf("multiply over a view after a kill: %v", err)
	}
	upd, err := s.node(ctx, plan.NodeInfo{Kind: plan.OpHadamard}, binds["h"], quot)
	if err != nil {
		t.Fatalf("fused update after a kill: %v", err)
	}
	if s.recoveries == 0 {
		t.Fatal("no recovery recorded despite the kill")
	}
	for _, c := range []struct {
		h    *Handle
		expr plan.Expr
	}{
		{prod, plan.Mul(plan.T(plan.V("x")), plan.V("y"))},
		{upd, plan.EMul(plan.V("h"), plan.EDiv(plan.V("n"), plan.V("d"), 1e-9))},
	} {
		got, err := s.Fetch(ctx, c.h)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, got, engineAt111(t, c.expr, inputs))
	}
	for _, h := range []*Handle{view, quot, prod, upd, binds["x"], binds["y"], binds["n"], binds["d"], binds["h"]} {
		if err := s.Free(ctx, h); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.handles) != 0 {
		t.Fatalf("%d handles still registered", len(s.handles))
	}
	if st := workers[1].StoreStats(); st.Handles != 0 || st.Bytes != 0 {
		t.Fatalf("survivor still holds %d handles / %d bytes after Free", st.Handles, st.Bytes)
	}
}

// TestGNMFStepRunsEightOperators pins the resident GNMF iteration to its
// operator count: each update is three multiplies and one fused pass, its
// transpose read as a view — twelve operators before views and fusion. A
// bare Run of a transpose still runs the transpose.
func TestGNMFStepRunsEightOperators(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	v := bmat.RandomSparse(rng, 24, 20, 4, 0.25)
	addrs, _ := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := newSession(t, d)
	g, err := ml.NewGNMFPipeline[*Handle](ctx, s, v, ml.GNMFOptions{Rank: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		before := d.NetStats().PipelineOps
		if err := g.Step(ctx); err != nil {
			t.Fatal(err)
		}
		if n := d.NetStats().PipelineOps - before; n != 8 {
			t.Fatalf("step %d ran %d operators, want 8", i, n)
		}
	}
	_, w, _ := g.Handles()
	before := d.NetStats().PipelineOps
	wt, err := s.Run(ctx, plan.T(plan.V("w")), map[string]*Handle{"w": w})
	if err != nil {
		t.Fatal(err)
	}
	if n := d.NetStats().PipelineOps - before; n != 1 || wt.op != execTranspose || wt.deferred {
		t.Fatalf("Run of T(w): %d operators, op %d, deferred %v", n, wt.op, wt.deferred)
	}
}

// TestGNMFStepTracesEveryWorker: a traced two-worker GNMF step records its
// worker.exec spans on the lanes of exactly the two workers, each operator
// under its name, the views and fused passes under what they absorbed.
func TestGNMFStepTracesEveryWorker(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	v := bmat.RandomSparse(rng, 24, 20, 4, 0.25)
	s, _, tr, addrs := tracedSession(t)
	g, err := ml.NewGNMFPipeline[*Handle](ctx, s, v, ml.GNMFOptions{Rank: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mark := tr.Len()
	if err := g.Step(ctx); err != nil {
		t.Fatal(err)
	}
	lanes := map[string]int{}
	ops := map[string]int{}
	for _, sp := range tr.SnapshotSince(mark).Spans {
		if sp.Name != "worker.exec" {
			continue
		}
		lanes[sp.Worker]++
		op := spanAttr(sp, "op")
		if a := spanAttr(sp, "deferred"); a != "" {
			op += "/" + a
		}
		ops[op]++
	}
	if len(lanes) != 2 || lanes[addrs[0]] == 0 || lanes[addrs[1]] == 0 {
		t.Fatalf("worker.exec lanes %v, want exactly %v", lanes, addrs)
	}
	want := map[string]int{"multiply": 4, "multiply/transposed-a": 4, "multiply/transposed-b": 4, "hadamard/fused-divelem": 4}
	if len(ops) != len(want) {
		t.Fatalf("worker.exec operators %v, want %v", ops, want)
	}
	for op, n := range want {
		if ops[op] != n {
			t.Fatalf("worker.exec operators %v, want %v", ops, want)
		}
	}
}

// TestFusedExecUnknownHandle: a fused operator naming a denominator the
// worker does not hold is refused as an unknown handle — the refusal
// lineage recovery answers.
func TestFusedExecUnknownHandle(t *testing.T) {
	w := &Worker{}
	blocks := map[bmat.BlockKey]matrix.Block{{I: 0, J: 0}: matrix.NewDense(2, 2)}
	for _, id := range []uint64{1, 2} {
		w.getStore().set(id, 1, false, blocks, true)
	}
	args := &execArgs{Op: execHadamardDivElem, Out: 9, Epoch: 1, A: 1, B: 2, C: 3, OutHi: 1, Scalar: 1e-9}
	if err := w.exec(args, &execReply{}); !errors.Is(err, errUnknownHandle) {
		t.Fatalf("fused exec over a missing denominator: %v, want errUnknownHandle", err)
	}
	args.C = 2
	if err := w.exec(args, &execReply{}); err != nil {
		t.Fatal(err)
	}
}
