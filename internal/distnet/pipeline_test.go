package distnet

import (
	"context"
	"math/rand"
	"net"
	"strings"
	"testing"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/engine"
	"distme/internal/matrix"
	"distme/internal/ml"
	"distme/internal/plan"
)

// The session's handle surface is exactly what the ml layer's generic
// pipelines run against.
var _ ml.PipelineSession[*Handle] = (*Session)(nil)

// gnmfStepExpr is a dense multi-operator pipeline exercising every wire
// operator: H ← H ∘ (Wᵀ·V) ⊘ (Wᵀ·W·H), plus scale/add/sub around it.
func pipelineTestExpr() plan.Expr {
	wt := plan.T(plan.V("w"))
	upd := plan.EMul(plan.V("h"),
		plan.EDiv(plan.Mul(wt, plan.V("v")),
			plan.Mul(plan.Mul(wt, plan.V("w")), plan.V("h")), 1e-9))
	return plan.Plus(plan.Times(0.5, upd), plan.Minus(upd, plan.Times(0.25, plan.V("h"))))
}

func pipelineTestInputs(seed int64) map[string]*bmat.BlockMatrix {
	rng := rand.New(rand.NewSource(seed))
	return map[string]*bmat.BlockMatrix{
		"v": bmat.RandomSparse(rng, 24, 20, 4, 0.3),
		"w": bmat.RandomDense(rng, 24, 6, 4),
		"h": bmat.RandomDense(rng, 6, 20, 4),
	}
}

func newSession(t *testing.T, d *Driver) *Session {
	t.Helper()
	s, err := d.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	return s
}

func putAll(t *testing.T, s *Session, ms map[string]*bmat.BlockMatrix) map[string]*Handle {
	t.Helper()
	binds := make(map[string]*Handle, len(ms))
	for name, m := range ms {
		h, err := s.Put(context.Background(), m)
		if err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
		binds[name] = h
	}
	return binds
}

// driverBytes is the traffic the driver has routed so far, both directions.
func driverBytes(d *Driver) int64 {
	sent, recv := d.WireBytes()
	return sent + recv
}

// requireResidentSaves is the pipeline gate: a warm resident iteration must
// move at least 5x fewer bytes through the driver than its materialized twin.
func requireResidentSaves(t *testing.T, what string, materialized, resident int64) {
	t.Helper()
	t.Logf("%s warm iteration driver bytes: materialized %d, resident %d (%.1fx fewer)",
		what, materialized, resident, float64(materialized)/float64(resident))
	if resident*5 > materialized {
		t.Fatalf("%s: resident iteration moved %d driver bytes against materialized %d — less than the required 5x reduction",
			what, resident, materialized)
	}
}

func TestSessionPutFetchRoundTrip(t *testing.T) {
	addrs, _ := startWorkers(t, 3)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := newSession(t, d)
	ctx := context.Background()

	rng := rand.New(rand.NewSource(7))
	m := bmat.RandomSparse(rng, 30, 22, 4, 0.4)
	h, err := s.Put(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows() != 30 || h.Cols() != 22 || h.BlockSize() != 4 {
		t.Fatalf("handle dims %dx%d/%d", h.Rows(), h.Cols(), h.BlockSize())
	}
	got, err := s.Fetch(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, m)

	if err := s.Free(ctx, h); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(ctx, h); err == nil {
		t.Fatal("fetch after free succeeded")
	} else if !strings.Contains(err.Error(), "freed") {
		t.Fatalf("fetch after free: %v", err)
	}
}

// TestPipelineRunMatchesMaterialized is the core equivalence bar: the
// resident pipeline and the driver-materialized baseline must produce
// bit-identical results, since they run the same worker arithmetic under the
// same placement — only the traffic pattern differs.
func TestPipelineRunMatchesMaterialized(t *testing.T) {
	addrs, _ := startWorkers(t, 3)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	expr := pipelineTestExpr()
	inputs := pipelineTestInputs(21)

	s := newSession(t, d)
	binds := putAll(t, s, inputs)
	out, err := s.Run(ctx, expr, binds)
	if err != nil {
		t.Fatal(err)
	}
	resident, err := s.Fetch(ctx, out)
	if err != nil {
		t.Fatal(err)
	}

	materialized, err := s.RunMaterialized(ctx, expr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, resident, materialized)

	// And both must agree with a plain local reference evaluation.
	ref := localPlanEval(t, expr, inputs)
	g, w := resident.ToDense(), ref.ToDense()
	if !g.EqualApprox(w, 1e-9) {
		t.Fatal("pipeline result differs from local reference")
	}
}

// localPlanEval computes the expression on the local engine as a reference.
func localPlanEval(t *testing.T, x plan.Expr, inputs map[string]*bmat.BlockMatrix) *bmat.BlockMatrix {
	t.Helper()
	eng := localEngine(t)
	defer eng.Close()
	out, _, err := eng.Run(context.Background(), x, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPipelineIntermediatesStayResident runs the multi-op expression and
// asserts the driver moved only the inputs up and the final result down —
// no intermediate crossed the wire to the driver.
func TestPipelineIntermediatesStayResident(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	inputs := pipelineTestInputs(22)

	s := newSession(t, d)
	binds := putAll(t, s, inputs)
	sentBefore, recvBefore := d.WireBytes()
	out, err := s.Run(ctx, pipelineTestExpr(), binds)
	if err != nil {
		t.Fatal(err)
	}
	sentMid, recvMid := d.WireBytes()
	res, err := s.Fetch(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	sentAfter, recvAfter := d.WireBytes()

	// Executing the pipeline ships expressions (tiny), not matrices: the
	// driver's sent bytes during Run must be far below one operand.
	opBytes := int64(inputs["v"].Rows) * int64(inputs["v"].Cols) * 8
	if runSent := sentMid - sentBefore; runSent > opBytes {
		t.Fatalf("Run sent %d driver bytes, more than an operand (%d)", runSent, opBytes)
	}
	if runRecv := recvMid - recvBefore; runRecv > opBytes {
		t.Fatalf("Run received %d driver bytes, more than an operand (%d)", runRecv, opBytes)
	}
	// The fetch moves roughly one result matrix.
	if fetchRecv := recvAfter - recvMid; fetchRecv == 0 {
		t.Fatal("fetch moved no bytes")
	}
	_ = sentAfter
	_ = res

	// Pricing must agree that residency avoids driver traffic.
	mat, resid, err := s.Price(pipelineTestExpr(), binds)
	if err != nil {
		t.Fatal(err)
	}
	if mat <= resid {
		t.Fatalf("Price: materialized %d not above resident %d", mat, resid)
	}
	if n := d.NetStats().DriverBytesAvoided; n == 0 {
		t.Fatal("driver-bytes-avoided counter did not move")
	}
}

// TestPipelineWorkerKillRecovers kills a worker holding resident (and
// pinned) bands mid-pipeline: the session must rebuild the lost bands from
// lineage on the survivors and the final result must stay bit-identical.
func TestPipelineWorkerKillRecovers(t *testing.T) {
	ctx := context.Background()
	expr := pipelineTestExpr()
	inputs := pipelineTestInputs(23)

	// Failure-free reference.
	cleanAddrs, _ := startWorkers(t, 2)
	cd, err := DialOptions(cleanAddrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	cs := newSession(t, cd)
	cleanOut, err := cs.Run(ctx, expr, putAll(t, cs, inputs))
	if err != nil {
		t.Fatal(err)
	}
	want, err := cs.Fetch(ctx, cleanOut)
	if err != nil {
		t.Fatal(err)
	}

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
	if err := s.Pin(ctx, binds["v"]); err != nil {
		t.Fatal(err)
	}

	killWorker(workers[0])

	out, err := s.Run(ctx, expr, binds)
	if err != nil {
		t.Fatalf("pipeline did not survive worker kill: %v", err)
	}
	got, err := s.Fetch(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	if s.recoveries == 0 {
		t.Fatal("no recovery recorded despite worker kill")
	}

	// Lifecycle: freeing everything leaves no resident bytes on the
	// survivor — no leak.
	for _, h := range binds {
		if h.pinned {
			if err := s.Unpin(ctx, h); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Free(ctx, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Free(ctx, out); err != nil {
		t.Fatal(err)
	}
	if st := workers[1].StoreStats(); st.Handles != 0 || st.Bytes != 0 {
		t.Fatalf("survivor still holds %d handles / %d bytes after Free", st.Handles, st.Bytes)
	}
}

// TestPipelineEvictionRecompute bounds the store so intermediates are
// evicted, then keeps using a handle: the driver must transparently rebuild
// it from lineage.
func TestPipelineEvictionRecompute(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		if _, err := ServeOptions(l, WorkerOptions{MemBytes: 6 << 10}); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, l.Addr().String())
	}
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	s := newSession(t, d)

	rng := rand.New(rand.NewSource(31))
	m1 := bmat.RandomDense(rng, 16, 16, 4)
	h1, err := s.Put(ctx, m1)
	if err != nil {
		t.Fatal(err)
	}
	// Flood the store so h1's bands are evicted.
	var flood []*Handle
	for i := 0; i < 8; i++ {
		h, err := s.Put(ctx, bmat.RandomDense(rng, 16, 16, 4))
		if err != nil {
			t.Fatal(err)
		}
		flood = append(flood, h)
	}
	got, err := s.Fetch(ctx, h1)
	if err != nil {
		t.Fatalf("fetch after eviction: %v", err)
	}
	bitIdentical(t, got, m1)
	for _, h := range flood {
		_ = s.Free(ctx, h)
	}
}

// TestGNMFPipelineMatchesMaterialized runs the handle-resident GNMF and the
// eager handle-free baseline over the same seed and compares factors
// bitwise, then checks the session's price estimate favored residency.
func TestGNMFPipelineMatchesMaterialized(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(51))
	v := bmat.RandomSparse(rng, 24, 20, 4, 0.25)
	gopts := ml.GNMFOptions{Rank: 4, Seed: 11, Iterations: 2}

	s := newSession(t, d)
	g, err := ml.NewGNMFPipeline[*Handle](ctx, s, v, gopts)
	if err != nil {
		t.Fatal(err)
	}
	var residentBytes, materializedBytes, peerBytes int64 // the last, warm, iteration's
	for i := 0; i < gopts.Iterations; i++ {
		before, peerBefore := driverBytes(d), d.NetStats().PullPeerBytes
		if err := g.Step(ctx); err != nil {
			t.Fatal(err)
		}
		residentBytes = driverBytes(d) - before
		peerBytes = d.NetStats().PullPeerBytes - peerBefore
	}
	// What a warm iteration moves worker→worker is the halves of this
	// iteration's W, Hᵀ and H·Hᵀ that the other worker reads, each once: V's
	// bands were copied in the first iteration, no operand is fetched twice,
	// and a worker with no output row fetches nothing. Payload bytes of a
	// seeded input: the count is exact.
	const warmPeerBytes = 1408
	t.Logf("gnmf warm iteration peer bytes: %d", peerBytes)
	if peerBytes > warmPeerBytes {
		t.Fatalf("warm iteration moved %d bytes worker→worker, more than the %d its new operands weigh", peerBytes, warmPeerBytes)
	}
	got, err := g.Factors(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Materialized twin: the same update expressions through RunMaterialized.
	s2 := newSession(t, d)
	rng2 := rand.New(rand.NewSource(gopts.Seed))
	w := bmat.RandomDense(rng2, v.Rows, gopts.Rank, v.BlockSize)
	h := bmat.RandomDense(rng2, gopts.Rank, v.Cols, v.BlockSize)
	for i := 0; i < gopts.Iterations; i++ {
		before := driverBytes(d)
		binds := map[string]*bmat.BlockMatrix{"v": v, "w": w, "h": h}
		nh, err := s2.RunMaterialized(ctx, ml.GNMFHExpr(), binds)
		if err != nil {
			t.Fatal(err)
		}
		binds["h"] = nh
		nw, err := s2.RunMaterialized(ctx, ml.GNMFWExpr(), binds)
		if err != nil {
			t.Fatal(err)
		}
		w, h = nw, nh
		materializedBytes = driverBytes(d) - before
	}
	bitIdentical(t, got.W, w)
	bitIdentical(t, got.H, h)
	requireResidentSaves(t, "gnmf", materializedBytes, residentBytes)
}

// TestGNMFUpdatesMatchEngine runs one H update and one W update as resident
// pipelines — Wᵀ·V a Dense×CSR box with its accumulators transposed, V·Hᵀ
// a CSR×Dense one, band by band through core.MultiplyBox — and compares
// each with engine.Run at one cuboid per multiplication, where every
// output block accumulates k-ascending as the band exchange does: bit for
// bit, on whichever kernel this build selects (make test runs it again
// under -tags purego). Rank 22 leaves two lanes to the portable remainder
// loops beside the vector ones.
func TestGNMFUpdatesMatchEngine(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(71))
	inputs := map[string]*bmat.BlockMatrix{
		"v": bmat.RandomSparse(rng, 160, 128, 32, 0.1),
		"w": bmat.RandomDense(rng, 160, 22, 32),
		"h": bmat.RandomDense(rng, 22, 128, 32),
	}
	addrs, _ := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := newSession(t, d)
	binds := putAll(t, s, inputs)
	eng := localEngine(t)
	defer eng.Close()

	for _, upd := range []struct {
		name string
		expr plan.Expr
	}{{"h", ml.GNMFHExpr()}, {"w", ml.GNMFWExpr()}} {
		out, err := s.Run(ctx, upd.expr, binds)
		if err != nil {
			t.Fatalf("%s update: %v", upd.name, err)
		}
		got, err := s.Fetch(ctx, out)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eng.Run(ctx, upd.expr, inputs, engine.WithParams(core.Params{P: 1, Q: 1, R: 1}))
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, got, want)
		// The W update reads the H this one wrote.
		binds[upd.name], inputs[upd.name] = out, want
	}
}

// gnmfPipeline runs GNMF as a resident pipeline over a fresh session on d
// and returns its factors; the session is closed before it returns.
func gnmfPipeline(t *testing.T, d *Driver, v *bmat.BlockMatrix, gopts ml.GNMFOptions) *ml.GNMFResult {
	t.Helper()
	ctx := context.Background()
	s, err := d.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(ctx)
	g, err := ml.NewGNMFPipeline[*Handle](ctx, s, v, gopts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close(ctx)
	for i := 0; i < gopts.Iterations; i++ {
		if err := g.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	res, err := g.Factors(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPageRankHandlesMatchesDriver compares PageRankHandles against the
// driver-side PageRank on a local engine.
func TestPageRankHandlesMatchesDriver(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()

	rng := rand.New(rand.NewSource(61))
	// Large enough that the spread step's byte gate below measures operand
	// traffic, not frame headers.
	const n, bs = 120, 8
	adj := bmat.New(n, n, bs)
	dense := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.15 {
				dense.Set(i, j, 1)
			}
		}
	}
	for bi := 0; bi < adj.IB; bi++ {
		for bj := 0; bj < adj.JB; bj++ {
			rows, cols := adj.BlockDims(bi, bj)
			blk := matrix.NewDense(rows, cols)
			var nz bool
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					v := dense.At(bi*bs+i, bj*bs+j)
					blk.Set(i, j, v)
					nz = nz || v != 0
				}
			}
			if nz {
				adj.SetBlock(bi, bj, blk)
			}
		}
	}
	popt := ml.PageRankOptions{Damping: 0.85, MaxIterations: 8, Tolerance: 1e-12}

	want, err := ml.PageRank(context.Background(), localEngine(t), adj, popt)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, d)
	got, err := ml.PageRankHandles[*Handle](ctx, s, adj, popt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("iterations %d != %d", got.Iterations, want.Iterations)
	}
	// The spread multiply runs on different substrates (local cuboid vs
	// worker band exec), so the bar here is numerical agreement; the
	// bit-exact bar is covered by the materialized-twin tests above.
	if !got.Ranks.ToDense().EqualApprox(want.Ranks.ToDense(), 1e-12) {
		t.Fatal("handle-resident ranks differ from driver-side ranks")
	}

	// The iteration kernel — the spread multiply — both ways on the same
	// graph (adj stands in for Mᵀ: same shape, same sparsity). Resident, the
	// n×n operand is pinned and only the n×1 vectors cross the driver;
	// materialized, it re-crosses every iteration.
	spreadExpr := plan.Mul(plan.V("mt"), plan.V("r"))
	hmt, err := s.Put(ctx, adj)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(ctx, hmt); err != nil {
		t.Fatal(err)
	}
	var resident, materialized *bmat.BlockMatrix
	var residentBytes, materializedBytes int64 // the second, warm, iteration's
	for i := 0; i < 2; i++ {
		before := driverBytes(d)
		hr, err := s.Put(ctx, got.Ranks)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := s.Run(ctx, spreadExpr, map[string]*Handle{"mt": hmt, "r": hr})
		if err != nil {
			t.Fatal(err)
		}
		if resident, err = s.Fetch(ctx, hs); err != nil {
			t.Fatal(err)
		}
		_ = s.Free(ctx, hs)
		_ = s.Free(ctx, hr)
		residentBytes = driverBytes(d) - before
	}
	for i := 0; i < 2; i++ {
		before := driverBytes(d)
		materialized, err = s.RunMaterialized(ctx, spreadExpr, map[string]*bmat.BlockMatrix{"mt": adj, "r": got.Ranks})
		if err != nil {
			t.Fatal(err)
		}
		materializedBytes = driverBytes(d) - before
	}
	bitIdentical(t, resident, materialized)
	requireResidentSaves(t, "pagerank spread", materializedBytes, residentBytes)
}
