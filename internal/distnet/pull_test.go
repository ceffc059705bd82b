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
	"distme/internal/obs"
	"distme/internal/plan"
)

// The one-sided pull data plane's correctness bar is the chaos suite's:
// bit-identical to the push path under any fault schedule, with the driver
// out of the data path on the happy path.

func pullTestOperands(seed int64) (*bmat.BlockMatrix, *bmat.BlockMatrix) {
	rng := rand.New(rand.NewSource(seed))
	a := bmat.RandomDense(rng, 32, 24, 4)
	b := bmat.RandomSparse(rng, 24, 28, 4, 0.5)
	return a, b
}

// TestSessionMultiplyPullMatchesPush holds the two transfer modes — a pull
// over resident handles and Execute's push of their sources — and the local
// reference to bitwise agreement, and checks pull actually left the driver
// out of the operand path: driver-sent bytes during the pull multiply must
// be far below the operands it did not ship.
func TestSessionMultiplyPullMatchesPush(t *testing.T) {
	addrs, workers := startWorkers(t, 4)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	a, b := pullTestOperands(101)
	params := core.Params{P: 2, Q: 2, R: 1}

	s := newSession(t, d)
	ha, err := s.Put(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := s.Put(ctx, b)
	if err != nil {
		t.Fatal(err)
	}

	sentBefore, _ := d.WireBytes()
	got, gotParams, err := s.Multiply(ctx, ha, hb, MultiplyOptions{Params: &params, Transfer: core.TransferPull})
	if err != nil {
		t.Fatal(err)
	}
	sentAfter, _ := d.WireBytes()
	if gotParams != params {
		t.Fatalf("params %v != %v", gotParams, params)
	}

	want, _, err := d.Execute(ctx, a, b, MultiplyOptions{Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	sentPush, _ := d.WireBytes()
	bitIdentical(t, got, want)
	ref := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(ref, 1e-9) {
		t.Fatal("pull product differs from local reference")
	}

	// The pull run ships band references down and partials up — no operand
	// slice.
	// Q·|A| would have crossed the driver link in push mode.
	opBytes := a.StoredBytes() + b.StoredBytes()
	pullSent, pushSent := sentAfter-sentBefore, sentPush-sentAfter
	if pullSent > opBytes/2 {
		t.Fatalf("pull multiply sent %d driver bytes, operands are %d", pullSent, opBytes)
	}
	t.Logf("driver bytes: push %d, pull %d (%.1fx fewer)", pushSent, pullSent, float64(pushSent)/float64(pullSent))
	if pullSent*5 >= pushSent {
		t.Fatalf("pull sent %d driver bytes against push's %d — less than the required 5x reduction", pullSent, pushSent)
	}

	ns := d.NetStats()
	if ns.PullJobs == 0 {
		t.Fatal("no pull jobs recorded")
	}
	if ns.PullPeerBytes == 0 {
		t.Fatal("no pull peer bytes recorded — workers did not fetch from peers")
	}
	if ns.PullFallbacks != 0 {
		t.Fatalf("failure-free pull run recorded %d fallbacks", ns.PullFallbacks)
	}

	// Per-link accounting must sum to the aggregates on every worker.
	for i, w := range workers {
		st := w.StoreStats()
		var fetches, bytes int64
		for _, l := range st.PeerLinks {
			fetches += l.Fetches
			bytes += l.Bytes
		}
		if fetches != st.PeerFetches || bytes != st.PeerFetchBytes {
			t.Fatalf("worker %d per-link sums %d/%d != aggregates %d/%d",
				i, fetches, bytes, st.PeerFetches, st.PeerFetchBytes)
		}
	}
}

// TestPullFetchCountedInStoreAndPull pins that one pull fetch lands in two
// worker counters: peerFetch charges every worker→worker fetch to
// StoreStats, and preparePull charges the pull calls' fetches among them to
// WorkerPullStats as well — store.peer_* contains pull.peer_*.
func TestPullFetchCountedInStoreAndPull(t *testing.T) {
	addrs, workers := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	a, b := pullTestOperands(104)
	s := newSession(t, d)
	ha, err := s.Put(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := s.Put(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	counts := func() (storeFetches, storeBytes, pullFetches, pullBytes int64) {
		for _, w := range workers {
			st, pl := w.StoreStats(), w.PullStats()
			storeFetches, storeBytes = storeFetches+st.PeerFetches, storeBytes+st.PeerFetchBytes
			pullFetches, pullBytes = pullFetches+pl.PeerFetches, pullBytes+pl.PeerBytes
		}
		return
	}
	sf0, sb0, pf0, pb0 := counts()
	params := core.Params{P: 2, Q: 2, R: 1}
	if _, _, err := s.Multiply(ctx, ha, hb, MultiplyOptions{Params: &params, Transfer: core.TransferPull}); err != nil {
		t.Fatal(err)
	}
	sf1, sb1, pf1, pb1 := counts()
	storeFetches, storeBytes, pullFetches, pullBytes := sf1-sf0, sb1-sb0, pf1-pf0, pb1-pb0
	t.Logf("store +%d fetches / %d bytes, pull +%d fetches / %d bytes", storeFetches, storeBytes, pullFetches, pullBytes)
	if pullFetches == 0 || pullBytes == 0 {
		t.Fatal("the pull multiply fetched nothing from a peer")
	}
	if storeFetches != pullFetches || storeBytes != pullBytes {
		t.Fatalf("store rose by %d fetches / %d bytes, pull by %d / %d: the one fetch must raise both alike",
			storeFetches, storeBytes, pullFetches, pullBytes)
	}
}

// TestSessionMultiplyPullDedup repeats a pull multiply in one session: every
// cut of a remote band a run reads stays on its reader as a replica, whole
// band or not, so once every worker has run every column the repeats' reads
// are all replica hits — no peer byte moves — and the product is the same
// bit for bit. Homes rotate by one member a job: a plan of three columns or
// fewer on three workers has run every column everywhere after three runs.
func TestSessionMultiplyPullDedup(t *testing.T) {
	for _, tc := range []struct {
		name string
		// a is m×k and b k×n, in 8-blocks.
		m, k, n int
		params  core.Params
		memory  int64 // WorkerMemBytes; 0 for the default
		links   int   // the calls of one run
		runs    int
		warm    int // the first run that must move nothing
	}{
		// P = 3 over three workers cuts A's rows as its bands are cut, and
		// Q = R = 1 makes B's box all of B: every band a column reads is
		// read whole.
		{name: "whole bands", m: 32, k: 24, n: 32, params: core.Params{P: 3, Q: 1, R: 1}, links: 3, runs: 2, warm: 2},
		// A column's A box cuts the middle band's rows, its B box half of
		// every band's columns.
		{name: "cut bands", m: 48, k: 24, n: 48, params: core.Params{P: 2, Q: 2, R: 1}, links: 4, runs: 6, warm: 4},
		// R = 2 under a call bound below a column's 9 KiB of operands and
		// above its larger slab's 6 KiB: each column is two links on its
		// holder, and each link reads its slab's k range of the bands.
		{name: "k-cut links", m: 48, k: 24, n: 48, params: core.Params{P: 2, Q: 2, R: 2}, memory: 7 << 10, links: 8, runs: 6, warm: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs, workers := startWorkers(t, 3)
			tr := obs.NewTracer()
			dopts := Options{Tracer: tr}
			d, err := DialOptions(addrs, dopts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(102))
			a := bmat.RandomDense(rng, tc.m, tc.k, 8)
			b := bmat.RandomDense(rng, tc.k, tc.n, 8)

			s := newSession(t, d)
			ha, err := s.Put(ctx, a)
			if err != nil {
				t.Fatal(err)
			}
			hb, err := s.Put(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			replicaHits := func() (n int64) {
				for _, w := range workers {
					n += w.StoreStats().ReplicaHits
				}
				return n
			}
			opts := MultiplyOptions{Params: &tc.params, Transfer: core.TransferPull, WorkerMemBytes: tc.memory}
			var first *bmat.BlockMatrix
			for run := 1; run <= tc.runs; run++ {
				before, hitsBefore := d.NetStats(), replicaHits()
				got, _, err := s.Multiply(ctx, ha, hb, opts)
				if err != nil {
					t.Fatal(err)
				}
				delta := d.NetStats().Sub(before)
				t.Logf("run %d: %d peer fetches, %d peer bytes", run, delta.PullPeerFetches, delta.PullPeerBytes)
				if run == 1 {
					first = got
					if delta.PullPeerBytes == 0 {
						t.Fatal("the first pull multiply fetched nothing from a peer")
					}
					_, byName := spanIndex(tr.Snapshot().Spans)
					if n := len(byName["rpc.multiply"]); n != tc.links {
						t.Fatalf("%d multiply calls, want %d", n, tc.links)
					}
					continue
				}
				bitIdentical(t, got, first)
				if run < tc.warm {
					continue
				}
				if delta.PullPeerFetches != 0 || delta.PullPeerBytes != 0 {
					t.Fatalf("run %d fetched %d times, %d peer bytes; want none", run, delta.PullPeerFetches, delta.PullPeerBytes)
				}
				if hits := replicaHits(); hits <= hitsBefore {
					t.Fatalf("run %d added no replica hits (%d -> %d)", run, hitsBefore, hits)
				}
			}
		})
	}
}

// TestPullRequestNamesBandsNotBlocks: a pull call names each operand by its
// handle and bands, so what the driver sends does not grow with the
// operands' block count. The same 128×128 product is pulled at block sides
// 32 and 8 — 16 and 256 blocks an operand — under the same plan; the
// requests of the finer grid may differ only in their wider uvarints.
func TestPullRequestNamesBandsNotBlocks(t *testing.T) {
	ctx := context.Background()
	params := core.Params{P: 2, Q: 2, R: 2}
	sent := map[int]int64{}
	for _, bs := range []int{32, 8} {
		addrs, _ := startWorkers(t, 2)
		opts := fastOpts()
		opts.DisableHeartbeat = true // no pings in the byte counts
		d, err := DialOptions(addrs, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		rng := rand.New(rand.NewSource(108))
		a, b := bmat.RandomDense(rng, 128, 128, bs), bmat.RandomDense(rng, 128, 128, bs)
		s := newSession(t, d)
		ha, err := s.Put(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := s.Put(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		before, _ := d.WireBytes()
		got, _, err := s.Multiply(ctx, ha, hb, MultiplyOptions{Params: &params, Transfer: core.TransferPull})
		if err != nil {
			t.Fatal(err)
		}
		after, _ := d.WireBytes()
		if ns := d.NetStats(); ns.PullFallbacks != 0 {
			t.Fatalf("block side %d: %d pull columns downgraded to push", bs, ns.PullFallbacks)
		}
		if !got.ToDense().EqualApprox(matrix.Mul(a.ToDense(), b.ToDense()).Dense(), 1e-9) {
			t.Fatalf("block side %d: pull product wrong", bs)
		}
		sent[bs] = after - before
	}
	t.Logf("driver bytes sent: %d at 16 blocks an operand, %d at 256", sent[32], sent[8])
	if sent[8] > sent[32]+sent[32]/8 {
		t.Fatalf("16x the blocks sent %d driver bytes against %d: the request grows with the block count", sent[8], sent[32])
	}
}

// TestPullPeerKilledFallsBack kills one band owner, then pull-multiplies:
// workers that cannot reach the dead peer report the failed resolution, the
// driver downgrades those cuboids to inline push, and the product stays
// bit-identical to a failure-free run.
func TestPullPeerKilledFallsBack(t *testing.T) {
	ctx := context.Background()
	a, b := pullTestOperands(103)
	params := core.Params{P: 2, Q: 2, R: 1}

	// Failure-free reference.
	cleanAddrs, _ := startWorkers(t, 3)
	cd, err := DialOptions(cleanAddrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	cs := newSession(t, cd)
	cha, err := cs.Put(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	chb, err := cs.Put(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cs.Multiply(ctx, cha, chb, MultiplyOptions{Params: &params, Transfer: core.TransferPull})
	if err != nil {
		t.Fatal(err)
	}

	addrs, workers := startWorkers(t, 3)
	opts := fastOpts()
	opts.DisableHeartbeat = true // death surfaces through the calls themselves
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := newSession(t, d)
	ha, err := s.Put(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := s.Put(ctx, b)
	if err != nil {
		t.Fatal(err)
	}

	killWorker(workers[0])

	got, _, err := s.Multiply(ctx, ha, hb, MultiplyOptions{Params: &params, Transfer: core.TransferPull})
	if err != nil {
		t.Fatalf("pull multiply did not survive peer kill: %v", err)
	}
	bitIdentical(t, got, want)
	if d.NetStats().PullFallbacks == 0 {
		t.Fatal("no pull fallback recorded despite a dead band owner")
	}
}

// TestPullEvictedHandleRebuilds pull-multiplies a pipeline-produced handle
// (no driver-side source, so no inline downgrade exists) whose bands were
// evicted: the session must rebuild it from lineage and the product must
// stay bit-identical.
func TestPullEvictedHandleRebuilds(t *testing.T) {
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
	d, err := DialOptions(addrs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	s := newSession(t, d)

	rng := rand.New(rand.NewSource(104))
	am := bmat.RandomDense(rng, 16, 16, 4)
	bm := bmat.RandomDense(rng, 16, 12, 4)
	ha, err := s.Put(ctx, am)
	if err != nil {
		t.Fatal(err)
	}
	// A derived handle: 2·A has lineage but no driver-side blocks, so a
	// failed pull read cannot downgrade to an inline push.
	h2, err := s.Run(ctx, plan.Times(2, plan.V("a")), map[string]*Handle{"a": ha})
	if err != nil {
		t.Fatal(err)
	}
	// Flood the bounded stores so h2's bands (and ha's) are evicted...
	var flood []*Handle
	for i := 0; i < 8; i++ {
		h, err := s.Put(ctx, bmat.RandomDense(rng, 16, 16, 4))
		if err != nil {
			t.Fatal(err)
		}
		flood = append(flood, h)
	}
	// ...while B, put last, stays resident.
	hb, err := s.Put(ctx, bm)
	if err != nil {
		t.Fatal(err)
	}

	params := core.Params{P: 2, Q: 1, R: 1}
	got, _, err := s.Multiply(ctx, h2, hb, MultiplyOptions{Params: &params, Transfer: core.TransferPull})
	if err != nil {
		t.Fatalf("pull multiply over evicted handle: %v", err)
	}
	ref := matrix.Mul(matrix.Scale(2, am.ToDense()), bm.ToDense()).Dense()
	if !got.ToDense().EqualApprox(ref, 1e-9) {
		t.Fatal("rebuilt pull product differs from reference")
	}
	if s.recoveries == 0 {
		t.Fatal("no lineage recovery recorded despite evicted bands")
	}
	for _, h := range flood {
		_ = s.Free(ctx, h)
	}
}

// TestPullEvictedSecondOperandRebuildsOnce evicts only B's bands on an
// unchanged placement. The worker's refusal names the handle whose bands
// failed, so the first recovery is the targeted rebuild of B — not of A, the
// operand recovery defaults to — and the retry after it succeeds: exactly
// one recovery, A untouched, product bit-identical.
func TestPullEvictedSecondOperandRebuildsOnce(t *testing.T) {
	addrs, workers := startWorkers(t, 2)
	opts := fastOpts()
	opts.DisableHeartbeat = true
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	s := newSession(t, d)

	rng := rand.New(rand.NewSource(106))
	ha, err := s.Put(ctx, bmat.RandomDense(rng, 16, 16, 4))
	if err != nil {
		t.Fatal(err)
	}
	hb0, err := s.Put(ctx, bmat.RandomDense(rng, 16, 12, 4))
	if err != nil {
		t.Fatal(err)
	}
	// B is derived: lineage but no driver-side blocks, so a failed pull
	// read cannot downgrade to an inline push and must surface.
	hb, err := s.Run(ctx, plan.Times(2, plan.V("b")), map[string]*Handle{"b": hb0})
	if err != nil {
		t.Fatal(err)
	}
	mo := MultiplyOptions{Params: &core.Params{P: 2, Q: 1, R: 2}, Transfer: core.TransferPull}
	want, _, err := s.Multiply(ctx, ha, hb, mo)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range workers {
		w.getStore().free([]uint64{hb.id})
	}
	aID := ha.id
	got, _, err := s.Multiply(ctx, ha, hb, mo)
	if err != nil {
		t.Fatalf("pull multiply over evicted B: %v", err)
	}
	bitIdentical(t, got, want)
	if s.recoveries != 1 {
		t.Fatalf("%d recoveries, want exactly 1 (the targeted rebuild of B)", s.recoveries)
	}
	if ha.id != aID {
		t.Fatal("A was rebuilt though only B's bands were evicted")
	}
}

// TestPullAddWorkerMidJob adds a fresh worker while pull cuboids are being
// scheduled: the newcomer holds none of the operand bands, so every cuboid
// it claims resolves purely from peers — and the product stays bit-identical.
func TestPullAddWorkerMidJob(t *testing.T) {
	ctx := context.Background()
	a, b := pullTestOperands(105)
	params := core.Params{P: 4, Q: 1, R: 1}

	addrs, _ := startWorkers(t, 2)
	freshAddrs, _ := startWorkers(t, 1)
	d, err := DialOptions(addrs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := newSession(t, d)
	ha, err := s.Put(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := s.Put(ctx, b)
	if err != nil {
		t.Fatal(err)
	}

	want, _, err := s.Multiply(ctx, ha, hb, MultiplyOptions{Params: &params, Transfer: core.TransferPull})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- d.AddWorker(freshAddrs[0]) }()
	got, _, err := s.Multiply(ctx, ha, hb, MultiplyOptions{Params: &params, Transfer: core.TransferPull})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)

	// With the newcomer settled in the pool, a third run may assign cuboids
	// to it; it owns nothing, so resolution is all-peer — still identical.
	again, _, err := s.Multiply(ctx, ha, hb, MultiplyOptions{Params: &params, Transfer: core.TransferPull})
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, again, want)
}

// TestEntryPointPicksPlane: the operands' residence picks the data plane.
// Execute takes driver-side operands and pushes them, so it refuses
// TransferPull; Session.Multiply takes resident handles and pulls them, so
// it refuses TransferPush; each refusal names the other entry point. With
// nil Params, Execute on four workers takes core.Optimize's (P,Q,R) and
// still pushes — no call goes out as pull — and a pull of the same product
// over the resident operands agrees with it bit for bit.
func TestEntryPointPicksPlane(t *testing.T) {
	addrs, _ := startWorkers(t, 4)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	a, b := pullTestOperands(107)

	if _, _, err := d.Execute(ctx, a, b, MultiplyOptions{Transfer: core.TransferPull}); err == nil || !strings.Contains(err.Error(), "Session.Multiply") {
		t.Fatalf("Execute with TransferPull: %v, want a refusal naming Session.Multiply", err)
	}
	s := newSession(t, d)
	ha, err := s.Put(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := s.Put(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Multiply(ctx, ha, hb, MultiplyOptions{Transfer: core.TransferPush}); err == nil || !strings.Contains(err.Error(), "Driver.Execute") {
		t.Fatalf("Session.Multiply with TransferPush: %v, want a refusal naming Driver.Execute", err)
	}

	before := d.NetStats()
	got, params, err := d.Execute(ctx, a, b, MultiplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := d.NetStats().Sub(before).PullJobs; n != 0 {
		t.Fatalf("Execute with nil Params sent %d pull calls, want push only", n)
	}
	if want, err := core.Optimize(core.ShapeOf(a, b), 1<<30, 4); err != nil || params != want {
		t.Fatalf("Execute ran %v, core.Optimize picks %v (%v)", params, want, err)
	}
	ref := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(ref, 1e-9) {
		t.Fatal("Execute differs from local reference")
	}
	pulled, _, err := s.Multiply(ctx, ha, hb, MultiplyOptions{Params: &params, Transfer: core.TransferPull})
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, pulled, got)
}

// TestPipelinePullMatchesPush runs the multi-operator pipeline on three
// workers — every mul and transpose streams peer bands — and compares it
// with engine.Run on the same expression; the streamed band exchange must
// also account its worker→worker traffic. (The name dates from a second,
// eager-gather exchange path; the engine is the reference now.)
func TestPipelinePullMatchesPush(t *testing.T) {
	ctx := context.Background()
	expr := pipelineTestExpr()
	inputs := pipelineTestInputs(108)

	addrs, _ := startWorkers(t, 3)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := newSession(t, d)
	out, err := s.Run(ctx, expr, putAll(t, s, inputs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Fetch(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	// At one cuboid per multiplication the engine accumulates every output
	// block k-ascending, the order the band exchange streams B in, so the
	// comparison is bit for bit.
	eng := localEngine(t)
	defer eng.Close()
	want, _, err := eng.Run(ctx, expr, inputs, engine.WithParams(core.Params{P: 1, Q: 1, R: 1}))
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	ns := d.NetStats()
	if ns.PullJobs == 0 {
		t.Fatal("pull pipeline recorded no pull jobs")
	}
	if ns.PullPeerBytes == 0 {
		t.Fatal("pull pipeline recorded no peer bytes")
	}
}
