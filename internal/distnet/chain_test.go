package distnet

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/obs"
)

// cuboidReference is core.MultiplyCuboid's product over the simulated
// cluster at params: the bits every placement must give.
func cuboidReference(t *testing.T, a, b *bmat.BlockMatrix, params core.Params) *bmat.BlockMatrix {
	t.Helper()
	cfg := cluster.LaptopConfig()
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MultiplyCuboid(context.Background(), a, b, params, core.Env{Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// heldSums counts the running sums the workers keep, and the takes waiting.
func heldSums(workers ...*Worker) int {
	n := 0
	for _, w := range workers {
		st := w.getStore()
		st.mu.Lock()
		n += len(st.sums)
		st.mu.Unlock()
	}
	return n
}

// TestChainHoldersRotateAcrossJobs: three (3,2,2) jobs on three workers.
// Each runs as the chain on h = 2 holders, so each job puts its 6 columns'
// links on two workers and none on the third. P·Q·R = 12 is a multiple of
// the live count, so holders taken from the job's ring base would be the
// same two every time; taken from the chain cursor they rotate, and after
// the three jobs every worker has served the links of two.
func TestChainHoldersRotateAcrossJobs(t *testing.T) {
	params := core.Params{P: 3, Q: 2, R: 2}
	addrs, workers := startWorkers(t, 3)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(171))
	a, b := bmat.RandomDense(rng, 24, 32, 8), bmat.RandomDense(rng, 32, 16, 8)
	want := cuboidReference(t, a, b, params)
	before := servedCounts(workers)
	for job := 0; job < 3; job++ {
		got, err := execute(d, a, b, params)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, got, want)
		after := servedCounts(workers)
		delta := make([]int, len(after))
		for i := range after {
			delta[i] = after[i] - before[i]
		}
		if !equalSorted(delta, []int{0, 6, 6}) {
			t.Errorf("job %d: workers served %v links, want two 6 and one 0", job, delta)
		}
		before = after
	}
	for i, n := range before {
		if n != 12 {
			t.Errorf("worker %d served %d links over three jobs, want 12", i, n)
		}
	}
}

// TestChainAtServeThetaGoesOutUnsplit: the benchmark's two cold shapes at
// the θt their serve runs with — dense 768³ at (2,2,2) under 4 MiB, and a
// 0.1 % CSR 8192² times 8192×64 dense at (3,1,4) under 3 MiB — on two
// workers. Each column's operands are over θt, so a homes column would be
// cut into links on its holder; the chain's links, one holder's slabs each
// (≈ 2.4 and 2.3 MB), are inside it. So the jobs go out as uncut chains:
// 2·P·Q rpc.multiply spans of R/2 slabs each, every C block back once, and
// |C| handed between the workers.
func TestChainAtServeThetaGoesOutUnsplit(t *testing.T) {
	rng := rand.New(rand.NewSource(4210))
	for _, tc := range []struct {
		name   string
		a, b   *bmat.BlockMatrix
		params core.Params
		θt     int64
	}{
		{"dense_cold", bmat.RandomDense(rng, 768, 768, 128), bmat.RandomDense(rng, 768, 768, 128), core.Params{P: 2, Q: 2, R: 2}, 4 << 20},
		{"sparse_tall", bmat.RandomSparse(rng, 8192, 8192, 256, 0.001), bmat.RandomDense(rng, 8192, 64, 256), core.Params{P: 3, Q: 1, R: 4}, 3 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTracer()
			addrs, workers := startWorkers(t, 2)
			opts := fastOpts()
			opts.DisableHeartbeat = true
			opts.Tracer = tr
			d, err := DialOptions(addrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			before := d.NetStats()
			meter := &JobMeter{}
			if _, _, err := d.Execute(WithJobMeter(context.Background(), meter), tc.a, tc.b,
				MultiplyOptions{Params: &tc.params, WorkerMemBytes: tc.θt}); err != nil {
				t.Fatal(err)
			}
			delta := d.NetStats().Sub(before)

			_, byName := spanIndex(tr.Snapshot().Spans)
			if got := spanAttr(byName["distnet.multiply"][0], "placement"); got != "chain" {
				t.Fatalf("placement %q, want chain", got)
			}
			checkSpansPerColumn(t, tr.Snapshot().Spans, "rpc.multiply", tc.params, 2, tc.params.R/2)
			if n, want := len(byName["rpc.multiply"]), 2*tc.params.P*tc.params.Q; n != want {
				t.Errorf("%d rpc.multiply spans, want %d", n, want)
			}
			if delta.CuboidRetries != 0 {
				t.Errorf("%d retries, want none", delta.CuboidRetries)
			}
			cBytes := int64(tc.a.Rows) * int64(tc.b.Cols) * 8
			if got := meter.Stats().ReplyBytes; got < cBytes || got > cBytes+cBytes/100 {
				t.Errorf("%d reply bytes, want |C| = %d and its block headers", got, cBytes)
			}
			var peer int64
			for _, w := range workers {
				peer += w.StoreStats().PeerFetchBytes
			}
			if peer != cBytes {
				t.Errorf("%d running-sum bytes between the workers, want |C| = %d", peer, cBytes)
			}
		})
	}
}

// startGatedWorker serves a worker whose multiplies each call gate before
// they run; its other calls answer at once.
func startGatedWorker(t *testing.T, gate func()) (string, *Worker) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{store: newHandleStore(0)}
	handlers := w.handlers()
	multiply := handlers[methodMultiply]
	handlers[methodMultiply] = func(args *codec.FrameReader) (codec.Call, error) {
		call, err := multiply(args)
		return func() (func(*codec.FrameWriter) error, error) {
			gate()
			return call()
		}, err
	}
	w.conns = codec.Listen(l, workerPreamble, handlers, workerErrors)
	t.Cleanup(w.conns.Close)
	return l.Addr().String(), w
}

// TestChainKilledHolderFallsBack kills holder 1 mid-job: holder 0 has run
// its link of every column and keeps their running sums, while holder 1's
// links wait to run. Every column re-runs all its links on holders picked
// afresh from the live members — the survivor twice, so its second link
// takes the sum its first left there — and the product keeps its bits. The
// sums nobody will take leave holder 0 once their bound passes.
func TestChainKilledHolderFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(4211))
	a, b := bmat.RandomDense(rng, 48, 40, 8), bmat.RandomDense(rng, 40, 32, 8)
	params := core.Params{P: 2, Q: 2, R: 2}
	want := cuboidReference(t, a, b, params)

	addrs, workers := startWorkers(t, 1)
	gate := make(chan struct{})
	defer close(gate)
	gatedAddr, gated := startGatedWorker(t, func() { <-gate })
	opts := fastOpts()
	opts.DisableHeartbeat = true // the death surfaces through the calls
	opts.CallTimeout = 8 * time.Second
	d, err := DialOptions(append(addrs, gatedAddr), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var got *bmat.BlockMatrix
	done := make(chan error, 1)
	go func() {
		var err error
		got, err = execute(d, a, b, params)
		done <- err
	}()
	// Holder 0 runs slab 0 of all four columns; then holder 1 dies with its
	// four links in flight.
	deadline := time.Now().Add(5 * time.Second)
	for workers[0].Multiplies() < params.P*params.Q {
		if time.Now().After(deadline) {
			t.Fatal("holder 0 never ran its links")
		}
		time.Sleep(time.Millisecond)
	}
	killWorker(gated)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	if n := d.NetStats().CuboidRetries; n < 1 {
		t.Errorf("%d retries after holder 1 died, want ≥ 1", n)
	}
	if served, want := workers[0].Multiplies(), params.P*params.Q+params.Tasks(); served != want {
		t.Errorf("holder 0 served %d cuboids, want %d: its links, then every column's links", served, want)
	}
	if n := heldSums(workers[0]); n != params.P*params.Q {
		t.Errorf("holder 0 keeps %d running sums for the dead holder, want %d", n, params.P*params.Q)
	}
	bound := opts.CallTimeout / 4
	deadline = time.Now().Add(bound + 5*time.Second)
	for heldSums(workers[0]) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d running sums still held %v past their bound", heldSums(workers[0]), bound)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLostSumChargesOnlyItsCause kills holder 0 while holder 1's links wait
// to take its sums: holder 1's links fail only because the sums went with
// holder 0, so the failed attempt is charged to holder 0 alone.
func TestLostSumChargesOnlyItsCause(t *testing.T) {
	rng := rand.New(rand.NewSource(4214))
	a, b := bmat.RandomDense(rng, 48, 40, 8), bmat.RandomDense(rng, 40, 32, 8)
	params := core.Params{P: 2, Q: 2, R: 2}
	want := cuboidReference(t, a, b, params)

	gate := make(chan struct{})
	defer close(gate)
	gatedAddr, gated := startGatedWorker(t, func() { <-gate })
	addrs, _ := startWorkers(t, 1)
	opts := fastOpts()
	opts.DisableHeartbeat = true
	opts.CallTimeout = 8 * time.Second
	d, err := DialOptions(append([]string{gatedAddr}, addrs...), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var got *bmat.BlockMatrix
	done := make(chan error, 1)
	go func() {
		var err error
		got, err = execute(d, a, b, params)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for heldSums(gated) < params.P*params.Q {
		if time.Now().After(deadline) {
			t.Fatal("holder 1's links never waited on holder 0")
		}
		time.Sleep(time.Millisecond)
	}
	killWorker(gated)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	for _, m := range d.members {
		retries := m.events.Load().Retries
		if m.addr == gatedAddr && retries < 1 {
			t.Errorf("dead holder 0 charged %d retries, want ≥ 1", retries)
		}
		if m.addr != gatedAddr && retries != 0 {
			t.Errorf("holder 1 charged %d retries for sums lost with holder 0, want 0", retries)
		}
	}
}

// TestCutLinksKeepTheirHoldersSlot: four chain columns cut at the bound on
// two workers with one in-flight call each, holder 0 slow. Each holder's
// slab group is two links; the second takes the sum the first left on that
// worker, which keeps it for a quarter of the call timeout, less than the
// time of three of holder 0's calls. A holder's slot is kept across its
// consecutive links, so the second goes out at once instead of queueing
// behind the other columns' first links, and no column is retried.
func TestCutLinksKeepTheirHoldersSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(4215))
	a, b := bmat.RandomDense(rng, 48, 48, 8), bmat.RandomDense(rng, 48, 48, 8)
	params := core.Params{P: 2, Q: 2, R: 4}
	want := cuboidReference(t, a, b, params)

	slowAddr, _ := startGatedWorker(t, func() { time.Sleep(80 * time.Millisecond) })
	addrs, workers := startWorkers(t, 1)
	opts := fastOpts()
	opts.DisableHeartbeat = true
	opts.PerWorkerInflight = 1
	opts.CallTimeout = 800 * time.Millisecond
	d, err := DialOptions(append([]string{slowAddr}, addrs...), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, _, err := d.Execute(context.Background(), a, b, MultiplyOptions{Params: &params, WorkerMemBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	if st := d.NetStats(); st.CuboidRetries != 0 || st.LocalFallbacks != 0 {
		t.Errorf("%d retries and %d local fallbacks, want none", st.CuboidRetries, st.LocalFallbacks)
	}
	if n := workers[0].Multiplies(); n != 2*params.P*params.Q {
		t.Errorf("holder 1 served %d cuboids, want %d: slabs 2 and 3 of every column", n, 2*params.P*params.Q)
	}
}

// TestConcurrentChainsDoNotDeadlock: three chain jobs at once with one
// in-flight call a worker. Uncut, on three workers: every link waits only on
// a holder of lower member index, and the links of the first member never
// wait. Cut at the bound, on two workers: each holder's two slabs are two
// links, which go out one after another, each once its predecessor has
// replied, so no link waits on a sum not yet made. Either way all three
// finish — far inside the call timeout — with no retry and their bits.
func TestConcurrentChainsDoNotDeadlock(t *testing.T) {
	for _, tc := range []struct {
		name    string
		params  core.Params
		workers int
		θt      int64 // 8 KiB: a holder's slab group of 9 KiB is cut in two
		links   int   // a column's
	}{
		{"uncut", core.Params{P: 2, Q: 2, R: 3}, 3, 0, 3},
		{"cut at the bound", core.Params{P: 2, Q: 2, R: 4}, 2, 8 << 10, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4212))
			params := tc.params
			addrs, workers := startWorkers(t, tc.workers)
			tr := obs.NewTracer()
			opts := fastOpts()
			opts.DisableHeartbeat = true
			opts.PerWorkerInflight = 1
			opts.CallTimeout = 20 * time.Second
			opts.Tracer = tr
			d, err := DialOptions(addrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			type job struct{ a, b, want, got *bmat.BlockMatrix }
			jobs := make([]*job, 3)
			for i := range jobs {
				a, b := bmat.RandomDense(rng, 48, 48, 8), bmat.RandomDense(rng, 48, 48, 8)
				jobs[i] = &job{a: a, b: b, want: cuboidReference(t, a, b, params)}
			}
			before := d.NetStats()
			start := time.Now()
			var wg sync.WaitGroup
			errs := make([]error, len(jobs))
			for i, j := range jobs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, _, err := d.Execute(context.Background(), j.a, j.b, MultiplyOptions{Params: &params, WorkerMemBytes: tc.θt})
					j.got, errs[i] = c, err
				}()
			}
			wg.Wait()
			if took := time.Since(start); took > opts.CallTimeout/4 {
				t.Errorf("three concurrent chains took %v, want well inside the %v call timeout", took, opts.CallTimeout)
			}
			for i, j := range jobs {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				bitIdentical(t, j.got, j.want)
			}
			if delta := d.NetStats().Sub(before); delta.CuboidRetries != 0 {
				t.Errorf("%d retries, want none", delta.CuboidRetries)
			}
			if n := heldSums(workers...); n != 0 {
				t.Errorf("%d running sums held after the jobs, want 0", n)
			}
			_, byName := spanIndex(tr.Snapshot().Spans)
			for _, root := range byName["distnet.multiply"] {
				if got := spanAttr(root, "placement"); got != "chain" {
					t.Errorf("placement %q, want chain", got)
				}
			}
			if n, want := len(byName["rpc.multiply"]), len(jobs)*params.P*params.Q*tc.links; n != want {
				t.Errorf("%d rpc.multiply spans, want %d", n, want)
			}
		})
	}
}

// TestColumnOverCallBoundStaysOnOneHolder: one column (P = Q = 1, R = 4)
// at a θt below one slab's operands, on one worker with one in-flight call:
// the column goes out as four links of one slab on that worker, each past
// the first taking the sum the one before left there. The product has the
// bits of core.MultiplyCuboid, C comes back once — not as four partials —
// and nothing crosses between workers.
func TestColumnOverCallBoundStaysOnOneHolder(t *testing.T) {
	rng := rand.New(rand.NewSource(4213))
	a, b := bmat.RandomDense(rng, 24, 64, 8), bmat.RandomDense(rng, 64, 16, 8)
	params := core.Params{P: 1, Q: 1, R: 4}
	want := cuboidReference(t, a, b, params)
	addrs, workers := startWorkers(t, 1)
	tr := obs.NewTracer()
	opts := fastOpts()
	opts.DisableHeartbeat = true
	opts.PerWorkerInflight = 1
	opts.Tracer = tr
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	meter := &JobMeter{}
	// A slab is 2×3 A blocks and 2×2 B blocks of 512 bytes: 5 KiB.
	got, _, err := d.Execute(WithJobMeter(context.Background(), meter), a, b, MultiplyOptions{Params: &params, WorkerMemBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	_, byName := spanIndex(tr.Snapshot().Spans)
	if n := len(byName["rpc.multiply"]); n != params.R {
		t.Errorf("%d rpc.multiply spans, want %d links", n, params.R)
	}
	for _, sp := range byName["rpc.multiply"] {
		if sp.Worker != addrs[0] || spanAttr(sp, "slabs") != "1" {
			t.Errorf("rpc.multiply on %q of %s slabs, want one slab on %s", sp.Worker, spanAttr(sp, "slabs"), addrs[0])
		}
	}
	var cBytes int64
	for _, key := range got.Keys() {
		cBytes += codec.EncodedBytes(got.Block(key.I, key.J))
	}
	if st := meter.Stats(); st.ReplyBytes != cBytes || st.Retries != 0 {
		t.Errorf("%d reply bytes and %d retries, want |C| = %d once and none", st.ReplyBytes, st.Retries, cBytes)
	}
	if peer := workers[0].StoreStats().PeerFetchBytes; peer != 0 {
		t.Errorf("%d bytes between workers, want 0", peer)
	}
	if n := heldSums(workers...); n != 0 {
		t.Errorf("%d running sums held after the job, want 0", n)
	}
}

// TestHostileChainLinks: a chain request whose slab group lies outside its
// column, or that names a predecessor as its first link (or none past it),
// is refused as errWire before it computes; one that names a key its
// predecessor never made fails as a typed peer-fetch error once the
// predecessor's wait has passed, one that names its own worker as
// predecessor — a self-take — of a sum never made answers errNoSum once its
// own wait has passed, and a take of an unknown key answers errNoSum after
// its wait — none past it.
func TestHostileChainLinks(t *testing.T) {
	addrs, workers := startWorkers(t, 2)
	recs := wireSeedRecs()
	prepareRecs(t, recs)
	link := func(l chainLink) *multiplyArgs {
		return &multiplyArgs{IHi: 1, JHi: 1, KHi: 2, slabs: 2, ABlocks: recs[:1], link: &l}
	}
	const wait = 200 * time.Millisecond
	for _, tc := range []struct {
		name string
		args *multiplyArgs
	}{
		{"empty slab group", link(chainLink{lo: 1, hi: 1, self: addrs[1], prev: addrs[0], wait: wait})},
		{"slab group past R", link(chainLink{lo: 1, hi: 3, self: addrs[1], prev: addrs[0], wait: wait})},
		{"first link with a predecessor", link(chainLink{lo: 0, hi: 1, self: addrs[1], prev: addrs[0], wait: wait})},
		{"later link without one", link(chainLink{lo: 1, hi: 2, self: addrs[1], wait: wait})},
	} {
		rd := codec.NewFrameReader(bytes.NewReader(frameOf(bodyOf(t, codec.Writes(blockSender{}.appendMultiplyArgs, tc.args)))))
		if err := rd.Next(); err != nil {
			t.Fatal(err)
		}
		if err := decodeMultiplyArgs(rd, new(multiplyArgs), newHandleStore(0)); !errors.Is(err, errWire) {
			t.Errorf("%s: %v, want errWire", tc.name, err)
		}
	}

	client, err := dialWorker(addrs[1], time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	err = client.Call(context.Background(), methodMultiply,
		codec.Writes(blockSender{}.appendMultiplyArgs, link(chainLink{id: 77, lo: 1, hi: 2, self: addrs[1], prev: addrs[0], wait: wait})),
		codec.Reads(decodeMultiplyReply, new(multiplyReply)))
	var fe *peerFetchError
	if !errors.As(err, &fe) {
		t.Errorf("a link whose predecessor never made its sum: %v, want a peer-fetch error", err)
	}
	if took := time.Since(start); took < wait || took > wait+2*time.Second {
		t.Errorf("the link failed after %v, want its %v wait", took, wait)
	}

	start = time.Now()
	err = client.Call(context.Background(), methodMultiply,
		codec.Writes(blockSender{}.appendMultiplyArgs, link(chainLink{id: 79, lo: 1, hi: 2, self: addrs[1], prev: addrs[1], wait: wait})),
		codec.Reads(decodeMultiplyReply, new(multiplyReply)))
	if !errors.Is(err, errNoSum) {
		t.Errorf("a self-take of a sum never made: %v, want errNoSum", err)
	}
	if took := time.Since(start); took < wait || took > wait+2*time.Second {
		t.Errorf("the self-take failed after %v, want its %v wait", took, wait)
	}

	peer, err := dialWorker(addrs[0], time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	start = time.Now()
	err = peer.Call(context.Background(), methodTakeSum, codec.Writes(appendSumArgs, &sumArgs{id: 78, upTo: 1, wait: wait}), nil)
	if !errors.Is(err, errNoSum) {
		t.Errorf("a take of an unknown sum: %v, want errNoSum", err)
	}
	if took := time.Since(start); took < wait || took > wait+2*time.Second {
		t.Errorf("the take failed after %v, want its %v wait", took, wait)
	}
	if n := heldSums(workers...); n != 0 {
		t.Errorf("%d running sums or takes left behind, want none", n)
	}
}

// TestSumOfAnOldEpochOutlivesNewerPuts: a pull link's sum carries its
// session's epoch, which can be far behind the push jobs' on the same
// worker. Kept under the newest epoch seen, it is not retired by the next
// job's sum, and a sum that really falls behind the window still is, at the
// window's sweep.
func TestSumOfAnOldEpochOutlivesNewerPuts(t *testing.T) {
	s := newHandleStore(0)
	s.putSum(sumKey{id: 1, upTo: 1}, 100, nil, time.Minute)
	s.putSum(sumKey{id: 2, upTo: 1}, 3, nil, time.Minute) // a session opened long ago
	s.putSum(sumKey{id: 3, upTo: 1}, 101, nil, time.Minute)
	if _, err := s.takeSum(sumKey{id: 2, upTo: 1}, 0); err != nil {
		t.Errorf("the old session's sum after a newer job's: %v", err)
	}
	s.putSum(sumKey{id: 4, upTo: 1}, 101+defaultCacheEpochWindow, nil, time.Minute)
	if n := len(s.sums); n != 2 {
		t.Errorf("%d sums held, want the two of the last window", n)
	}
}
