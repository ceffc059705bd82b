package distnet

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/engine"
	"distme/internal/matrix"
	"distme/internal/plan"
)

// TestExecEmptyBandFetchesNothing: with a one-block-row result the first of
// two workers owns no output row. Its share of a multiply and of a transpose
// is the empty band, installed without asking a peer for anything — and
// installed all the same, so the operator after it finds its operand.
func TestExecEmptyBandFetchesNothing(t *testing.T) {
	addrs, workers := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	s := newSession(t, d)
	rng := rand.New(rand.NewSource(81))
	inputs := map[string]*bmat.BlockMatrix{
		"x": bmat.RandomDense(rng, 4, 16, 4),       // one block row: all of it on the second worker
		"y": bmat.RandomDense(rng, 16, 8, 4),       // four block rows, two on each
		"z": bmat.RandomDense(rng, 16, 4, 4),       // its transpose has one block row
		"u": bmat.RandomDense(rng, 4, 8, 4),        // zipped with the product
		"r": bmat.RandomSparse(rng, 4, 16, 4, 0.5), // zipped with the transpose
	}
	binds := putAll(t, s, inputs)
	for _, x := range []plan.Expr{
		plan.Plus(plan.Times(2, plan.Mul(plan.V("x"), plan.V("y"))), plan.V("u")),
		plan.Minus(plan.Times(3, plan.T(plan.V("z"))), plan.V("r")),
	} {
		out, err := s.Run(ctx, x, binds)
		if err != nil {
			t.Fatalf("%v: %v", x, err)
		}
		got, err := s.Fetch(ctx, out)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, got, kAscendingEval(t, x, inputs))
	}
	if st := workers[0].StoreStats(); st.PeerFetches != 0 || st.PeerFetchBytes != 0 {
		t.Fatalf("the worker with no output row made %d peer fetches (%d bytes)", st.PeerFetches, st.PeerFetchBytes)
	}
	if st := workers[1].StoreStats(); st.PeerFetches == 0 {
		t.Fatal("the worker with the output row fetched nothing: the test exercises no band exchange")
	}
}

// kAscendingEval evaluates the expression on the local engine at one cuboid
// per multiplication: every output block accumulates k-ascending, as the
// band exchange does, so the resident result must match bit for bit.
func kAscendingEval(t *testing.T, x plan.Expr, inputs map[string]*bmat.BlockMatrix) *bmat.BlockMatrix {
	t.Helper()
	eng := localEngine(t)
	defer eng.Close()
	out, _, err := eng.Run(context.Background(), x, inputs, engine.WithParams(core.Params{P: 1, Q: 1, R: 1}))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// bandBytes is the payload of block rows [lo, hi) of m.
func bandBytes(m *bmat.BlockMatrix, lo, hi int) int64 {
	var n int64
	for _, r := range boxRecs(m, lo, hi, 0, m.JB) {
		n += r.Block.SizeBytes()
	}
	return n
}

// replicaTestExpr is (Wᵀ·W)·(Wᵀ·V): W's peer band is read by the transpose
// and again by Wᵀ·W, V's by Wᵀ·V under a dense left.
func replicaTestExpr() plan.Expr {
	wt := plan.T(plan.V("w"))
	return plan.Mul(plan.Mul(wt, plan.V("w")), plan.Mul(wt, plan.V("v")))
}

// replicaTestInputs: W has one block column, so Wᵀ — and everything the
// expression derives from it — is one block row, on the second worker.
func replicaTestInputs() map[string]*bmat.BlockMatrix {
	rng := rand.New(rand.NewSource(82))
	return map[string]*bmat.BlockMatrix{
		"v": bmat.RandomSparse(rng, 192, 80, 8, 0.3),
		"w": bmat.RandomDense(rng, 192, 8, 8),
	}
}

// TestPipelineReplicaReuse: a peer's band is moved once for all the
// operators that read it — within a run and across runs — the copy and the
// CSC forms memoised beside it are the store's to account for and to drop,
// and no one but the operators of the worker that holds a copy ever sees it.
func TestPipelineReplicaReuse(t *testing.T) {
	ctx := context.Background()
	inputs := replicaTestInputs()
	expr := replicaTestExpr()
	want := kAscendingEval(t, expr, inputs)
	half := inputs["v"].IB / 2
	peerBand := bandBytes(inputs["v"], 0, half) + bandBytes(inputs["w"], 0, half)

	addrs, workers := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := newSession(t, d)
	binds := putAll(t, s, inputs)
	w1 := workers[1]

	out, err := s.Run(ctx, expr, binds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Fetch(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	first := w1.StoreStats()
	if first.PeerFetchBytes != peerBand {
		t.Fatalf("first run moved %d peer bytes to the computing worker, want one copy of each peer band (%d)", first.PeerFetchBytes, peerBand)
	}
	if first.ReplicaHits == 0 || first.ReplicaBytes < peerBand || first.CSCMemoBytes == 0 {
		t.Fatalf("after the first run: %d replica hits, %d replica bytes, %d memo bytes", first.ReplicaHits, first.ReplicaBytes, first.CSCMemoBytes)
	}
	if st := workers[0].StoreStats(); st.PeerFetches != 0 {
		t.Fatalf("the worker with no output row made %d peer fetches", st.PeerFetches)
	}

	// A second run over the same handles finds every peer band where the
	// first left it.
	out2, err := s.Run(ctx, expr, binds)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = s.Fetch(ctx, out2); err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	second := w1.StoreStats()
	if second.PeerFetchBytes != first.PeerFetchBytes || second.ReplicaHits <= first.ReplicaHits {
		t.Fatalf("second run: peer bytes %d → %d, replica hits %d → %d", first.PeerFetchBytes, second.PeerFetchBytes, first.ReplicaHits, second.ReplicaHits)
	}
	if second.CSCMemoBytes != first.CSCMemoBytes {
		t.Fatalf("second run converted again: memo %d → %d bytes", first.CSCMemoBytes, second.CSCMemoBytes)
	}

	// GetBlocks answers with the band the worker owns, never with the copy
	// it keeps of its peer's.
	var reply getReply
	if err := w1.getBlocks(&getArgs{Handle: binds["v"].id, blockRect: allCols(0, math.MaxInt)}, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Blocks) == 0 || reply.Cover != allCols(0, math.MaxInt) {
		t.Fatalf("own band: %d blocks, answering for %v", len(reply.Blocks), reply.Cover)
	}
	for _, r := range reply.Blocks {
		if r.Key.I < half {
			t.Fatalf("GetBlocks returned block (%d,%d) of the peer's band", r.Key.I, r.Key.J)
		}
		if r.Block.Format() != inputs["v"].Block(r.Key.I, r.Key.J).Format() {
			t.Fatalf("GetBlocks returned block (%d,%d) in its memoised form", r.Key.I, r.Key.J)
		}
	}

	// A cut of a peer's band that is not all of it is kept too, under the
	// rectangle it answers for: here the first worker's, of V's band on the
	// second, two block columns of its first three rows.
	keepPartial(t, s, workers[0], binds["v"])

	// Free gives back everything held under the handle: band, copies, memos.
	for _, h := range []*Handle{out, out2, binds["v"], binds["w"]} {
		if err := s.Free(ctx, h); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range workers {
		if st := w.StoreStats(); st.Bytes != 0 || st.ReplicaBytes != 0 || st.CSCMemoBytes != 0 || st.Handles != 0 {
			t.Fatalf("worker %d after Free: %+v", i, st)
		}
	}

	// So does closing a session that freed nothing.
	s2, err := d.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	binds2 := putAll(t, s2, inputs)
	if _, err := s2.Run(ctx, expr, binds2); err != nil {
		t.Fatal(err)
	}
	if st := w1.StoreStats(); st.ReplicaBytes == 0 || st.CSCMemoBytes == 0 {
		t.Fatalf("second session kept no replica: %+v", st)
	}
	keepPartial(t, s2, workers[0], binds2["v"])
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for i, w := range workers {
		if st := w.StoreStats(); st.Bytes != 0 || st.ReplicaBytes != 0 || st.CSCMemoBytes != 0 {
			t.Fatalf("worker %d after Close: %+v", i, st)
		}
	}
}

// keepPartial makes w read a cut of h's band on the session's other worker
// that is not all of the band — two block columns of its first three rows —
// and checks that w keeps it as a replica answering for no more than the
// band's rows and those columns.
func keepPartial(t *testing.T, s *Session, w *Worker, h *Handle) {
	t.Helper()
	var peer partLoc
	for _, p := range s.partLocs(h) {
		if p.Addr != w.addr {
			peer = p
		}
	}
	cut := blockRect{ILo: peer.Lo, IHi: peer.Lo + 3, JLo: 0, JHi: 2}
	before := w.StoreStats()
	c, moved, err := w.readCut(bandReader{self: w.addr, epoch: s.epoch}, h.id, s.partLocs(h), cut)
	if err != nil {
		t.Fatal(err)
	}
	after := w.StoreStats()
	if moved.fetches != 1 || after.ReplicaBytes-before.ReplicaBytes != moved.bytes || moved.bytes == 0 {
		t.Fatalf("a partial cut moved %+v and added %d replica bytes", moved, after.ReplicaBytes-before.ReplicaBytes)
	}
	if len(c.bands) != 1 {
		t.Fatalf("the cut met %d bands, want the peer's", len(c.bands))
	}
	if e := c.bands[0].e; e.rect.contains(allCols(peer.Lo, peer.Hi)) || !e.rect.contains(cut) {
		t.Fatalf("the partial cut %v was kept answering for %v", cut, e.rect)
	}
}

// TestPipelineReplicaEvictedFirst bounds the stores just above what the
// pinned operands, their memos and the intermediates need: the copies of the
// peer's bands do not fit beside them and go, no owned band does, and the
// run — re-fetching what it may not keep — has the same bits.
func TestPipelineReplicaEvictedFirst(t *testing.T) {
	ctx := context.Background()
	inputs := replicaTestInputs()
	expr := replicaTestExpr()
	want := kAscendingEval(t, expr, inputs)

	// Unbounded first, to size the bound: what the computing worker holds
	// after a run, less the replicas, plus room for the intermediates — and
	// less than that plus V's peer band.
	addrs, workers := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := newSession(t, d)
	if _, err := s.Run(ctx, expr, putAll(t, s, inputs)); err != nil {
		t.Fatal(err)
	}
	st := workers[1].StoreStats()
	const room = 32 << 10
	if vBand := bandBytes(inputs["v"], 0, inputs["v"].IB/2); vBand <= room {
		t.Fatalf("V's peer band is %d bytes: it fits in the %d left for intermediates", vBand, room)
	}
	bound := st.Bytes - st.ReplicaBytes + room

	var capped []string
	var cworkers []*Worker
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		w, err := ServeOptions(l, WorkerOptions{MemBytes: bound})
		if err != nil {
			t.Fatal(err)
		}
		capped = append(capped, l.Addr().String())
		cworkers = append(cworkers, w)
	}
	cd, err := DialOptions(capped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	cs := newSession(t, cd)
	binds := putAll(t, cs, inputs)
	for run := 0; run < 2; run++ {
		before := cworkers[1].StoreStats().PeerFetchBytes
		out, err := cs.Run(ctx, expr, binds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cs.Fetch(ctx, out)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, got, want)
		if moved := cworkers[1].StoreStats().PeerFetchBytes - before; moved == 0 {
			t.Fatalf("run %d moved no peer bytes: the replicas fitted under the bound", run)
		}
	}
	for i, w := range cworkers {
		if st := w.StoreStats(); st.Evictions != 0 || st.Bytes > bound {
			t.Fatalf("worker %d: %d owned bands evicted, %d bytes held under a bound of %d", i, st.Evictions, st.Bytes, bound)
		}
	}
	if cs.recoveries != 0 {
		t.Fatalf("%d recoveries: an owned band was displaced", cs.recoveries)
	}
}

// TestStoreEvictsReplicasBeforeOwned pins the order down on the store
// itself: past the bound the replicas go first, least recently read first,
// and only then an unpinned handle — the one loss that counts as an eviction.
func TestStoreEvictsReplicasBeforeOwned(t *testing.T) {
	band := func() map[bmat.BlockKey]matrix.Block {
		return map[bmat.BlockKey]matrix.Block{{}: matrix.NewDense(5, 5)} // 200 bytes
	}
	whole := allCols(0, math.MaxInt)
	// A partial replica: a cut of the band of handle 2 at peer-a that answers
	// for its first row and two columns only.
	part := blockRect{ILo: 0, IHi: 1, JLo: 0, JHi: 2}
	s := newHandleStore(1000)
	s.set(1, 1, false, band(), true)
	s.addReplica(1, 1, "peer-a", whole, band())
	s.addReplica(2, 1, "peer-a", part, band())
	if _, ok := s.replica(2, "peer-a", blockRect{ILo: 0, IHi: 1, JLo: 1, JHi: 2}); !ok {
		t.Fatal("a partial replica does not serve a cut it contains")
	}
	if _, ok := s.replica(2, "peer-a", allCols(0, 1)); ok {
		t.Fatal("a partial replica served a cut it does not contain")
	}
	s.addReplica(2, 1, "peer-b", whole, band())
	if _, ok := s.replica(1, "peer-a", whole); !ok { // now the most recently read
		t.Fatal("replica of handle 1 missing under the bound")
	}
	s.set(3, 1, false, band(), true) // 1000 bytes: full
	s.set(4, 1, false, band(), true) // one replica has to go
	if _, ok := s.replica(2, "peer-a", part); ok {
		t.Fatal("the least recently read replica survived")
	}
	s.set(5, 1, false, band(), true)
	s.set(6, 1, false, band(), true)
	if st := s.stats(); st.ReplicaBytes != 0 || st.Evictions != 0 || st.Handles != 5 || st.Bytes != 1000 {
		t.Fatalf("replicas gone, every handle kept: got %+v", st)
	}
	s.set(7, 1, false, band(), true)
	if _, ok := s.get(1); ok {
		t.Fatal("the least recently used handle survived a full store of handles")
	}
	if st := s.stats(); st.Evictions != 1 {
		t.Fatalf("%d evictions, want 1", st.Evictions)
	}
	// A replica that cannot fit is not kept, and its reader still has it.
	if e := s.addReplica(7, 1, "peer-a", whole, band()); len(e.blocks) != 1 {
		t.Fatal("addReplica returned no band")
	}
	if _, ok := s.replica(7, "peer-a", whole); ok {
		t.Fatal("a replica displaced a handle")
	}
}

// TestPipelineReplicaSurvivesPeerKill kills the peer after its bands were
// replicated, whole and in part: the recovery is the one a dead worker always costs, it drops
// the copies with the epoch, and the rebuilt run has the same bits.
func TestPipelineReplicaSurvivesPeerKill(t *testing.T) {
	ctx := context.Background()
	inputs := replicaTestInputs()
	expr := replicaTestExpr()
	want := kAscendingEval(t, expr, inputs)

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
	if _, err := s.Run(ctx, expr, binds); err != nil {
		t.Fatal(err)
	}
	if st := workers[1].StoreStats(); st.ReplicaBytes == 0 {
		t.Fatal("nothing replicated before the kill")
	}
	// A partial replica too, of a handle no operator read: the recovery's
	// epoch wipe takes it with the rest.
	extra, err := s.Put(ctx, inputs["v"])
	if err != nil {
		t.Fatal(err)
	}
	keepPartial(t, s, workers[1], extra)
	killWorker(workers[0])
	out, err := s.Run(ctx, expr, binds)
	if err != nil {
		t.Fatalf("pipeline did not survive the kill: %v", err)
	}
	got, err := s.Fetch(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	if s.recoveries != 1 {
		t.Fatalf("%d recoveries, want the one the dead worker costs", s.recoveries)
	}
	if st := workers[1].StoreStats(); st.ReplicaBytes != 0 {
		t.Fatalf("the survivor, alone in the placement, still holds %d replica bytes", st.ReplicaBytes)
	}
}

// TestStoreReplicaMemoRace runs, against one worker and under -race, an
// operator that replicates its peer's band and reads the CSC memo of both
// bands, while another goroutine frees and re-installs the operand under
// it. An operator that lost its operand mid-way says so; one that finishes
// has the right bits.
func TestStoreReplicaMemoRace(t *testing.T) {
	addrs, workers := startWorkers(t, 2)
	rng := rand.New(rand.NewSource(83))
	a := bmat.RandomDense(rng, 8, 32, 8)        // one block row, on the second worker
	b := bmat.RandomSparse(rng, 32, 24, 8, 0.3) // two block rows on each
	const idA, idB, epoch = 1, 2, 1
	put := func(w *Worker, id uint64, m *bmat.BlockMatrix, lo, hi int) {
		if err := w.putBlocks(&putArgs{Handle: id, Epoch: epoch, Blocks: boxRecs(m, lo, hi, 0, m.JB)}, new(int64)); err != nil {
			t.Error(err)
		}
	}
	put(workers[1], idA, a, 0, 1)
	put(workers[0], idB, b, 0, 2)
	put(workers[1], idB, b, 2, 4)
	want := kAscendingEval(t, plan.Mul(plan.V("a"), plan.V("b")), map[string]*bmat.BlockMatrix{"a": a, "b": b})
	bParts := []partLoc{{Addr: addrs[0], Lo: 0, Hi: 2}, {Addr: addrs[1], Lo: 2, Hi: 4}}

	// Two operators: a pipeline multiply, which replicates the peer's whole
	// band and reads the CSC memo of both bands, and a pull call whose box
	// is B's first two block columns, which replicates a cut of the peer's
	// band that is not all of it.
	ops := []struct {
		name string
		run  func(out uint64) ([]blockRec, error)
		cols int
	}{
		{"pipeline multiply", func(out uint64) ([]blockRec, error) {
			err := workers[1].exec(&execArgs{
				Op: execMul, Out: out, Epoch: epoch, A: idA, B: idB, OutLo: 0, OutHi: 1, Self: addrs[1], BParts: bParts,
			}, new(execReply))
			if err != nil {
				return nil, err
			}
			var reply getReply
			if err := workers[1].getBlocks(&getArgs{Handle: out, blockRect: allCols(0, 1)}, &reply); err != nil {
				t.Fatal(err)
			}
			_ = workers[1].freeHandles(&freeArgs{Handles: []uint64{out}}, new(int64))
			return reply.Blocks, nil
		}, want.JB},
		{"pull of a partial cut", func(uint64) ([]blockRec, error) {
			var reply multiplyReply
			err := workers[1].multiply(&multiplyArgs{
				IHi: 1, JHi: 2, KHi: 4, slabs: 1, cacheEpoch: epoch, pull: true, pullSelf: addrs[1],
				aRef: bandRef{handle: idA, parts: []partLoc{{Addr: addrs[1], Lo: 0, Hi: 1}}},
				bRef: bandRef{handle: idB, parts: bParts},
			}, &reply)
			return reply.CBlocks, err
		}, 2},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			// One free-and-reinstall per operator, started with it: often
			// enough to land inside it, rarely enough that most operators
			// keep their operand.
			tick := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range tick {
					if err := workers[1].freeHandles(&freeArgs{Handles: []uint64{idB}}, new(int64)); err != nil {
						t.Error(err)
					}
					put(workers[1], idB, b, 2, 4)
				}
			}()
			defer wg.Wait()
			defer close(tick)
			done := 0
			for i := 0; i < 200; i++ {
				select {
				case tick <- struct{}{}:
				default:
				}
				blocks, err := op.run(uint64(100 + i))
				if err != nil {
					if !errors.Is(err, errUnknownHandle) {
						t.Fatal(err)
					}
					continue
				}
				done++
				for _, r := range blocks {
					if !r.Block.Dense().Equal(want.Block(r.Key.I, r.Key.J).Dense()) {
						t.Fatalf("product block (%d,%d) differs", r.Key.I, r.Key.J)
					}
				}
				if len(blocks) != op.cols {
					t.Fatalf("%d product blocks, want %d", len(blocks), op.cols)
				}
			}
			t.Logf("%d of 200 operators kept their operand to the end", done)
			if done == 0 {
				t.Fatal("no operator ever finished")
			}
		})
	}
	if st := workers[1].StoreStats(); st.ReplicaHits == 0 {
		t.Fatal("no read found a replica")
	}
}

// TestOneBudgetDropsCacheThenReplicas holds a worker's memory to its one
// MemBytes: cached blocks go first, then the replica; the pinned bands never
// go, and a held running sum, never dropped itself, takes its bytes' worth
// of room from the others.
func TestOneBudgetDropsCacheThenReplicas(t *testing.T) {
	const block = 200 // a 5×5 dense block
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	w, err := ServeOptions(l, WorkerOptions{MemBytes: 10 * block})
	if err != nil {
		t.Fatal(err)
	}
	defer w.abort()
	band := func() map[bmat.BlockKey]matrix.Block {
		return map[bmat.BlockKey]matrix.Block{{}: matrix.NewDense(5, 5)}
	}
	sum := func(blocks int) []blockRec {
		recs := make([]blockRec, blocks)
		for i := range recs {
			recs[i] = blockRec{Key: bmat.BlockKey{J: i}, Block: matrix.NewDense(5, 5)}
		}
		return recs
	}
	st := w.getStore()
	cached := 0
	cache := func(n int) {
		for range n {
			cached++
			st.cacheInsert(1, codec.Digest{byte(cached)}, matrix.NewDense(5, 5), block)
		}
	}
	check := func(step string, entries, evicted int, replica bool) {
		t.Helper()
		cs, ss := w.CacheStats(), w.StoreStats()
		if cs.Entries != entries || cs.Evictions != int64(evicted) {
			t.Fatalf("%s: %d cached blocks, %d evicted; want %d and %d", step, cs.Entries, cs.Evictions, entries, evicted)
		}
		if got := ss.ReplicaBytes != 0; got != replica {
			t.Fatalf("%s: replica resident %v, want %v", step, got, replica)
		}
		if ss.Pinned != 2 || ss.Evictions != 0 {
			t.Fatalf("%s: %d pinned bands, %d evicted; want 2 and none", step, ss.Pinned, ss.Evictions)
		}
	}
	st.set(1, 1, true, band(), true)
	st.set(2, 1, true, band(), true)
	st.addReplica(3, 1, "peer-a", allCols(0, math.MaxInt), band())
	cache(7) // 10 blocks: the budget exactly
	check("full", 7, 0, true)
	cache(3)
	check("three more cached", 7, 3, true)
	st.putSum(sumKey{id: 1, upTo: 1}, 1, sum(4), time.Minute)
	check("a held sum of four blocks", 3, 7, true)
	st.putSum(sumKey{id: 2, upTo: 1}, 1, sum(4), time.Minute)
	check("a second sum", 0, 10, false)
	cache(1)
	check("a cached block past pins and sums", 0, 11, false)
	st.putSum(sumKey{id: 3, upTo: 1}, 1, sum(4), time.Minute) // over the budget: nothing left to drop
	check("a third sum", 0, 11, false)
	for id := uint64(1); id <= 3; id++ {
		if _, err := st.takeSum(sumKey{id: id, upTo: 1}, 0); err != nil {
			t.Fatalf("sum %d: %v", id, err)
		}
	}
	cache(8)
	check("the sums taken", 8, 11, false)
}
