package distnet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/metrics"
	"distme/internal/obs"
)

// Block-cache churn suite: the content-addressed cache must only ever save
// bytes — never change results — across worker restarts, evictions, and
// membership churn. Blocks here are 8×8 dense (528 wire bytes), safely
// above minCacheableBytes so the digest machinery is actually engaged.

// cacheTestMatrices returns operands whose every block clears the
// cacheable threshold: a 4×4 grid of 8×8 dense blocks on each side, with
// P=Q=R=2 every A and B block ships to the single worker exactly twice.
func cacheTestMatrices(seed int64) (a, b *bmat.BlockMatrix) {
	rng := rand.New(rand.NewSource(seed))
	a = bmat.RandomDense(rng, 32, 32, 8)
	b = bmat.RandomDense(rng, 32, 32, 8)
	return a, b
}

// startCacheWorker serves one worker under an explicit memory budget.
func startCacheWorker(t *testing.T, memBytes int64) (string, *Worker) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	w, err := ServeOptions(l, WorkerOptions{MemBytes: memBytes})
	if err != nil {
		t.Fatal(err)
	}
	return l.Addr().String(), w
}

// TestBlockCacheDedupReducesWireBytes runs the same multiply cold (cache
// disabled) and warm (cache on) against fresh workers; the warm run must
// send strictly fewer bytes and produce the bit-identical product.
func TestBlockCacheDedupReducesWireBytes(t *testing.T) {
	a, b := cacheTestMatrices(7001)
	params := core.Params{P: 2, Q: 2, R: 2}

	coldAddr, _ := startCacheWorker(t, 0)
	coldOpts := fastOpts()
	coldOpts.DisableBlockCache = true
	cold, err := DialOptions([]string{coldAddr}, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldC, err := execute(cold, a, b, params)
	if err != nil {
		t.Fatal(err)
	}
	coldSent, _ := cold.WireBytes()

	warmAddr, warmWorker := startCacheWorker(t, 0)
	warm, err := DialOptions([]string{warmAddr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warmC, err := execute(warm, a, b, params)
	if err != nil {
		t.Fatal(err)
	}
	warmSent, _ := warm.WireBytes()

	bitIdentical(t, warmC, coldC)
	if warmSent >= coldSent {
		t.Fatalf("dedup saved nothing: warm sent %d bytes, cold sent %d", warmSent, coldSent)
	}
	stats := warm.NetStats()
	if stats.CacheRefsSent == 0 || stats.CacheBytesSaved == 0 {
		t.Fatalf("no cache references recorded: %+v", stats)
	}
	if stats.CacheRefMisses != 0 {
		t.Fatalf("references missed on a healthy worker: %+v", stats)
	}
	ws := warmWorker.CacheStats()
	if ws.Insertions == 0 || ws.Hits == 0 {
		t.Fatalf("worker cache never engaged: %+v", ws)
	}
}

// TestWorkerRestartMidJobMissesCleanly re-runs a cuboid whose blocks the
// driver believes the worker already holds, after the worker restarted with
// an empty cache. The stale digest references must miss cleanly — the
// worker answers unknown-digest, the driver forgets and resends inline —
// and the cuboid's partial product must come back identical.
func TestWorkerRestartMidJobMissesCleanly(t *testing.T) {
	a, b := cacheTestMatrices(7002)
	addr, w := startCacheWorker(t, 0)

	opts := fastOpts()
	opts.HeartbeatInterval = 10 * time.Millisecond
	opts.PerWorkerInflight = 1
	d, err := DialOptions([]string{addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// One cuboid covering the whole grid; jobPrep stamps the epoch and
	// prepares the blocks exactly as multiply() would.
	args := &multiplyArgs{ILo: 0, IHi: 4, JLo: 0, JHi: 4, KLo: 0, KHi: 4, slabs: 1}
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			args.ABlocks = append(args.ABlocks, blockRec{Key: bmat.BlockKey{I: i, J: k}, Block: a.Block(i, k)})
		}
	}
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			args.BBlocks = append(args.BBlocks, blockRec{Key: bmat.BlockKey{I: k, J: j}, Block: b.Block(k, j)})
		}
	}
	if err := d.newJobPrep().prepare(args); err != nil {
		t.Fatal(err)
	}

	reply1, err := d.runColumn(context.Background(), &column{links: []*multiplyArgs{args}}, obs.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if d.NetStats().CacheRefMisses != 0 {
		t.Fatalf("first send should be all inline: %+v", d.NetStats())
	}

	// Crash the worker and bring up a replacement (empty cache) on the same
	// address; wait for the detector to readmit it.
	killWorker(w)
	deadline := time.Now().Add(2 * time.Second)
	for d.Workers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("killed worker never declared dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { l2.Close() })
	w2, err := ServeOptions(l2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for d.Workers() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("replacement worker never readmitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Same job, same epoch: the tracker still claims every block was sent,
	// so this send is all references — and they must all miss cleanly.
	reply2, err := d.runColumn(context.Background(), &column{links: []*multiplyArgs{args}}, obs.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.NetStats().CacheRefMisses; got == 0 {
		t.Fatalf("stale references did not miss: %+v", d.NetStats())
	}
	if ws := w2.CacheStats(); ws.Misses == 0 || ws.Insertions == 0 {
		t.Fatalf("replacement worker cache counters: %+v", ws)
	}
	if len(reply1.CBlocks) != len(reply2.CBlocks) {
		t.Fatalf("reply sizes differ: %d vs %d", len(reply1.CBlocks), len(reply2.CBlocks))
	}
	for i := range reply1.CBlocks {
		d1 := reply1.CBlocks[i].Block.Dense()
		d2 := reply2.CBlocks[i].Block.Dense()
		if !d1.EqualApprox(d2, 0) {
			t.Fatalf("partial product %d differs after restart resend", i)
		}
	}
}

// TestMembershipChurnDoesNotLeakCacheEntries hammers RemoveWorker/AddWorker
// between multiplies against one long-lived worker process: every job runs
// in a fresh epoch, so the worker's cache residency must stay bounded by
// the epoch window's worth of distinct blocks instead of accumulating
// without bound across jobs. It runs a few more rounds than
// defaultCacheEpochWindow, enough to cross the window and observe expiry.
func TestMembershipChurnDoesNotLeakCacheEntries(t *testing.T) {
	const epochWindow = defaultCacheEpochWindow
	addr, w := startCacheWorker(t, 0)
	d, err := DialOptions([]string{addr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// 16 distinct A blocks + 16 distinct B blocks per job. Entries from the
	// last epochWindow+1 epochs may be resident at once (the newest epoch
	// plus the window behind it); anything older must have expired.
	const distinctPerJob = 32
	const maxResident = distinctPerJob * (epochWindow + 1)
	params := core.Params{P: 2, Q: 2, R: 2}
	for round := 0; round < epochWindow+3; round++ {
		a, b := cacheTestMatrices(int64(7100 + round))
		got, err := execute(d, a, b, params)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
		if !got.ToDense().EqualApprox(want, 1e-9) {
			t.Fatalf("round %d product wrong", round)
		}
		stats := w.CacheStats()
		if stats.Entries > maxResident {
			t.Fatalf("round %d: cache leaked across epochs: %d entries resident, want <= %d (stats %+v)",
				round, stats.Entries, maxResident, stats)
		}
		// Churn the membership between jobs; the worker process (and its
		// cache) stays up, but the driver gets a fresh member + tracker.
		if err := d.RemoveWorker(addr); err != nil {
			t.Fatal(err)
		}
		if err := d.AddWorker(addr); err != nil {
			t.Fatal(err)
		}
	}
	stats := w.CacheStats()
	if stats.Evictions == 0 {
		t.Fatalf("no entry ever aged out of the epoch window: %+v", stats)
	}
	if stats.Insertions < 2*distinctPerJob {
		t.Fatalf("later jobs should have re-inserted their blocks: %+v", stats)
	}
}

// TestEpochWindowAgesDriverAndWorkerAlike: the driver's sendTracker and the
// worker's cache expire a block by the same window. A block last sent
// defaultCacheEpochWindow epochs ago is still referenced, and resolves; one
// last sent a window and one epoch ago goes inline again. Either way the
// worker never answers a reference with a miss. a×b runs twice before the
// fillers: a block ships under a fresh key on first sight and under its
// digest, the key a later reference names, from the second (blockKeys).
func TestEpochWindowAgesDriverAndWorkerAlike(t *testing.T) {
	params := core.Params{P: 1, Q: 1, R: 1} // every block ships once per job
	a, b := cacheTestMatrices(7010)
	const blocks = 32 // 16 A blocks + 16 B blocks, all cacheable
	for _, tc := range []struct {
		fillers  int // jobs between the two runs of a×b
		wantRefs int64
	}{
		{defaultCacheEpochWindow - 1, blocks}, // last sent a window ago
		{defaultCacheEpochWindow, 0},          // a window and one epoch ago
	} {
		addr, _ := startCacheWorker(t, 0)
		d, err := DialOptions([]string{addr}, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := execute(d, a, b, params); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < tc.fillers; i++ {
			x, y := cacheTestMatrices(int64(7100 + i))
			if _, err := execute(d, x, y, params); err != nil {
				t.Fatal(err)
			}
		}
		before := d.NetStats()
		got, err := execute(d, a, b, params)
		if err != nil {
			t.Fatal(err)
		}
		delta := d.NetStats().Sub(before)
		d.Close()
		want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
		if !got.ToDense().EqualApprox(want, 1e-9) {
			t.Fatalf("%d fillers: product wrong", tc.fillers)
		}
		if delta.CacheRefsSent != tc.wantRefs {
			t.Errorf("%d fillers: %d blocks sent as references, want %d", tc.fillers, delta.CacheRefsSent, tc.wantRefs)
		}
		if delta.CacheRefMisses != 0 {
			t.Errorf("%d fillers: %d references missed the worker cache", tc.fillers, delta.CacheRefMisses)
		}
	}
}

// TestPlanOrderPlacementShipsEachBlockOnce: placement is fixed at plan time,
// not by which goroutine reaches the scheduler first. At (2,2,2) over a
// 6×6×6 block grid on two workers, a job is four (p,q) columns of 3×6 A
// blocks and 6×3 B blocks: 144 block sends. The plan runs as the k-ordered
// chain (homes would ship each A block to both workers): every column is two
// links, and holder g — worker g — receives slab g of every column. The
// Q = 2 links sharing an A block and the P = 2 sharing a B block all go to
// the block's one holder, so each of the 72 blocks ships inline once and its
// second copy is a reference — 72 references in every job, with the same
// bytes on the wire each time.
func TestPlanOrderPlacementShipsEachBlockOnce(t *testing.T) {
	params := core.Params{P: 2, Q: 2, R: 2}
	addrs, _ := startWorkers(t, 2)
	opts := fastOpts()
	opts.DisableHeartbeat = true // no pings in the byte counts
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var firstSent, firstReceived int64
	for job := 0; job < 20; job++ {
		rng := rand.New(rand.NewSource(int64(7200 + job))) // new content: no reference crosses jobs
		a, b := bmat.RandomDense(rng, 48, 48, 8), bmat.RandomDense(rng, 48, 48, 8)
		before := d.NetStats()
		sent0, received0 := d.WireBytes()
		if _, err := execute(d, a, b, params); err != nil {
			t.Fatal(err)
		}
		delta := d.NetStats().Sub(before)
		sent1, received1 := d.WireBytes()
		sent, received := sent1-sent0, received1-received0
		if delta.CacheRefsSent != 72 || delta.CacheRefMisses != 0 {
			t.Errorf("job %d: %d blocks sent as references (%d missed), want 72 (0)", job, delta.CacheRefsSent, delta.CacheRefMisses)
		}
		if job == 0 {
			firstSent, firstReceived = sent, received
		} else if sent != firstSent || received != firstReceived {
			t.Errorf("job %d moved %d bytes out and %d in, job 0 %d and %d", job, sent, received, firstSent, firstReceived)
		}
	}
}

// TestMixedStreamRepeatsShipAsReferences: one driver on two workers runs a
// stream that cycles an R = 2 job — (1,1,2), one column of two slabs — and
// an R = 1 job — (2,1,1), two one-slab columns — each over its own fixed
// operands, as small_mix's clients cycle their pairs. The cursor advances by
// P·Q·R = 2 a job whatever its column count, so every repeat of a job starts
// at a ring position of the same parity and finds its blocks where its last
// run left them: after two warm-up passes — a block ships under a fresh key
// on first sight and under its digest on the second (blockKeys) — every
// block a repeat sends is a reference, none misses, and every repeat moves
// the bytes the first one did.
// A cursor advanced by the column count (1 and 2) would move the R = 2 job to
// the other worker on its first repeat, and its blocks would ship inline.
func TestMixedStreamRepeatsShipAsReferences(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	opts := fastOpts()
	opts.DisableHeartbeat = true // no pings in the byte counts
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	a1, b1 := cacheTestMatrices(7301)
	a2, b2 := cacheTestMatrices(7302)
	jobs := []struct {
		a, b   *bmat.BlockMatrix
		params core.Params
		sends  int64 // block sends: each column's A band and B band
	}{
		{a1, b1, core.Params{P: 1, Q: 1, R: 2}, 16 + 16},
		{a2, b2, core.Params{P: 2, Q: 1, R: 1}, 2 * (8 + 16)},
	}
	type traffic struct{ sent, received int64 }
	first := make([]traffic, len(jobs))
	for pass := 0; pass < 7; pass++ {
		for i, job := range jobs {
			before := d.NetStats()
			sent0, received0 := d.WireBytes()
			if _, err := execute(d, job.a, job.b, job.params); err != nil {
				t.Fatal(err)
			}
			sent1, received1 := d.WireBytes()
			delta := d.NetStats().Sub(before)
			if pass < 2 {
				continue // warm-up: the first two runs of each job ship their blocks
			}
			if delta.CacheRefsSent != job.sends || delta.CacheRefMisses != 0 {
				t.Errorf("pass %d, job %v: %d of %d block sends were references (%d missed), want all (0)",
					pass, job.params, delta.CacheRefsSent, job.sends, delta.CacheRefMisses)
			}
			got := traffic{sent1 - sent0, received1 - received0}
			if pass == 2 {
				first[i] = got
			} else if got != first[i] {
				t.Errorf("pass %d, job %v moved %d bytes out and %d in, its first repeat %d and %d",
					pass, job.params, got.sent, got.received, first[i].sent, first[i].received)
			}
		}
	}
}

// TestCacheEvictionChurnConverges squeezes the worker cache far below one
// job's working set so inserts continually evict; any reference that lands
// on an evicted block must be resent inline, and the product must still be
// bit-identical to the cold run.
func TestCacheEvictionChurnConverges(t *testing.T) {
	a, b := cacheTestMatrices(7003)
	params := core.Params{P: 2, Q: 2, R: 2}

	coldAddr, _ := startCacheWorker(t, 0)
	coldOpts := fastOpts()
	coldOpts.DisableBlockCache = true
	cold, err := DialOptions([]string{coldAddr}, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	want, err := execute(cold, a, b, params)
	if err != nil {
		t.Fatal(err)
	}

	// ~2 KiB holds only 3 of the 32 blocks a job ships.
	addr, w := startCacheWorker(t, 2048)
	d, err := DialOptions([]string{addr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, err := execute(d, a, b, params)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	if ws := w.CacheStats(); ws.Evictions == 0 {
		t.Fatalf("tiny cache never evicted: %+v", ws)
	}
}

// TestCacheDisabledWorkerAlwaysRecovers points a caching driver at a worker
// whose memory budget is below one block, so it keeps no block: every digest
// reference must miss, every miss must recover via the inline resend, and
// the answer must be right.
func TestCacheDisabledWorkerAlwaysRecovers(t *testing.T) {
	a, b := cacheTestMatrices(7004)
	addr, w := startCacheWorker(t, 8*8*8-1) // an 8×8 dense block's payload is 512 bytes
	d, err := DialOptions([]string{addr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, err := execute(d, a, b, core.Params{P: 2, Q: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("product wrong against a worker that keeps no block")
	}
	if d.NetStats().CacheRefMisses == 0 {
		t.Fatalf("driver never observed a miss: %+v", d.NetStats())
	}
	if ws := w.CacheStats(); ws.Hits != 0 {
		t.Fatalf("a worker that keeps no block hit its cache: %+v", ws)
	}
}

// TestSendTrackerAgesLikeBlockCache drives a driver's sendTracker and a
// worker's cache tier through one stream of sends, as the wire pairs them
// (a tracker miss is an insert, a hit a lookup), and holds them to the same
// set of live keys after every send: a key the tracker would find is one a
// lookup would find. Epochs arrive out of order, as under concurrent jobs:
// a reference refreshes an entry to its own epoch on both sides, never to
// the newest one seen.
func TestSendTrackerAgesLikeBlockCache(t *testing.T) {
	key := func(n int) codec.Digest { return codec.Digest{byte(n), byte(n >> 8)} }
	blk := matrix.NewDense(1, 1)
	// visible reports whether a lookup at the cache's newest epoch would
	// find dg, touching nothing.
	visible := func(c *handleStore, dg codec.Digest) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		e := c.cached[dg]
		return e != nil && c.win.live(e.epoch)
	}
	check := func(t *testing.T, tr *sendTracker, c *handleStore, keys int, step string) {
		t.Helper()
		for n := 0; n < keys; n++ {
			sent := tr.sent.has(tr.sent.win.newest, key(n))
			if held := visible(c, key(n)); sent != held {
				t.Fatalf("%s: key %d tracked as sent %v, held by the worker %v", step, n, sent, held)
			}
		}
	}
	send := func(t *testing.T, tr *sendTracker, c *handleStore, epoch uint64, n int) {
		t.Helper()
		if tr.seen(epoch, key(n)) {
			if _, ok := c.cacheLookup(epoch, key(n)); !ok {
				t.Fatalf("epoch %d: key %d referenced, but the worker dropped it", epoch, n)
			}
			return
		}
		c.cacheInsert(epoch, key(n), blk, 8)
	}

	t.Run("reference behind the newest epoch", func(t *testing.T) {
		tr, c := &sendTracker{}, newHandleStore(0)
		send(t, tr, c, 5, 0)  // key 0 inserted at epoch 5
		send(t, tr, c, 11, 1) // a concurrent job's send moves the watermark to 11
		send(t, tr, c, 10, 0) // key 0 referenced by the job at epoch 10
		for epoch := uint64(12); epoch <= 12+defaultCacheEpochWindow; epoch++ {
			send(t, tr, c, epoch, 2) // one send per later job, key 0 untouched
			check(t, tr, c, 3, fmt.Sprintf("epoch %d", epoch))
		}
		if visible(c, key(0)) {
			t.Fatal("key 0 never aged out")
		}
	})

	t.Run("interleaved jobs", func(t *testing.T) {
		tr, c := &sendTracker{}, newHandleStore(0)
		rng := rand.New(rand.NewSource(7401))
		// 300 keys at ten sends an epoch: a key recurs about every 30
		// epochs, so sends straddle the window both ways.
		const keys = 300
		for i := 0; i < 4000; i++ {
			// Job epochs rise one per ten sends, each send from a job up to
			// four epochs behind the newest.
			epoch := uint64(1+i/10) + 4 - uint64(rng.Intn(5))
			send(t, tr, c, epoch, rng.Intn(keys))
			check(t, tr, c, keys, fmt.Sprintf("send %d", i))
		}
	})
}

// largeBlockMatrices are an n×n pair in 32×32 dense blocks: 8 KiB records,
// whose cache keys come from blockKeys' filter.
func largeBlockMatrices(seed int64, n int) (a, b *bmat.BlockMatrix) {
	rng := rand.New(rand.NewSource(seed))
	return bmat.RandomDense(rng, n, n, 32), bmat.RandomDense(rng, n, n, 32)
}

// TestColdJobsHashNothing: the placement of TestPlanOrderPlacementShipsEachBlockOnce
// with 8 KiB blocks. Every job brings new content, so no block is hashed —
// each gets a fresh key — and the within-job replicas are still references:
// 72 in every job, none missing, the same bytes on the wire each time.
func TestColdJobsHashNothing(t *testing.T) {
	params := core.Params{P: 2, Q: 2, R: 2}
	addrs, _ := startWorkers(t, 2)
	opts := fastOpts()
	opts.DisableHeartbeat = true // no pings in the byte counts
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var firstSent, firstReceived int64
	for job := 0; job < 20; job++ {
		a, b := largeBlockMatrices(int64(7500+job), 6*32)
		before := d.NetStats()
		sent0, received0 := d.WireBytes()
		if _, err := execute(d, a, b, params); err != nil {
			t.Fatal(err)
		}
		delta := d.NetStats().Sub(before)
		sent1, received1 := d.WireBytes()
		sent, received := sent1-sent0, received1-received0
		if delta.BlocksHashed != 0 || delta.BlocksPrepared != 72 {
			t.Errorf("job %d: hashed %d of %d prepared blocks, want 0 of 72", job, delta.BlocksHashed, delta.BlocksPrepared)
		}
		if delta.CacheRefsSent != 72 || delta.CacheRefMisses != 0 {
			t.Errorf("job %d: %d blocks sent as references (%d missed), want 72 (0)", job, delta.CacheRefsSent, delta.CacheRefMisses)
		}
		if job == 0 {
			firstSent, firstReceived = sent, received
		} else if sent != firstSent || received != firstReceived {
			t.Errorf("job %d moved %d bytes out and %d in, job 0 %d and %d", job, sent, received, firstSent, firstReceived)
		}
	}
}

// TestLargeRepeatHashedFromSecondSight: the same 8 KiB-block operands three
// times through one worker at (1,1,1), every block sent once a job. The
// first sight ships under fresh keys; the second is hashed, because the
// filter saw the blocks, and ships inline under the digests; the third is
// hashed again and all references. The product never changes a bit.
func TestLargeRepeatHashedFromSecondSight(t *testing.T) {
	params := core.Params{P: 1, Q: 1, R: 1}
	a, b := largeBlockMatrices(7510, 2*32)
	blocks := int64(a.NumBlocks() + b.NumBlocks())
	addrs, _ := startWorkers(t, 1)
	d, err := DialOptions(addrs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var first *bmat.BlockMatrix
	for run, want := range []struct{ hashed, refs int64 }{{0, 0}, {blocks, 0}, {blocks, blocks}} {
		before := d.NetStats()
		got, err := execute(d, a, b, params)
		if err != nil {
			t.Fatal(err)
		}
		delta := d.NetStats().Sub(before)
		if delta.BlocksHashed != want.hashed || delta.CacheRefsSent != want.refs || delta.CacheRefMisses != 0 {
			t.Errorf("run %d: %d blocks hashed, %d references (%d missed), want %d, %d (0)",
				run, delta.BlocksHashed, delta.CacheRefsSent, delta.CacheRefMisses, want.hashed, want.refs)
		}
		if first == nil {
			first = got
		} else {
			bitIdentical(t, got, first)
		}
	}
}

// TestFreshKeysNeverCollide: two drivers share one worker's cache and run
// cold jobs on it at once, four each, whose replicas go out as references to
// fresh keys. Each driver numbers its keys from the same counter start; only
// their random prefixes keep them apart. No reference may miss or resolve to
// another job's block: every product is the bits of core.MultiplyCuboid.
func TestFreshKeysNeverCollide(t *testing.T) {
	params := core.Params{P: 2, Q: 2, R: 1}
	addrs, workers := startWorkers(t, 1)
	var drivers [2]*Driver
	for i := range drivers {
		d, err := DialOptions(addrs, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		drivers[i] = d
	}
	cfg := cluster.LaptopConfig()
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 8
	var operands [jobs][2]*bmat.BlockMatrix
	var want, got [jobs]*bmat.BlockMatrix
	var errs [jobs]error
	for job := range jobs {
		a, b := largeBlockMatrices(int64(7520+job), 4*32)
		operands[job] = [2]*bmat.BlockMatrix{a, b}
		if want[job], err = core.MultiplyCuboid(context.Background(), a, b, params, core.Env{Cluster: cl}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[job], errs[job] = execute(drivers[job%2], operands[job][0], operands[job][1], params)
		}()
	}
	wg.Wait()
	for job := range jobs {
		if errs[job] != nil {
			t.Fatalf("job %d: %v", job, errs[job])
		}
		bitIdentical(t, got[job], want[job])
	}
	for i, d := range drivers {
		if st := d.NetStats(); st.CacheRefsSent == 0 || st.CacheRefMisses != 0 || st.BlocksHashed != 0 {
			t.Errorf("driver %d: %d references (%d missed), %d blocks hashed; want some references, none missed or hashed",
				i, st.CacheRefsSent, st.CacheRefMisses, st.BlocksHashed)
		}
	}
	if ws := workers[0].CacheStats(); ws.Misses != 0 {
		t.Fatalf("worker cache missed %d references", ws.Misses)
	}
}

// BenchmarkJobPrepare times the prepare step of one dense_cold-shaped job:
// 768² operands in 128×128 blocks, 72 distinct 128 KiB blocks, as the four
// (p,q) columns of (2,2,2). cold gives every job a new key issuer, so no
// block was seen before and each gets a fresh key; repeated runs the same
// operands through one issuer, so every block is hashed. MB/s is over the 72
// records' payload.
func BenchmarkJobPrepare(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := bmat.RandomDense(rng, 768, 768, 128), bmat.RandomDense(rng, 768, 768, 128)
	var calls []*multiplyArgs
	core.ForEachCuboid(core.Params{P: 2, Q: 2, R: 1}, x.IB, y.JB, x.JB, func(_, _, _ int, box core.Box) {
		calls = append(calls, &multiplyArgs{
			ABlocks: boxRecs(x, box.ILo, box.IHi, box.KLo, box.KHi),
			BBlocks: boxRecs(y, box.KLo, box.KHi, box.JLo, box.JHi),
		})
	})
	d := &Driver{rec: &metrics.Recorder{}, keys: newBlockKeys()}
	prepareJob := func() *jobPrep {
		jp := d.newJobPrep()
		for _, call := range calls {
			if err := jp.prepare(call); err != nil {
				b.Fatal(err)
			}
		}
		return jp
	}
	var payload int64
	for _, p := range prepareJob().recs {
		payload += p.Size()
	}
	for _, mode := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"repeated", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(payload)
			for b.Loop() {
				if mode.cold {
					d.keys = newBlockKeys()
				}
				prepareJob()
			}
		})
	}
}
