package distnet

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/matrix"
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

// startCacheWorker serves one worker with explicit cache tuning.
func startCacheWorker(t *testing.T, cacheBytes int64) (string, *Worker) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	w, err := ServeOptions(l, WorkerOptions{CacheBytes: cacheBytes})
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
	args := &multiplyArgs{ILo: 0, IHi: 4, JLo: 0, JHi: 4, KLo: 0, KHi: 4}
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

	reply1, err := d.runJob(context.Background(), args, obs.Span{})
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
	w2, err := Serve(l2)
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
	reply2, err := d.runJob(context.Background(), args, obs.Span{})
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
// DefaultCacheEpochWindow, enough to cross the window and observe expiry.
func TestMembershipChurnDoesNotLeakCacheEntries(t *testing.T) {
	const epochWindow = DefaultCacheEpochWindow
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
// DefaultCacheEpochWindow epochs ago is still referenced, and resolves; one
// last sent a window and one epoch ago goes inline again. Either way the
// worker never answers a reference with a miss.
func TestEpochWindowAgesDriverAndWorkerAlike(t *testing.T) {
	params := core.Params{P: 1, Q: 1, R: 1} // every block ships once per job
	a, b := cacheTestMatrices(7010)
	const blocks = 32 // 16 A blocks + 16 B blocks, all cacheable
	for _, tc := range []struct {
		fillers  int // jobs between the two runs of a×b
		wantRefs int64
	}{
		{DefaultCacheEpochWindow - 1, blocks}, // last sent a window ago
		{DefaultCacheEpochWindow, 0},          // a window and one epoch ago
	} {
		addr, _ := startCacheWorker(t, 0)
		d, err := DialOptions([]string{addr}, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := execute(d, a, b, params); err != nil {
			t.Fatal(err)
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
// whose cache is disabled outright: every digest reference must miss, every
// miss must recover via the inline resend, and the answer must be right.
func TestCacheDisabledWorkerAlwaysRecovers(t *testing.T) {
	a, b := cacheTestMatrices(7004)
	addr, w := startCacheWorker(t, -1)
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
		t.Fatal("product wrong against cache-disabled worker")
	}
	if d.NetStats().CacheRefMisses == 0 {
		t.Fatalf("driver never observed a miss: %+v", d.NetStats())
	}
	if ws := w.CacheStats(); ws != (CacheStats{}) {
		t.Fatalf("disabled cache should report zero stats: %+v", ws)
	}
}
