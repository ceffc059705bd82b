package distnet

import (
	"container/list"
	"sync"

	"distme/internal/codec"
	"distme/internal/matrix"
)

// defaultCacheBytes is the worker block cache's default capacity.
const defaultCacheBytes int64 = 256 << 20

// defaultCacheEpochWindow is how many job epochs a cached block survives
// without being referenced. One multiply bumps the driver's epoch once, so
// under a serial workload the window behaves like "keep blocks for the last
// N jobs"; under a concurrent serving workload it is what lets many
// in-flight jobs share one block cache instead of purging each other on
// every epoch bump. The driver's sendTracker ages its sent set by
// the same window, so it never references a block the worker has dropped.
const defaultCacheEpochWindow = 32

// CacheStats is a snapshot of one worker's block-cache counters.
type CacheStats struct {
	// Insertions counts blocks added to the cache (first inline arrival).
	Insertions int64 `json:"insertions"`
	// Hits counts digest references resolved from the cache; Misses counts
	// references that failed (aged out, evicted, or never received) and
	// were answered with the unknown-digest error so the driver resends.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries displaced by the byte-capacity bound.
	Evictions int64 `json:"evictions"`
	// Bytes and Entries describe the current residency.
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
}

// blockCache is the worker-side block store: a bounded LRU keyed by the
// 32-byte key a block arrived under. Correctness is carried entirely by the
// keys — each is bound to one content, a SHA-256 digest by the hash and a
// driver's fresh key by being issued once, so a hit can only ever return the
// exact bytes the driver sent under that key — and the job epoch is purely a
// lifecycle bound. Each entry remembers the newest epoch that touched it,
// and entries whose epoch falls more than defaultCacheEpochWindow behind the
// newest epoch seen are purged. That keeps residency bounded across job
// churn while letting concurrent jobs — which each carry a distinct epoch —
// share warm blocks instead of purging each other.
type blockCache struct {
	mu       sync.Mutex
	capBytes int64
	bytes    int64
	epoch    uint64     // newest epoch observed
	ll       *list.List // front = most recently used
	byDigest map[codec.Digest]*list.Element

	insertions, hits, misses, evictions int64
}

type cacheEntry struct {
	dig    codec.Digest
	blk    matrix.Block
	weight int64
	epoch  uint64 // newest epoch that inserted or referenced this entry
}

// newBlockCache sizes a cache; capBytes 0 takes the default, negative
// disables caching entirely (returns nil; lookups then miss and inserts
// drop, which the wire protocol's resend path already tolerates).
func newBlockCache(capBytes int64) *blockCache {
	if capBytes == 0 {
		capBytes = defaultCacheBytes
	}
	if capBytes < 0 {
		return nil
	}
	return &blockCache{
		capBytes: capBytes,
		ll:       list.New(),
		byDigest: map[codec.Digest]*list.Element{},
	}
}

// insert stores a decoded block under its digest for the given epoch. An
// insert from a newer epoch first ages out entries that have fallen outside
// the epoch window; a duplicate insert refreshes the entry's epoch so hot
// blocks shared by many jobs stay resident.
func (c *blockCache) insert(epoch uint64, dg codec.Digest, blk matrix.Block, weight int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.epoch = epoch
		c.expireLocked()
	}
	if el, ok := c.byDigest[dg]; ok {
		e := el.Value.(*cacheEntry)
		if epoch > e.epoch {
			e.epoch = epoch
		}
		c.ll.MoveToFront(el)
		return
	}
	if weight > c.capBytes {
		return // larger than the whole cache: not worth displacing everything
	}
	c.byDigest[dg] = c.ll.PushFront(&cacheEntry{dig: dg, blk: blk, weight: weight, epoch: epoch})
	c.bytes += weight
	c.insertions++
	for c.bytes > c.capBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.byDigest, e.dig)
		c.bytes -= e.weight
		c.evictions++
	}
}

// lookup resolves a key reference. The key alone carries correctness,
// so a hit is valid regardless of which epoch inserted the entry; the hit
// refreshes the entry's epoch, keeping blocks shared across concurrent jobs
// inside the lifecycle window.
func (c *blockCache) lookup(epoch uint64, dg codec.Digest) (matrix.Block, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.epoch = epoch
		c.expireLocked()
	}
	el, ok := c.byDigest[dg]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if epoch > e.epoch {
		e.epoch = epoch
	}
	c.ll.MoveToFront(el)
	c.hits++
	return e.blk, true
}

// expireLocked drops entries whose last-touch epoch has fallen outside the
// window. Concurrent jobs interleave epochs, so LRU position does not
// strictly order last-touch epochs and the scan walks the whole list; it
// only runs when the newest-epoch watermark advances (once per job), and
// residency is already byte-bounded, so the walk stays cheap.
func (c *blockCache) expireLocked() {
	if c.epoch <= defaultCacheEpochWindow {
		return
	}
	floor := c.epoch - defaultCacheEpochWindow
	for el := c.ll.Back(); el != nil; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if e.epoch < floor {
			c.ll.Remove(el)
			delete(c.byDigest, e.dig)
			c.bytes -= e.weight
			c.evictions++
		}
		el = prev
	}
}

// stats snapshots the counters.
func (c *blockCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Insertions: c.insertions,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Bytes:      c.bytes,
		Entries:    c.ll.Len(),
	}
}
