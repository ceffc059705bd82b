package distnet

import (
	"container/list"

	"distme/internal/codec"
	"distme/internal/matrix"
)

// defaultCacheEpochWindow is how many job epochs a cached block survives
// without being referenced. One multiply bumps the driver's epoch once, so
// under a serial workload the window behaves like "keep blocks for the last
// N jobs"; under a concurrent serving workload it is what lets many
// in-flight jobs share one block cache instead of purging each other on
// every epoch bump. The driver's sendTracker ages its sent set by
// the same window, so it never references a block the worker has dropped.
const defaultCacheEpochWindow = 32

// epochWindow is the one ageing rule of everything kept by job epoch — the
// worker's cached blocks and held running sums, the driver's send trackers
// and fingerprints: an entry is live while its epoch is no more than
// defaultCacheEpochWindow behind the newest epoch seen. Aged entries count
// as absent at once and leave no later than a sweep, which advance calls
// for once a window, so that no new epoch walks every entry. The zero value
// has seen no epoch.
type epochWindow struct {
	newest uint64 // newest epoch observed
	swept  uint64 // newest epoch at the last sweep
}

// epochFloor is the oldest epoch an entry may carry and be live while epoch
// is the newest seen.
func epochFloor(epoch uint64) uint64 {
	if epoch > defaultCacheEpochWindow {
		return epoch - defaultCacheEpochWindow
	}
	return 0
}

// advance records epoch and reports whether a sweep is due: the newest
// epoch has moved a whole window past the last sweep.
func (w *epochWindow) advance(epoch uint64) bool {
	if epoch <= w.newest {
		return false
	}
	w.newest = epoch
	if epoch < w.swept+defaultCacheEpochWindow {
		return false
	}
	w.swept = epoch
	return true
}

// live reports whether an entry last touched at epoch e is in the window.
func (w *epochWindow) live(e uint64) bool { return e >= epochFloor(w.newest) }

// CacheStats is a snapshot of one worker's block-cache counters.
type CacheStats struct {
	// Insertions counts blocks added to the cache (first inline arrival).
	Insertions int64 `json:"insertions"`
	// Hits counts digest references resolved from the cache; Misses counts
	// references that failed (aged out, evicted, or never received) and
	// were answered with the unknown-digest error so the driver resends.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries that left before being referenced again:
	// aged out of the epoch window, or displaced by the memory budget.
	Evictions int64 `json:"evictions"`
	// Bytes and Entries describe the current residency.
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
}

// The block cache is the handle store's first tier: blocks a push call
// carried inline under a 32-byte key, kept for later calls that name the
// key alone. Correctness is carried entirely by the keys — each is bound to
// one content, a SHA-256 digest by the hash and a driver's fresh key by
// being issued once, so a hit can only ever return the exact bytes the
// driver sent under that key — and the job epoch is purely a lifecycle
// bound. Each entry remembers the newest epoch that touched it and ages by
// the store's window (handleStore.ageLocked). Concurrent jobs, which each
// carry a distinct epoch, share warm blocks instead of purging each other.
// The tier is the first to go under the memory budget
// (handleStore.evictLocked).
type cacheEntry struct {
	dig    codec.Digest
	blk    matrix.Block
	weight int64
	epoch  uint64 // newest epoch that inserted or referenced this entry
	el     *list.Element
}

// cacheInsert keeps blk, which arrived inline under key dg at epoch. A
// repeat refreshes the entry's epoch, so hot blocks shared by many jobs
// stay resident. A block larger than the whole budget is not kept.
func (s *handleStore) cacheInsert(epoch uint64, dg codec.Digest, blk matrix.Block, weight int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cachedLocked(epoch, dg) != nil {
		return
	}
	if s.capBytes > 0 && weight > s.capBytes {
		return
	}
	e := &cacheEntry{dig: dg, blk: blk, weight: weight, epoch: epoch}
	e.el = s.cl.PushFront(e)
	s.cached[dg] = e
	s.cacheBytes += weight
	s.cache.Insertions++
	s.evictLocked()
}

// cacheLookup resolves a key reference. The key alone carries correctness,
// so a hit is valid regardless of which epoch inserted the entry; the hit
// refreshes the entry's epoch, keeping blocks shared across concurrent jobs
// inside the window.
func (s *handleStore) cacheLookup(epoch uint64, dg codec.Digest) (matrix.Block, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.cachedLocked(epoch, dg)
	if e == nil {
		s.cache.Misses++
		return nil, false
	}
	s.cache.Hits++
	return e.blk, true
}

// cachedLocked ages the store to epoch and returns dg's live entry, touched
// at epoch, or nil. An aged entry counts as absent, and leaves.
func (s *handleStore) cachedLocked(epoch uint64, dg codec.Digest) *cacheEntry {
	s.ageLocked(epoch)
	e := s.cached[dg]
	if e == nil {
		return nil
	}
	if !s.win.live(e.epoch) {
		s.dropCachedLocked(e)
		return nil
	}
	e.epoch = max(e.epoch, epoch)
	s.cl.MoveToFront(e.el)
	return e
}

// dropCachedLocked removes one cached block, counting it evicted.
func (s *handleStore) dropCachedLocked(e *cacheEntry) {
	s.cl.Remove(e.el)
	delete(s.cached, e.dig)
	s.cacheBytes -= e.weight
	s.cache.Evictions++
}

// cacheStats snapshots the tier's counters.
func (s *handleStore) cacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.cache
	st.Bytes, st.Entries = s.cacheBytes, s.cl.Len()
	return st
}
