package distnet

import (
	"container/list"
	"slices"
	"sort"
	"sync"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/matrix"
)

// defaultMemBytes is the worker's default memory budget.
const defaultMemBytes int64 = 512 << 20

// StoreStats is a snapshot of one worker's handle-store counters.
type StoreStats struct {
	// Handles and Blocks describe current residency; Bytes is their payload.
	Handles int   `json:"handles"`
	Blocks  int   `json:"blocks"`
	Bytes   int64 `json:"bytes"`
	// Pinned counts handles excluded from eviction.
	Pinned int `json:"pinned"`
	// Puts counts PutBlocks uploads; Execs counts pipeline operators run.
	Puts  int64 `json:"puts"`
	Execs int64 `json:"execs"`
	// Evictions counts unpinned handles displaced by the byte bound (each
	// later read triggers a driver-side lineage rebuild).
	Evictions int64 `json:"evictions"`
	// PeerFetches counts worker→worker GetBlocks calls this worker issued;
	// PeerFetchBytes is the payload they carried. Both include the fetches
	// pull resolution issues, which WorkerPullStats.PeerFetches/PeerBytes
	// count again: store.peer_* contains pull.peer_*.
	PeerFetches    int64 `json:"peer_fetches"`
	PeerFetchBytes int64 `json:"peer_fetch_bytes"`
	// PeerLinks breaks the aggregate peer-fetch counters down per remote
	// address, sorted by address; the per-link sums equal the aggregates.
	PeerLinks []PeerLinkStats `json:"peer_links,omitempty"`
	// ReplicaHits counts the cuts of peers' bands a read found inside a
	// replica — a cut this worker fetched before, kept under the rectangle
	// it answers for — instead of fetching them; ReplicaBytes is what those
	// replicas hold now and CSCMemoBytes the column-form copies of CSR blocks
	// kept beside resident bands and replicas. Both are part of Bytes.
	ReplicaHits  int64 `json:"replica_hits"`
	ReplicaBytes int64 `json:"replica_bytes"`
	CSCMemoBytes int64 `json:"csc_memo_bytes"`
}

// PeerLinkStats is one worker→worker link's fetch traffic, as seen by the
// fetching side.
type PeerLinkStats struct {
	Addr    string `json:"addr"`
	Fetches int64  `json:"fetches"`
	Bytes   int64  `json:"bytes"`
}

// storeEntry is one resident band of a handle: the block-row slice of the
// matrix this worker owns under the session's co-partitioning, or a replica
// — a cut of the band a peer owns, whatever part of it, kept after a read
// fetched it and found by the rectangle it answers for. blocks never changes
// once the entry exists. A handle id is never bound to new content (a
// rebuild takes a fresh id), so a replica cannot go stale.
type storeEntry struct {
	id     uint64
	epoch  uint64
	peer   string    // the owner a replica was copied from; "" for the owned band
	rect   blockRect // what a replica answers for (getReply.Cover)
	blocks map[bmat.BlockKey]matrix.Block
	// csc memoises the CSC form of CSR blocks a dense left operand met
	// (handleStore.rightOperand); guarded by the store's mutex.
	csc      map[bmat.BlockKey]*matrix.CSC
	cscBytes int64
	bytes    int64 // blocks and memo
	pins     int
	el       *list.Element // in its LRU (replicas: always; owned: while unpinned)
	detached bool          // not, or no longer, in the store: its memo is charged to nobody
}

// handleStore is a worker's memory: everything it holds, under one byte
// budget. Its tiers, in the order the budget drops them:
//   - cached blocks (blockcache.go), each a resend away;
//   - replicas: the cuts of peers' bands this worker fetched, each a peer
//     fetch away;
//   - the unpinned owned bands — resident handle bands, epoch-scoped to one
//     driver session — which the driver rebuilds from lineage when a read
//     of a missing handle returns errUnknownHandle.
//
// Each tier is an LRU. Pinned bands (ref-counted by pins) and held running
// sums (chain.go) count against the budget but are never dropped.
type handleStore struct {
	mu       sync.Mutex
	capBytes int64      // ≤ 0 = unbounded
	bytes    int64      // the bands: owned, replicas and their memos
	ll       *list.List // front = most recently used, unpinned owned entries only
	byID     map[uint64]*storeEntry
	rl       *list.List               // the replicas, front = most recently used
	replicas map[uint64][]*storeEntry // handle id → the copies of its peers' bands

	// The cache tier, front = most recently used, and the running sums
	// chain links leave for their successors: both age by win.
	cl         *list.List
	cached     map[codec.Digest]*cacheEntry
	cacheBytes int64
	cache      CacheStats // the counters; residency is computed
	sums       map[sumKey]*sumSlot
	sumBytes   int64
	win        epochWindow

	puts, execs, evictions, peerFetches, peerFetchBytes, replicaHits int64
	peerLinks                                                        map[string]*peerLink
}

// peerLink accumulates one remote address's fetch traffic.
type peerLink struct {
	fetches, bytes int64
}

// newHandleStore sizes a store; capBytes 0 takes defaultMemBytes, negative
// means unbounded.
func newHandleStore(capBytes int64) *handleStore {
	if capBytes == 0 {
		capBytes = defaultMemBytes
	}
	return &handleStore{
		capBytes: capBytes,
		ll:       list.New(),
		byID:     map[uint64]*storeEntry{},
		rl:       list.New(),
		replicas: map[uint64][]*storeEntry{},
		cl:       list.New(),
		cached:   map[codec.Digest]*cacheEntry{},
		sums:     map[sumKey]*sumSlot{},
	}
}

func blocksWeight(blocks map[bmat.BlockKey]matrix.Block) int64 {
	var n int64
	for _, b := range blocks {
		if b != nil {
			n += b.SizeBytes()
		}
	}
	return n
}

// set installs (or replaces) a handle's band, dropping what the store held
// under the id, replicas included. An empty band still creates the entry,
// so existence checks distinguish "empty matrix slice" from "never
// received". pin starts the handle pinned.
func (s *handleStore) set(id, epoch uint64, pin bool, blocks map[bmat.BlockKey]matrix.Block, isPut bool) int64 {
	if blocks == nil {
		blocks = map[bmat.BlockKey]matrix.Block{}
	}
	w := blocksWeight(blocks)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(id)
	e := &storeEntry{id: id, epoch: epoch, blocks: blocks, bytes: w}
	if pin {
		e.pins = 1
	} else {
		e.el = s.ll.PushFront(e)
	}
	s.byID[id] = e
	s.bytes += w
	if isPut {
		s.puts++
	} else {
		s.execs++
	}
	s.evictLocked()
	return w
}

// get returns the band of a handle this worker owns (its blocks are the
// live map — callers must not mutate it) and touches the LRU.
func (s *handleStore) get(id uint64) (*storeEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	if e.el != nil {
		s.ll.MoveToFront(e.el)
	}
	return e, true
}

// replica returns a kept replica of handle id's band at peer whose
// rectangle contains cut, counting the fetch it saves.
func (s *handleStore) replica(id uint64, peer string, cut blockRect) (*storeEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.replicas[id] {
		if e.peer == peer && e.rect.contains(cut) {
			s.rl.MoveToFront(e.el)
			s.replicaHits++
			return e, true
		}
	}
	return nil, false
}

// addReplica keeps blocks, a cut of the band of handle id fetched from peer
// that answers for rect, for the reads after this one, and returns the entry
// to read them through. A replica whose rectangle already contains rect wins
// (two reads fetched at once); the replicas rect contains go, so no replica
// of a band contains another.
func (s *handleStore) addReplica(id, epoch uint64, peer string, rect blockRect, blocks map[bmat.BlockKey]matrix.Block) *storeEntry {
	w := blocksWeight(blocks)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range slices.Clone(s.replicas[id]) {
		switch {
		case e.peer != peer:
		case e.rect.contains(rect):
			return e
		case rect.contains(e.rect):
			s.removeLocked(e)
		}
	}
	e := &storeEntry{id: id, epoch: epoch, peer: peer, rect: rect, blocks: blocks, bytes: w}
	e.el = s.rl.PushFront(e)
	s.replicas[id] = append(s.replicas[id], e)
	s.bytes += w
	s.evictLocked()
	return e
}

// rightOperand returns block key of e as the right operand of a product
// whose left operands are all dense: a CSR block in CSC form, which is what
// the dense-left kernels read. The conversion runs the first time and is
// kept with the entry, charged to the store like the band itself.
func (s *handleStore) rightOperand(e *storeEntry, key bmat.BlockKey) matrix.Block {
	csr, ok := e.blocks[key].(*matrix.CSR)
	if !ok {
		return e.blocks[key]
	}
	s.mu.Lock()
	c := e.csc[key]
	s.mu.Unlock()
	if c != nil {
		return c
	}
	c = matrix.NewCSCFromCSR(csr) // outside the lock: peers keep reading the store
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev := e.csc[key]; prev != nil {
		return prev
	}
	if e.csc == nil {
		e.csc = map[bmat.BlockKey]*matrix.CSC{}
	}
	e.csc[key] = c
	if !e.detached {
		w := c.SizeBytes()
		e.cscBytes += w
		e.bytes += w
		s.bytes += w
		s.evictLocked()
	}
	return c
}

// pin adjusts a handle's pin count; pinned handles leave the LRU and cannot
// be evicted. Unpinning to zero re-enters the LRU as most recently used.
func (s *handleStore) pin(id uint64, unpin bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return false
	}
	if unpin {
		if e.pins > 0 {
			e.pins--
		}
		if e.pins == 0 && e.el == nil {
			e.el = s.ll.PushFront(e)
		}
	} else {
		e.pins++
		if e.el != nil {
			s.ll.Remove(e.el)
			e.el = nil
		}
	}
	s.evictLocked()
	return true
}

// free drops the given handles (pinned or not — Free overrides pins) with
// their replicas, and reports how many owned bands went.
func (s *handleStore) free(ids []uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, id := range ids {
		if s.dropLocked(id) {
			n++
		}
	}
	return n
}

// freeEpoch drops every handle of one session epoch (session Close, or the
// recovery wipe before a lineage rebuild), replicas included.
func (s *handleStore) freeEpoch(epoch uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.byID {
		if e.epoch == epoch {
			s.removeLocked(e)
			n++
		}
	}
	for el := s.rl.Front(); el != nil; {
		e := el.Value.(*storeEntry)
		el = el.Next()
		if e.epoch == epoch {
			s.removeLocked(e)
		}
	}
	return n
}

// dropLocked removes everything held under one handle id and reports
// whether an owned band was among it.
func (s *handleStore) dropLocked(id uint64) bool {
	for len(s.replicas[id]) > 0 {
		s.removeLocked(s.replicas[id][0])
	}
	e, ok := s.byID[id]
	if ok {
		s.removeLocked(e)
	}
	return ok
}

func (s *handleStore) removeLocked(e *storeEntry) {
	if e.peer != "" {
		s.rl.Remove(e.el)
		es := slices.DeleteFunc(s.replicas[e.id], func(x *storeEntry) bool { return x == e })
		if len(es) == 0 {
			delete(s.replicas, e.id)
		} else {
			s.replicas[e.id] = es
		}
	} else {
		if e.el != nil {
			s.ll.Remove(e.el)
		}
		delete(s.byID, e.id)
	}
	e.el = nil
	e.detached = true
	s.bytes -= e.bytes
}

// evictLocked drops entries while the store holds more than its budget:
// cached blocks first, then replicas, then unpinned owned bands, least
// recently used first within each tier. Pinned bands and held sums are in
// no tier, so they alone may hold the store over its budget — pins are a
// promise the driver made, and a sum's successor is on its way. Only a
// dropped owned band counts as a store eviction: it is the one a later read
// rebuilds from lineage.
func (s *handleStore) evictLocked() {
	for s.capBytes > 0 && s.bytes+s.cacheBytes+s.sumBytes > s.capBytes {
		switch {
		case s.cl.Len() > 0:
			s.dropCachedLocked(s.cl.Back().Value.(*cacheEntry))
		case s.rl.Len() > 0:
			s.removeLocked(s.rl.Back().Value.(*storeEntry))
		case s.ll.Len() > 0:
			s.removeLocked(s.ll.Back().Value.(*storeEntry))
			s.evictions++
		default:
			return
		}
	}
}

// ageLocked advances the store's window to epoch and drops what the window
// has passed: aged cached blocks off the cache LRU's tail, each once, and at
// the sweep once a window every aged cached block and held sum. An
// out-of-order touch can leave an aged cached block in mid-list, where it
// counts as absent (cachedLocked) until the sweep.
func (s *handleStore) ageLocked(epoch uint64) {
	sweep := s.win.advance(epoch)
	for el := s.cl.Back(); el != nil; {
		prev, e := el.Prev(), el.Value.(*cacheEntry)
		if !s.win.live(e.epoch) {
			s.dropCachedLocked(e)
		} else if !sweep {
			break
		}
		el = prev
	}
	if sweep {
		for k, sl := range s.sums {
			if sl.made && !s.win.live(sl.epoch) {
				s.dropSumLocked(k, sl)
			}
		}
	}
}

// addPeerFetch records one worker→worker fetch of bytes payload from addr,
// both in the aggregate counters and on the per-link row.
func (s *handleStore) addPeerFetch(addr string, bytes int64) {
	s.mu.Lock()
	s.peerFetches++
	s.peerFetchBytes += bytes
	if s.peerLinks == nil {
		s.peerLinks = map[string]*peerLink{}
	}
	l, ok := s.peerLinks[addr]
	if !ok {
		l = &peerLink{}
		s.peerLinks[addr] = l
	}
	l.fetches++
	l.bytes += bytes
	s.mu.Unlock()
}

// stats snapshots the counters.
func (s *handleStore) stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Handles:        len(s.byID),
		Bytes:          s.bytes,
		Puts:           s.puts,
		Execs:          s.execs,
		Evictions:      s.evictions,
		PeerFetches:    s.peerFetches,
		PeerFetchBytes: s.peerFetchBytes,
		ReplicaHits:    s.replicaHits,
	}
	for _, e := range s.byID {
		st.Blocks += len(e.blocks)
		st.CSCMemoBytes += e.cscBytes
		if e.pins > 0 {
			st.Pinned++
		}
	}
	for el := s.rl.Front(); el != nil; el = el.Next() {
		e := el.Value.(*storeEntry)
		st.ReplicaBytes += e.bytes
		st.CSCMemoBytes += e.cscBytes
	}
	if len(s.peerLinks) > 0 {
		st.PeerLinks = make([]PeerLinkStats, 0, len(s.peerLinks))
		for addr, l := range s.peerLinks {
			st.PeerLinks = append(st.PeerLinks, PeerLinkStats{Addr: addr, Fetches: l.fetches, Bytes: l.bytes})
		}
		sort.Slice(st.PeerLinks, func(i, j int) bool { return st.PeerLinks[i].Addr < st.PeerLinks[j].Addr })
	}
	return st
}
