package distnet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// The worker half of the one-sided pull data plane. A pull-mode cuboid
// arrives with placement manifests instead of operand payloads; the worker
// resolves each manifest against, in order: its content-addressed block
// cache (dedup — the driver hashed every slice it placed), its own handle
// store (entries it is the owner of), and its peer workers (one coalesced
// bounding-box GetBlocks per (handle, owner), bounded-concurrency). The
// driver stays the last-resort data source: any resolution failure is a
// pullError, which the driver answers by re-pushing the cuboid's blocks
// inline.

// pullFetchConcurrency bounds concurrent peer fetches during one manifest
// resolution.
const pullFetchConcurrency = 4

// pullStats is one manifest resolution's accounting.
type pullStats struct {
	hits, fetches, peerBytes int64
}

func (a *pullStats) add(b pullStats) {
	a.hits += b.hits
	a.fetches += b.fetches
	a.peerBytes += b.peerBytes
}

// resolvePull materializes one manifest's blocks. Entries absent from a
// successfully-read owner band are structurally absent (sparse zero blocks)
// and are skipped — computeCuboid treats missing keys as zero, exactly like
// the push path skipping nil blocks.
func (w *Worker) resolvePull(parent obs.SpanID, epoch uint64, self string, m *codec.Manifest) ([]blockRec, pullStats, error) {
	var st pullStats
	if m == nil || len(m.Entries) == 0 {
		return nil, st, nil
	}
	recs := make([]blockRec, 0, len(m.Entries))
	// Pass 1: cache dedup. A digest hit returns the exact bytes the driver
	// hashed, so no fetch (and no bandwidth) is needed.
	unresolved := make(map[int][]int) // owner index → entry indices
	resolved := make(map[int]matrix.Block, len(m.Entries))
	for ei, e := range m.Entries {
		if e.HasDigest {
			if blk, ok := w.cache.lookup(epoch, e.Digest); ok {
				resolved[ei] = blk
				st.hits++
				continue
			}
		}
		unresolved[e.Owner] = append(unresolved[e.Owner], ei)
	}
	// Pass 2: owner bands. The local band reads the store; each remote owner
	// gets ONE coalesced bounding-box fetch, remote owners in parallel under
	// the concurrency bound.
	owners := make([]int, 0, len(unresolved))
	for o := range unresolved {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	type ownerResult struct {
		blocks map[bmat.BlockKey]matrix.Block
		stats  pullStats
		err    error
	}
	results := make(map[int]*ownerResult, len(owners))
	sem := make(chan struct{}, pullFetchConcurrency)
	var wg sync.WaitGroup
	for _, o := range owners {
		res := &ownerResult{}
		results[o] = res
		addr := m.Owners[o]
		entries := unresolved[o]
		if addr == self {
			// Local band: the store read; no wire traffic.
			local, err := w.localBand(m.Handle)
			if err != nil {
				res.err = err
				continue
			}
			res.blocks = local
			continue
		}
		wg.Add(1)
		go func(addr string, entries []int, res *ownerResult) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			args := &getArgs{Handle: m.Handle, traceSpan: uint64(parent)}
			args.ILo, args.IHi, args.JLo, args.JHi = entryBox(m.Entries, entries)
			fetched, _, err := w.peerGet(parent, addr, args)
			if err != nil {
				res.err = err
				return
			}
			res.stats.fetches++
			res.blocks = make(map[bmat.BlockKey]matrix.Block, len(fetched.Blocks))
			for _, r := range fetched.Blocks {
				res.blocks[r.Key] = r.Block
				if r.Block != nil {
					res.stats.peerBytes += r.Block.SizeBytes()
				}
			}
		}(addr, entries, res)
	}
	wg.Wait()
	for _, o := range owners {
		res := results[o]
		if res.err != nil {
			return nil, st, &pullError{handle: m.Handle, err: res.err}
		}
		st.add(res.stats)
		for _, ei := range unresolved[o] {
			e := m.Entries[ei]
			blk, ok := res.blocks[bmat.BlockKey{I: e.KeyI, J: e.KeyJ}]
			if !ok || blk == nil {
				continue // structurally absent: a sparse zero block
			}
			resolved[ei] = blk
			// Fetched slices enter the content-addressed cache so the next
			// cuboid needing this digest dedups instead of re-fetching.
			if e.HasDigest {
				if weight := blk.SizeBytes(); weight >= minCacheableBytes {
					w.cache.insert(epoch, e.Digest, blk, weight)
				}
			}
		}
	}
	for ei, e := range m.Entries {
		if blk, ok := resolved[ei]; ok {
			recs = append(recs, blockRec{Key: bmat.BlockKey{I: e.KeyI, J: e.KeyJ}, Block: blk})
		}
	}
	return recs, st, nil
}

// entryBox is the block-coordinate bounding box of the listed manifest
// entries — the coalesced fetch window for one owner.
func entryBox(entries []codec.ManifestEntry, idxs []int) (ilo, ihi, jlo, jhi int) {
	first := true
	for _, ei := range idxs {
		e := entries[ei]
		if first {
			ilo, ihi, jlo, jhi = e.KeyI, e.KeyI+1, e.KeyJ, e.KeyJ+1
			first = false
			continue
		}
		if e.KeyI < ilo {
			ilo = e.KeyI
		}
		if e.KeyI+1 > ihi {
			ihi = e.KeyI + 1
		}
		if e.KeyJ < jlo {
			jlo = e.KeyJ
		}
		if e.KeyJ+1 > jhi {
			jhi = e.KeyJ + 1
		}
	}
	return
}

// preparePull resolves a pull-mode cuboid's manifests into ABlocks/BBlocks,
// recording the wire.pull span and folding the resolution counters into the
// reply and the worker's gauges.
func (w *Worker) preparePull(args *multiplyArgs, reply *multiplyReply) error {
	sp := w.tracer.Start(obs.SpanID(args.traceSpan), "wire.pull", obs.KindWorker)
	args.label(sp)
	if sp.Active() {
		sp.SetWorker(w.addr)
	}
	defer sp.End()
	var st pullStats
	aRecs, sa, err := w.resolvePull(sp.ID(), args.cacheEpoch, args.pullSelf, args.aManifest)
	if err == nil {
		st.add(sa)
		var sb pullStats
		var bRecs []blockRec
		bRecs, sb, err = w.resolvePull(sp.ID(), args.cacheEpoch, args.pullSelf, args.bManifest)
		if err == nil {
			st.add(sb)
			args.ABlocks, args.BBlocks = aRecs, bRecs
		}
	}
	if err != nil {
		if sp.Active() {
			sp.SetAttr("error", err.Error())
		}
		atomic.AddInt64(&w.pull.Live().Errors, 1)
		return err
	}
	if sp.Active() {
		sp.SetAttr("hits", fmt.Sprintf("%d", st.hits))
		sp.SetAttr("fetches", fmt.Sprintf("%d", st.fetches))
		sp.SetAttr("peer-bytes", fmt.Sprintf("%d", st.peerBytes))
	}
	reply.pullHits, reply.pullFetches, reply.pullPeerBytes = st.hits, st.fetches, st.peerBytes
	c := w.pull.Live()
	atomic.AddInt64(&c.Hits, st.hits)
	atomic.AddInt64(&c.PeerFetches, st.fetches)
	atomic.AddInt64(&c.PeerBytes, st.peerBytes)
	return nil
}

// WorkerPullStats snapshots the worker's pull-plane gauges for the debug
// endpoint.
type WorkerPullStats struct {
	// Hits counts manifest entries the content-addressed cache satisfied;
	// PeerFetches/PeerBytes count the coalesced fetches issued and the
	// payload they moved (StoreStats counts the same fetches too); Errors
	// counts resolutions that failed (the driver then re-pushed inline).
	Hits        int64 `json:"hits"`
	PeerFetches int64 `json:"peer_fetches"`
	PeerBytes   int64 `json:"peer_bytes"`
	Errors      int64 `json:"errors"`
}

// PullStats snapshots the worker's pull-resolution counters.
func (w *Worker) PullStats() WorkerPullStats { return w.pull.Load() }
