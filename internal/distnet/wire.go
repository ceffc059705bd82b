package distnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"distme/internal/codec"
	"distme/internal/metrics"
)

// The worker socket's bodies, on internal/codec's frames: written
// scatter-gather from the blocks' own storage, read streaming into the
// decoded blocks' slices — no whole-frame buffer, no second copy. A body that
// fails to decode fails only its call and the connection keeps serving,
// which is exactly what the block cache's unknown-digest recovery relies on.

// errWire is what malformed frames surface as.
var errWire = codec.ErrBadFrame

// Block transport flags inside multiplyArgs.
const (
	blockInline      = 0 // tag + payload, not cached
	blockInlineCache = 1 // digest + tag + payload; worker caches it
	blockRef         = 2 // digest only; worker resolves from cache
)

// minCacheableBytes keeps tiny blocks out of the digest machinery — a
// 32-byte digest plus tracking buys nothing under this size.
const minCacheableBytes = 256

// sendTracker remembers which block digests a member has already received
// recently, so the driver can replace repeats with references. Marking
// happens at encode time ("commit at send"): requests on one connection are
// framed, written and read in order, so a later request's reference can only
// be decoded after the earlier inline copy was. Entries age out when their
// last-sent epoch falls more than DefaultCacheEpochWindow behind the newest
// epoch seen — the window blockCache expires by, so the driver stops
// assuming residency when the worker drops the block.
// Concurrent jobs carry distinct epochs; tracking per digest (not per
// epoch) lets them share dedup state. The tracker is deliberately NOT
// cleared on reconnect — a restarted worker answers the first stale
// reference with the unknown-digest error, runJob calls forget(), and the
// retry ships the blocks inline. A too-optimistic guess always degrades to
// that same clean resend path.
type sendTracker struct {
	mu    sync.Mutex
	epoch uint64 // newest epoch observed
	sent  map[codec.Digest]uint64
}

// seen reports whether dg was already sent within the lifecycle window,
// marking it sent at this epoch otherwise.
func (t *sendTracker) seen(epoch uint64, dg codec.Digest) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sent == nil {
		t.sent = map[codec.Digest]uint64{}
	}
	if epoch > t.epoch {
		t.epoch = epoch
		if t.epoch > DefaultCacheEpochWindow {
			floor := t.epoch - DefaultCacheEpochWindow
			for d, e := range t.sent {
				if e < floor {
					delete(t.sent, d)
				}
			}
		}
	}
	if _, ok := t.sent[dg]; ok {
		t.sent[dg] = t.epoch // refresh: worker-side hit refreshes too
		return true
	}
	t.sent[dg] = epoch
	return false
}

// forget drops everything the driver believed this worker had (after an
// unknown-digest refusal or any other evidence the cache is gone).
func (t *sendTracker) forget() {
	t.mu.Lock()
	t.sent = nil
	t.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Multiply bodies

// blockSender is what framing a cuboid's blocks consults: the digest tracker
// of the worker they go to (nil ships every block inline; so does the block
// cache being off, which leaves records digestless) and the recorder the
// cache savings are counted in (nil counts nothing).
type blockSender struct {
	tracker *sendTracker
	rec     *metrics.Recorder
}

func (s blockSender) appendMultiplyArgs(w *codec.FrameWriter, a *multiplyArgs) error {
	for _, v := range [6]int{a.ILo, a.IHi, a.JLo, a.JHi, a.KLo, a.KHi} {
		w.Uvarint(uint64(v))
	}
	w.Uvarint(a.cacheEpoch)
	w.Uvarint(a.traceSpan)
	for _, v := range [3]int{a.cuboidP, a.cuboidQ, a.slabs} {
		w.Uvarint(uint64(v))
	}
	if a.pull {
		// Pull mode ships the placement manifests instead of the operand
		// blocks — the assigned worker resolves them against its cache, its
		// peers, and (for entries it owns itself) its local store.
		w.Byte(1)
		w.Str(a.pullSelf)
		w.Manifest(a.aManifest)
		w.Manifest(a.bManifest)
		return nil
	}
	w.Byte(0)
	if err := s.appendBlockRecs(w, a.ABlocks, a.cacheEpoch); err != nil {
		return err
	}
	return s.appendBlockRecs(w, a.BBlocks, a.cacheEpoch)
}

// appendBlockRecs emits one operand's block records from their prepared
// form (jobPrep) — as a 32-byte reference when the record's digest was
// already sent to this worker — with no planning or encoding here.
func (s blockSender) appendBlockRecs(w *codec.FrameWriter, recs []blockRec, epoch uint64) error {
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		rec := &recs[i]
		w.Uvarint(uint64(rec.Key.I))
		w.Uvarint(uint64(rec.Key.J))
		p := rec.prep
		if p == nil {
			return fmt.Errorf("distnet: block %v reached the wire unprepared", rec.Key)
		}
		if p.HasDigest && s.tracker != nil {
			if s.tracker.seen(epoch, p.Digest) {
				w.Byte(blockRef)
				w.Bytes(p.Digest[:])
				if s.rec != nil {
					n := s.rec.Net.Live()
					atomic.AddInt64(&n.CacheRefsSent, 1)
					atomic.AddInt64(&n.CacheBytesSaved, max(p.Size()-int64(len(p.Digest)), 0))
				}
				continue
			}
			w.Byte(blockInlineCache)
			w.Bytes(p.Digest[:])
		} else {
			w.Byte(blockInline)
		}
		w.AppendPrepared(p)
	}
	return nil
}

// readInts reads one uvarint into each destination.
func readInts(rd *codec.FrameReader, dst ...*int) error {
	for _, p := range dst {
		v, err := rd.Int()
		if err != nil {
			return err
		}
		*p = v
	}
	return nil
}

// decodeMultiplyArgs parses one column body, resolving digest references
// against cache; a reference the cache cannot resolve fails the call with
// errUnknownDigest, and the driver resends inline. A slab count the box
// cannot hold is refused before anything is read past it.
func decodeMultiplyArgs(rd *codec.FrameReader, a *multiplyArgs, cache *blockCache) error {
	if err := readInts(rd, &a.ILo, &a.IHi, &a.JLo, &a.JHi, &a.KLo, &a.KHi); err != nil {
		return err
	}
	epoch, err := rd.Uvarint()
	if err != nil {
		return err
	}
	a.cacheEpoch = epoch
	if a.traceSpan, err = rd.Uvarint(); err != nil {
		return err
	}
	if err := readInts(rd, &a.cuboidP, &a.cuboidQ, &a.slabs); err != nil {
		return err
	}
	if err := checkSlabs(a.KHi-a.KLo, a.slabs); err != nil {
		return err
	}
	mode, err := rd.U8()
	if err != nil {
		return err
	}
	switch mode {
	case 1:
		// Pull body: self address plus the two placement manifests.
		a.pull = true
		if a.pullSelf, err = rd.Str(); err != nil {
			return err
		}
		if a.aManifest, err = rd.ReadManifest(); err != nil {
			return err
		}
		a.bManifest, err = rd.ReadManifest()
		return err
	case 0:
		// push body: inline/ref operand blocks follow
	default:
		return fmt.Errorf("%w: unknown multiply transfer mode %d", errWire, mode)
	}
	if a.ABlocks, err = decodeBlockRecs(rd, cache, epoch); err != nil {
		return err
	}
	a.BBlocks, err = decodeBlockRecs(rd, cache, epoch)
	return err
}

func decodeBlockRecs(rd *codec.FrameReader, cache *blockCache, epoch uint64) ([]blockRec, error) {
	// Each record needs at least key + flag bytes; a count beyond the
	// remaining frame is a forgery.
	return codec.ReadSlice(rd, "block records", 3, func(rec *blockRec) error {
		if err := readInts(rd, &rec.Key.I, &rec.Key.J); err != nil {
			return fmt.Errorf("%w: block record header", errWire)
		}
		flag, err := rd.U8()
		if err != nil {
			return fmt.Errorf("%w: block record header", errWire)
		}
		var dg codec.Digest
		if flag == blockRef || flag == blockInlineCache {
			if err := rd.ReadFull(dg[:]); err != nil {
				return err
			}
		}
		switch flag {
		case blockRef:
			blk, ok := cache.lookup(epoch, dg)
			if !ok {
				return errUnknownDigest
			}
			rec.Block = blk
		case blockInline, blockInlineCache:
			blk, weight, err := rd.ReadBlock()
			if err != nil {
				return err
			}
			if flag == blockInlineCache {
				cache.insert(epoch, dg, blk, weight)
			}
			rec.Block = blk
		default:
			return fmt.Errorf("%w: unknown block flag %d", errWire, flag)
		}
		return nil
	})
}

func appendMultiplyReply(w *codec.FrameWriter, r *multiplyReply) error {
	// Pull-resolution counters travel ahead of the C blocks (all zero on
	// push replies, so push traffic costs three bytes).
	w.Uvarint(uint64(r.pullHits))
	w.Uvarint(uint64(r.pullFetches))
	w.Uvarint(uint64(r.pullPeerBytes))
	return appendPlainBlocks(w, r.CBlocks)
}

func decodeMultiplyReply(rd *codec.FrameReader, r *multiplyReply) error {
	for _, p := range [3]*int64{&r.pullHits, &r.pullFetches, &r.pullPeerBytes} {
		v, err := rd.Uvarint()
		if err != nil {
			return fmt.Errorf("%w: pull counters", errWire)
		}
		*p = int64(v)
	}
	var err error
	r.CBlocks, err = decodePlainBlocks(rd)
	return err
}

func appendPingReply(w *codec.FrameWriter, r *pingReply) error {
	w.Str(r.Hostname)
	for _, v := range [4]int64{r.InFlight, r.StoreBytes, r.StoreHandles, r.StoreEvictions} {
		w.Uvarint(uint64(v))
	}
	return nil
}

func decodePingReply(rd *codec.FrameReader, v *pingReply) error {
	var err error
	if v.Hostname, err = rd.Str(); err != nil {
		return err
	}
	for _, p := range [4]*int64{&v.InFlight, &v.StoreBytes, &v.StoreHandles, &v.StoreEvictions} {
		u, err := rd.Uvarint()
		if err != nil {
			return err
		}
		*p = int64(u)
	}
	return nil
}
