package distnet

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

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

// minCacheableBytes keeps tiny blocks out of the cache machinery — a
// 32-byte key plus tracking buys nothing under this size.
const minCacheableBytes = 256

// epochSet is a set of keys, each kept with the newest epoch that touched
// it, aged by epochWindow as the worker's cached blocks are. A touch
// refreshes a key to the toucher's epoch, never to the newest seen — as a
// worker's cache hit does — or the driver would outlive the worker's entry
// when jobs run concurrently. The zero value is empty.
type epochSet[K comparable] struct {
	win  epochWindow
	last map[K]uint64
}

// touch reports whether k is in the set, and marks it at epoch.
func (s *epochSet[K]) touch(epoch uint64, k K) bool {
	if s.last == nil {
		s.last = map[K]uint64{}
	}
	if s.win.advance(epoch) {
		for key, e := range s.last {
			if !s.win.live(e) {
				delete(s.last, key)
			}
		}
	}
	last, ok := s.last[k]
	if ok && !s.win.live(last) {
		last, ok = 0, false
	}
	s.last[k] = max(last, epoch)
	return ok
}

// has reports whether touch(epoch, k) would find k, marking nothing: k is
// in the set and not one touch would age out first.
func (s *epochSet[K]) has(epoch uint64, k K) bool {
	last, ok := s.last[k]
	return ok && s.win.live(last) && last >= epochFloor(epoch)
}

// sendTracker remembers which block keys a member has already received
// recently, so the driver can replace repeats with references. Marking
// happens at encode time ("commit at send"): requests on one connection are
// framed, written and read in order, so a later request's reference can only
// be decoded after the earlier inline copy was. Entries age out by the
// window the worker's cached blocks age by (epochSet), so the driver stops
// assuming residency when the worker drops the block.
// Concurrent jobs carry distinct epochs; tracking per key (not per epoch)
// lets them share dedup state. The tracker is deliberately NOT
// cleared on reconnect — a restarted worker answers the first stale
// reference with the unknown-digest error, the column runner calls
// forget(), and the retry ships the blocks inline. A too-optimistic guess
// always degrades to that same clean resend path.
type sendTracker struct {
	mu   sync.Mutex
	sent epochSet[codec.Digest]
}

// seen reports whether dg was already sent within the lifecycle window,
// marking it sent at this epoch either way.
func (t *sendTracker) seen(epoch uint64, dg codec.Digest) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent.touch(epoch, dg)
}

// has reports whether seen(epoch, dg) would report dg sent, marking nothing.
func (t *sendTracker) has(epoch uint64, dg codec.Digest) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent.has(epoch, dg)
}

// forget drops everything the driver believed this worker had (after an
// unknown-digest refusal or any other evidence the cache is gone).
func (t *sendTracker) forget() {
	t.mu.Lock()
	t.sent.last = nil
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
	if l := a.link; l != nil {
		w.Byte(1)
		for _, v := range [3]uint64{uint64(l.lo), uint64(l.hi), uint64(l.wait / time.Millisecond)} {
			w.Uvarint(v)
		}
		appendChainID(w, l.id)
		w.Str(l.self)
		w.Str(l.prev)
	} else {
		w.Byte(0)
	}
	if a.pull {
		// Pull mode names each operand's handle and bands instead of
		// shipping its blocks: the assigned worker reads its box from them.
		w.Byte(1)
		w.Str(a.pullSelf)
		for _, ref := range [2]*bandRef{&a.aRef, &a.bRef} {
			w.Uvarint(ref.handle)
			appendPartLocs(w, ref.parts)
		}
		return nil
	}
	w.Byte(0)
	if n := w.Size() + s.recsBytes(a); n > codec.MaxFrameBytes {
		return fmt.Errorf("%w: a %d-byte multiply, the bound is %d", codec.ErrFrameTooLarge, n, int64(codec.MaxFrameBytes))
	}
	if err := s.appendBlockRecs(w, a.ABlocks, a.cacheEpoch); err != nil {
		return err
	}
	return s.appendBlockRecs(w, a.BBlocks, a.cacheEpoch)
}

// recsBytes bounds what appendBlockRecs will frame a's two operands as, so
// that appendMultiplyArgs refuses a call over the frame bound before its
// first chunk leaves rather than after gigabytes of it have. The size with
// every record inline settles nearly every call; past the frame bound it is
// made exact by asking the tracker which records will go as references —
// sent within the window, or earlier in this body — marking none.
func (s blockSender) recsBytes(a *multiplyArgs) int64 {
	size := func(isRef func(*codec.Prepared) bool) int64 {
		var n int64
		for _, recs := range [2][]blockRec{a.ABlocks, a.BBlocks} {
			n += uvarintLen(uint64(len(recs)))
			for i := range recs {
				rec := &recs[i]
				n += uvarintLen(uint64(rec.Key.I)) + uvarintLen(uint64(rec.Key.J)) + 1
				switch p := rec.prep; {
				case p == nil: // appendBlockRecs refuses it
				case !p.HasDigest || s.tracker == nil:
					n += 5 + p.Size()
				case isRef(p):
					n += int64(len(p.Digest))
				default:
					n += int64(len(p.Digest)) + 5 + p.Size()
				}
			}
		}
		return n
	}
	n := size(func(*codec.Prepared) bool { return false })
	if n <= codec.MaxFrameBytes {
		return n
	}
	inBody := map[codec.Digest]bool{}
	return size(func(p *codec.Prepared) bool {
		ref := inBody[p.Digest] || s.tracker.has(a.cacheEpoch, p.Digest)
		inBody[p.Digest] = true
		return ref
	})
}

// uvarintLen is the length of v as a uvarint.
func uvarintLen(v uint64) int64 { return int64(bits.Len64(v|1)+6) / 7 }

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
// against mem's cached blocks; a reference they cannot resolve fails the
// call with errUnknownDigest, and the driver resends inline. A slab count the box
// cannot hold is refused before anything is read past it.
func decodeMultiplyArgs(rd *codec.FrameReader, a *multiplyArgs, mem *handleStore) error {
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
	if a.link, err = decodeChainLink(rd, a.slabs); err != nil {
		return err
	}
	mode, err := rd.U8()
	if err != nil {
		return err
	}
	switch mode {
	case 1:
		// Pull body: self address plus each operand's handle and bands.
		a.pull = true
		if a.pullSelf, err = rd.Str(); err != nil {
			return err
		}
		for _, ref := range [2]*bandRef{&a.aRef, &a.bRef} {
			if ref.handle, err = rd.Uvarint(); err != nil {
				return err
			}
			if ref.parts, err = decodePartLocs(rd); err != nil {
				return err
			}
		}
		return nil
	case 0:
		// push body: inline/ref operand blocks follow
	default:
		return fmt.Errorf("%w: unknown multiply transfer mode %d", errWire, mode)
	}
	if a.ABlocks, err = decodeBlockRecs(rd, mem, epoch); err != nil {
		return err
	}
	a.BBlocks, err = decodeBlockRecs(rd, mem, epoch)
	return err
}

// maxChainWait caps the wait a chain link asks for: a holder never waits for
// its incoming sum, nor keeps a sum for its successor, longer than this.
const maxChainWait = 5 * time.Minute

// decodeChainLink reads a multiply's chain fields, nil for a call that is no
// chain link. A link is refused as errWire when its slab group is not
// inside the column's R slabs, and when it names a predecessor and is the
// first link or names none and is not. A link may name its own worker: it
// then takes the sum the link before left there.
func decodeChainLink(rd *codec.FrameReader, slabs int) (*chainLink, error) {
	flag, err := rd.U8()
	if err != nil || flag == 0 {
		return nil, err
	}
	if flag != 1 {
		return nil, fmt.Errorf("%w: unknown chain flag %d", errWire, flag)
	}
	l := new(chainLink)
	var wait uint64
	if err := readInts(rd, &l.lo, &l.hi); err != nil {
		return nil, err
	}
	if wait, err = rd.Uvarint(); err != nil {
		return nil, err
	}
	if l.id, err = readChainID(rd); err != nil {
		return nil, err
	}
	if l.self, err = rd.Str(); err != nil {
		return nil, err
	}
	if l.prev, err = rd.Str(); err != nil {
		return nil, err
	}
	switch {
	case l.lo >= l.hi || l.hi > slabs:
		return nil, fmt.Errorf("%w: chain link of slabs [%d,%d) in a column of %d", errWire, l.lo, l.hi, slabs)
	case (l.lo == 0) != (l.prev == ""):
		return nil, fmt.Errorf("%w: chain link from slab %d names predecessor %q", errWire, l.lo, l.prev)
	}
	l.wait = time.Duration(min(wait, uint64(maxChainWait/time.Millisecond))) * time.Millisecond
	return l, nil
}

func decodeBlockRecs(rd *codec.FrameReader, mem *handleStore, epoch uint64) ([]blockRec, error) {
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
			blk, ok := mem.cacheLookup(epoch, dg)
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
				mem.cacheInsert(epoch, dg, blk, weight)
			}
			rec.Block = blk
		default:
			return fmt.Errorf("%w: unknown block flag %d", errWire, flag)
		}
		return nil
	})
}

func appendMultiplyReply(w *codec.FrameWriter, r *multiplyReply) error {
	// Pull counters travel ahead of the C blocks (both zero on push replies,
	// so push traffic costs two bytes).
	w.Uvarint(uint64(r.pullFetches))
	w.Uvarint(uint64(r.pullPeerBytes))
	return appendPlainBlocks(w, r.CBlocks)
}

func decodeMultiplyReply(rd *codec.FrameReader, r *multiplyReply) error {
	for _, p := range [2]*int64{&r.pullFetches, &r.pullPeerBytes} {
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
