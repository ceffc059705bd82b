package distnet

import (
	"errors"
	"fmt"
	"io"
	"net/rpc"
	"sync"
	"time"

	"distme/internal/codec"
	"distme/internal/metrics"
	"distme/internal/obs"
)

// The custom net/rpc codec pair that replaces gob on the driver↔worker
// sockets, built on internal/codec's frame layer (the same one distme-serve
// speaks to its clients). One message is one length-prefixed frame. It is
// written scatter-gather: header and structural bytes accumulate in a pooled
// arena while large block-value payloads stay in the blocks' own storage and
// go out as extra writev segments. It is read streaming: structural fields
// are parsed from the socket under the frame's remaining-bytes counter and
// raw float64 tails land directly in the decoded block's slice — no
// whole-frame buffer, no second copy. Whatever a body decoder leaves unread
// is drained before the next frame, so a body that fails to decode never
// desynchronizes the stream — net/rpc turns it into an error response and
// keeps serving, which is exactly what the block cache's unknown-digest
// recovery relies on.

// errUnknownDigestMsg is the application-level error a worker answers with
// when a digest reference misses its cache (restart, eviction, or epoch
// change). The driver treats it as transient: it forgets what it believed
// this worker had and resends the blocks inline on the retry.
const errUnknownDigestMsg = "distnet: unknown block digest"

// errWire is what malformed frames surface as.
var errWire = codec.ErrBadFrame

// Block transport flags inside MultiplyArgs.
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
// written and read in order, so a later request's reference can only be
// decoded after the earlier inline copy was. Entries age out when their
// last-sent epoch falls more than the worker cache's lifecycle window
// behind the newest epoch seen — mirroring blockCache's expiry, so the
// driver stops assuming residency around the time the worker drops it.
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
// Client codec (driver side)

type clientCodec struct {
	conn    io.ReadWriteCloser
	fr      *codec.FrameReader
	rec     *metrics.Recorder
	tracker *sendTracker
	tracer  *obs.Tracer

	// pending maps in-flight request seq numbers to their trace parent so
	// the response decode can emit a wire.recv span under the same RPC
	// attempt. Touched only when tracing is on.
	pmu        sync.Mutex
	pending    map[uint64]obs.SpanID
	respParent obs.SpanID // parent of the response being decoded (read loop only)
}

// newClientCodec builds the driver-side codec. rec (optional) receives
// encode/decode timing and cache accounting; tracker (optional) enables
// digest references for blocks that carry digests; tracer (optional) emits
// wire.send/wire.recv spans under each traced Multiply attempt.
func newClientCodec(conn io.ReadWriteCloser, rec *metrics.Recorder, tracker *sendTracker, tracer *obs.Tracer) rpc.ClientCodec {
	return &clientCodec{conn: conn, fr: codec.NewFrameReader(conn), rec: rec, tracker: tracker, tracer: tracer}
}

func (c *clientCodec) WriteRequest(r *rpc.Request, body any) error {
	start := time.Now()
	w := codec.BeginFrame()
	defer w.Release()
	w.Uvarint(r.Seq)
	w.Str(r.ServiceMethod)
	var err error
	parent := obs.SpanID(0)
	tp, tq, tr := -1, -1, -1
	switch v := body.(type) {
	case *MultiplyArgs:
		err = c.appendMultiplyArgs(&w, v)
		parent = obs.SpanID(v.traceSpan)
		tp, tq, tr = v.cuboidP, v.cuboidQ, v.cuboidR
	case *MultiplyBatchArgs:
		err = c.appendMultiplyBatchArgs(&w, v)
		parent = obs.SpanID(v.traceSpan)
	case *PutArgs:
		err = appendPutArgs(&w, v)
		parent = obs.SpanID(v.traceSpan)
	case *GetArgs:
		appendGetArgs(&w, v)
		parent = obs.SpanID(v.traceSpan)
	case *FreeArgs:
		appendFreeArgs(&w, v)
	case *PinArgs:
		appendPinArgs(&w, v)
	case *ExecArgs:
		appendExecArgs(&w, v)
		parent = obs.SpanID(v.traceSpan)
	case *PingArgs:
		// no body
	default:
		err = fmt.Errorf("distnet: unsupported request body %T", body)
	}
	n := w.Size()
	if err == nil {
		if c.rec != nil {
			c.rec.AddWireEncode(n, time.Since(start))
		}
		err = w.Flush(c.conn)
	}
	if err != nil {
		// Digests are marked sent while the frame is assembled; a frame that
		// never (or only partly) left must not leave them marked.
		if c.tracker != nil {
			c.tracker.forget()
		}
		return err
	}
	if c.tracer.Enabled() && parent != 0 {
		c.pmu.Lock()
		if c.pending == nil {
			c.pending = map[uint64]obs.SpanID{}
		}
		c.pending[r.Seq] = parent
		c.pmu.Unlock()
		c.tracer.AddCompleted(obs.SpanData{
			Parent: parent, Name: "wire.send", Kind: obs.KindRPC,
			P: tp, Q: tq, R: tr,
			Start: start, End: time.Now(), Bytes: n,
		})
	}
	return nil
}

func (c *clientCodec) appendMultiplyArgs(w *codec.FrameWriter, a *MultiplyArgs) error {
	for _, v := range [6]int{a.ILo, a.IHi, a.JLo, a.JHi, a.KLo, a.KHi} {
		w.Uvarint(uint64(v))
	}
	w.Uvarint(a.cacheEpoch)
	w.Uvarint(a.traceSpan)
	for _, v := range [3]int{a.cuboidP, a.cuboidQ, a.cuboidR} {
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
	if err := c.appendBlockRecs(w, a.ABlocks, a.cacheEpoch, a.encoding); err != nil {
		return err
	}
	return c.appendBlockRecs(w, a.BBlocks, a.cacheEpoch, a.encoding)
}

func (c *clientCodec) appendMultiplyBatchArgs(w *codec.FrameWriter, a *MultiplyBatchArgs) error {
	w.Uvarint(uint64(len(a.Items)))
	for i := range a.Items {
		if err := c.appendMultiplyArgs(w, &a.Items[i]); err != nil {
			return err
		}
	}
	return nil
}

// appendBlockRecs emits one operand's block records from their prepared
// form (jobPrep) — as a 32-byte reference when the record's digest was
// already sent to this worker — with no planning or encoding here.
func (c *clientCodec) appendBlockRecs(w *codec.FrameWriter, recs []BlockRec, epoch uint64, enc codec.Encoding) error {
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		rec := &recs[i]
		w.Uvarint(uint64(rec.Key.I))
		w.Uvarint(uint64(rec.Key.J))
		p := rec.prep
		if p == nil {
			return fmt.Errorf("distnet: block %v reached the wire unprepared", rec.Key)
		}
		if p.HasDigest && c.tracker != nil {
			if c.tracker.seen(epoch, p.Digest) {
				w.Byte(blockRef)
				w.Bytes(p.Digest[:])
				if c.rec != nil {
					c.rec.AddCacheRefSent(max(p.Size()-int64(len(p.Digest)), 0))
				}
				continue
			}
			w.Byte(blockInlineCache)
			w.Bytes(p.Digest[:])
		} else {
			w.Byte(blockInline)
		}
		w.AppendPrepared(p)
		if enc != codec.EncodingFP64 && c.rec != nil {
			// Bytes the job's encoding took off the raw form.
			c.rec.AddEncodedBlock(max(p.RawSize-p.Size(), 0))
		}
	}
	return nil
}

func (c *clientCodec) ReadResponseHeader(r *rpc.Response) error {
	seq, method, err := c.fr.NextHeader()
	if err != nil {
		return err
	}
	errStr, err := c.fr.Str()
	if err != nil {
		return err
	}
	r.Seq, r.ServiceMethod, r.Error = seq, method, errStr
	c.respParent = 0
	if c.tracer.Enabled() {
		c.pmu.Lock()
		if parent, ok := c.pending[seq]; ok {
			c.respParent = parent
			delete(c.pending, seq)
		}
		c.pmu.Unlock()
	}
	return nil
}

// ReadResponseBody decodes the typed body as it streams in. Whatever it
// leaves unread — all of it when net/rpc passes nil for an abandoned call —
// is drained, so the next response header starts on a frame boundary.
func (c *clientCodec) ReadResponseBody(body any) error {
	defer c.fr.Drain()
	if body == nil {
		return nil
	}
	start := time.Now()
	n := c.fr.Remaining()
	rd := c.fr
	var err error
	switch v := body.(type) {
	case *MultiplyReply:
		err = decodeMultiplyReply(rd, v)
	case *MultiplyBatchReply:
		err = decodeMultiplyBatchReply(rd, v)
	case *PutReply:
		var b uint64
		if b, err = rd.Uvarint(); err == nil {
			v.Bytes = int64(b)
		}
	case *GetReply:
		err = decodeGetReply(rd, v)
	case *FreeReply:
		v.Freed, err = rd.Int()
	case *PinReply:
		// no body
	case *ExecReply:
		err = decodeExecReply(rd, v)
	case *PingReply:
		err = decodePingReply(rd, v)
	default:
		err = fmt.Errorf("distnet: unsupported response body %T", body)
	}
	if err == nil && c.rec != nil {
		c.rec.AddWireDecode(n, time.Since(start))
	}
	if err == nil && c.respParent != 0 {
		c.tracer.AddCompleted(obs.SpanData{
			Parent: c.respParent, Name: "wire.recv", Kind: obs.KindRPC,
			P: -1, Q: -1, R: -1,
			Start: start, End: time.Now(), Bytes: n,
		})
	}
	return err
}

func (c *clientCodec) Close() error { return c.conn.Close() }

// ---------------------------------------------------------------------------
// Server codec (worker side)

type serverCodec struct {
	conn   io.ReadWriteCloser
	fr     *codec.FrameReader
	cache  *blockCache
	tracer *obs.Tracer

	wmu sync.Mutex // WriteResponse may race Close on shutdown paths
}

// NewServerCodec returns the wire-format server codec for one connection,
// with its own block cache — enough for protocol-compatible stand-in
// workers built on rpc.NewServer (tests, tools). Production workers share
// one cache across connections via Serve.
func NewServerCodec(conn io.ReadWriteCloser) rpc.ServerCodec {
	return newServerCodec(conn, newBlockCache(0, 0), nil)
}

func newServerCodec(conn io.ReadWriteCloser, cache *blockCache, tracer *obs.Tracer) rpc.ServerCodec {
	return &serverCodec{conn: conn, fr: codec.NewFrameReader(conn), cache: cache, tracer: tracer}
}

func (s *serverCodec) ReadRequestHeader(r *rpc.Request) (err error) {
	r.Seq, r.ServiceMethod, err = s.fr.NextHeader()
	return err
}

// ReadRequestBody decodes the typed body as it streams in. Returning an
// error here is safe: the rest of the frame is drained (also when net/rpc
// passes nil to skip a body it cannot route), so net/rpc sends the error
// string back as this call's response and keeps reading — the
// unknown-digest refusal takes exactly that path. Batch bodies decode
// leniently instead: an unknown digest marks only its item failed, so one
// cold cache entry cannot poison the neighbors.
func (s *serverCodec) ReadRequestBody(body any) error {
	defer s.fr.Drain()
	if body == nil {
		return nil
	}
	rd := s.fr
	switch v := body.(type) {
	case *MultiplyArgs:
		start := time.Now()
		n := rd.Remaining()
		err := decodeMultiplyArgs(rd, v, s.cache, false)
		if err == nil && s.tracer.Enabled() && v.traceSpan != 0 {
			s.tracer.AddCompleted(obs.SpanData{
				Parent: obs.SpanID(v.traceSpan), Name: "wire.decode", Kind: obs.KindWorker,
				P: v.cuboidP, Q: v.cuboidQ, R: v.cuboidR,
				Start: start, End: time.Now(), Bytes: n,
			})
		}
		return err
	case *MultiplyBatchArgs:
		return decodeMultiplyBatchArgs(rd, v, s.cache)
	case *PutArgs:
		return decodePutArgs(rd, v)
	case *GetArgs:
		return decodeGetArgs(rd, v)
	case *FreeArgs:
		return decodeFreeArgs(rd, v)
	case *PinArgs:
		return decodePinArgs(rd, v)
	case *ExecArgs:
		return decodeExecArgs(rd, v)
	case *PingArgs:
		return nil
	default:
		return fmt.Errorf("distnet: unsupported request body %T", body)
	}
}

// WriteResponse frames one reply; one that cannot be framed (a reply past
// the frame bound, an unencodable block) is answered as that error instead.
func (s *serverCodec) WriteResponse(r *rpc.Response, body any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return codec.WriteResponseFrame(s.conn, r.Seq, r.ServiceMethod, r.Error, func(w *codec.FrameWriter) error {
		return appendResponseBody(w, body)
	})
}

func appendResponseBody(w *codec.FrameWriter, body any) error {
	switch v := body.(type) {
	case *MultiplyReply:
		return appendMultiplyReply(w, v)
	case *MultiplyBatchReply:
		return appendMultiplyBatchReply(w, v)
	case *PutReply:
		w.Uvarint(uint64(v.Bytes))
	case *GetReply:
		return appendGetReply(w, v)
	case *FreeReply:
		w.Uvarint(uint64(v.Freed))
	case *PinReply:
		// no body
	case *ExecReply:
		appendExecReply(w, v)
	case *PingReply:
		w.Str(v.Hostname)
		w.Uvarint(uint64(v.InFlight))
		w.Uvarint(uint64(v.StoreBytes))
		w.Uvarint(uint64(v.StoreHandles))
		w.Uvarint(uint64(v.StoreEvictions))
	default:
		return fmt.Errorf("distnet: unsupported response body %T", body)
	}
	return nil
}

func decodePingReply(rd *codec.FrameReader, v *PingReply) error {
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

func (s *serverCodec) Close() error { return s.conn.Close() }

// ---------------------------------------------------------------------------
// Typed body layouts (shared by both directions)

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

// decodeMultiplyArgs parses one cuboid body. In lenient mode an
// unknown-digest reference does not abort the parse: the record keeps a nil
// block, a.decodeErr records the refusal, and the cursor moves on — batch
// framing stays intact around a failed item. Structural corruption is a
// hard error in both modes.
func decodeMultiplyArgs(rd *codec.FrameReader, a *MultiplyArgs, cache *blockCache, lenient bool) error {
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
	if err := readInts(rd, &a.cuboidP, &a.cuboidQ, &a.cuboidR); err != nil {
		return err
	}
	mode, err := rd.U8()
	if err != nil {
		return err
	}
	switch mode {
	case 1:
		// Pull body: self address plus the two placement manifests. A
		// malformed manifest is structural corruption — a hard error in both
		// modes, same as a torn block payload.
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
	var miss string
	if a.ABlocks, miss, err = decodeBlockRecs(rd, cache, epoch, lenient); err != nil {
		return err
	}
	if miss != "" {
		a.decodeErr = miss
	}
	if a.BBlocks, miss, err = decodeBlockRecs(rd, cache, epoch, lenient); err != nil {
		return err
	}
	if miss != "" {
		a.decodeErr = miss
	}
	return nil
}

func decodeMultiplyBatchArgs(rd *codec.FrameReader, a *MultiplyBatchArgs, cache *blockCache) error {
	var err error
	a.Items, err = codec.ReadSlice(rd, "batch items", 14, func(it *MultiplyArgs) error {
		return decodeMultiplyArgs(rd, it, cache, true)
	})
	return err
}

func decodeBlockRecs(rd *codec.FrameReader, cache *blockCache, epoch uint64, lenient bool) ([]BlockRec, string, error) {
	// Each record needs at least key + flag bytes; a count beyond the
	// remaining frame is a forgery.
	miss := ""
	recs, err := codec.ReadSlice(rd, "block records", 3, func(rec *BlockRec) error {
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
				if !lenient {
					return errors.New(errUnknownDigestMsg)
				}
				miss = errUnknownDigestMsg
			} else {
				rec.Block = blk
			}
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
	return recs, miss, err
}

func appendMultiplyReply(w *codec.FrameWriter, r *MultiplyReply) error {
	// Pull-resolution counters travel ahead of the C blocks (all zero on
	// push replies, so push traffic costs three bytes).
	w.Uvarint(uint64(r.pullHits))
	w.Uvarint(uint64(r.pullFetches))
	w.Uvarint(uint64(r.pullPeerBytes))
	// C partials always travel as the bit-exact default encoding, whatever
	// encoding the inputs used.
	return appendPlainBlocks(w, r.CBlocks)
}

func decodeMultiplyReply(rd *codec.FrameReader, r *MultiplyReply) error {
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

func appendMultiplyBatchReply(w *codec.FrameWriter, r *MultiplyBatchReply) error {
	w.Uvarint(uint64(len(r.Items)))
	for i := range r.Items {
		it := &r.Items[i]
		w.Str(it.Err)
		if it.Err != "" {
			continue
		}
		rep := MultiplyReply{CBlocks: it.CBlocks}
		if err := appendMultiplyReply(w, &rep); err != nil {
			return err
		}
	}
	return nil
}

func decodeMultiplyBatchReply(rd *codec.FrameReader, r *MultiplyBatchReply) error {
	var err error
	r.Items, err = codec.ReadSlice(rd, "batch replies", 1, func(it *BatchItem) error {
		var err error
		if it.Err, err = rd.Str(); err != nil || it.Err != "" {
			return err
		}
		var rep MultiplyReply
		if err := decodeMultiplyReply(rd, &rep); err != nil {
			return err
		}
		it.CBlocks = rep.CBlocks
		return nil
	})
	return err
}
