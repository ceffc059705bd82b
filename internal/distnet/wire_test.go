package distnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// fuzzMemBytes is the memory budget of the stores hostile bodies are decoded
// against.
const fuzzMemBytes = 5 << 10

// Every typed body a socket can deliver, by the number the fuzz target and
// the seed table share.
const (
	bodyMultiplyArgs = iota
	bodyPullMultiplyArgs
	bodyColumnArgs
	bodyMultiplyReply
	bodyPutArgs
	bodyGetArgs
	bodyFreeArgs
	bodyPinArgs
	bodyExecArgs
	bodyGetReply
	bodyExecReply
	bodyPingReply
	bodyChainArgs
	bodySumArgs
	bodySumReply
	bodySelfLinkArgs
	bodyViewExecArgs
	bodyFusedExecArgs
	bodyPullLinkArgs
	bodyHostilePullArgs
	bodyHostileGetArgs
	bodyKinds
)

// decodeBody runs the streaming decoder a codec would run for one body.
func decodeBody(kind int, rd *codec.FrameReader) error {
	switch kind {
	case bodyMultiplyArgs, bodyPullMultiplyArgs, bodyColumnArgs, bodyChainArgs, bodySelfLinkArgs, bodyPullLinkArgs, bodyHostilePullArgs:
		return decodeMultiplyArgs(rd, new(multiplyArgs), newHandleStore(fuzzMemBytes))
	case bodySumArgs:
		return decodeSumArgs(rd, new(sumArgs))
	case bodySumReply:
		_, err := decodePlainBlocks(rd)
		return err
	case bodyMultiplyReply:
		return decodeMultiplyReply(rd, new(multiplyReply))
	case bodyPutArgs:
		return decodePutArgs(rd, new(putArgs))
	case bodyGetArgs, bodyHostileGetArgs:
		return decodeGetArgs(rd, new(getArgs))
	case bodyFreeArgs:
		return decodeFreeArgs(rd, new(freeArgs))
	case bodyPinArgs:
		return decodePinArgs(rd, new(pinArgs))
	case bodyExecArgs, bodyViewExecArgs, bodyFusedExecArgs:
		return decodeExecArgs(rd, new(execArgs))
	case bodyGetReply:
		return decodeGetReply(rd, new(getReply))
	case bodyExecReply:
		return decodeExecReply(rd, new(execReply))
	default:
		return decodePingReply(rd, new(pingReply))
	}
}

// prepareRecs stands in for jobPrep on hand-built cuboids: every record gets
// its fp64 prepared form, digestless, so it frames inline.
func prepareRecs(t testing.TB, lists ...[]blockRec) {
	t.Helper()
	for _, recs := range lists {
		for i := range recs {
			p, err := codec.Prepare(recs[i].Block)
			if err != nil {
				t.Fatal(err)
			}
			recs[i].prep = p
		}
	}
}

// wireSeedRecs are the seed bodies' blocks: one dense, with 4.5 KiB of
// values (a zero-copy cut), one sparse in the delta form, and two
// hypersparse ones in the coordinate form, one and two bytes wide.
func wireSeedRecs() []blockRec {
	rng := rand.New(rand.NewSource(1402))
	dense := matrix.RandomDense(rng, 24, 24)
	sparse := matrix.RandomSparse(rng, 40, 40, 0.05)
	return []blockRec{{Key: bmat.BlockKey{I: 0, J: 1}, Block: dense}, {Key: bmat.BlockKey{I: 2, J: 3}, Block: sparse},
		{Key: bmat.BlockKey{I: 4, J: 5}, Block: matrix.RandomSparse(rng, 64, 64, 0.005)},
		{Key: bmat.BlockKey{I: 6, J: 7}, Block: matrix.RandomSparse(rng, 300, 300, 0.0005)}}
}

// wireSeedBodies encodes one valid body of every kind.
func wireSeedBodies(t testing.TB) map[int][]byte {
	recs := wireSeedRecs()
	prepareRecs(t, recs)
	push := multiplyArgs{IHi: 1, JHi: 1, KHi: 2, slabs: 1, ABlocks: recs, BBlocks: recs[:1], cacheEpoch: 3}
	bands := []partLoc{{Addr: "10.0.0.1:7070", Lo: 0, Hi: 2}, {Addr: "10.0.0.2:7070", Lo: 2, Hi: 4}}
	pull := multiplyArgs{IHi: 1, JHi: 1, KHi: 1, slabs: 1, pull: true, pullSelf: "10.0.0.1:7070",
		aRef: bandRef{handle: 9, parts: bands}, bRef: bandRef{handle: 10, parts: bands[1:]}}
	// A pull column of three slabs cut at the call bound: its second link.
	pullLink := pull
	pullLink.KHi, pullLink.slabs = 3, 3
	pullLink.link = &chainLink{id: 1 << 60, lo: 1, hi: 2, self: "10.0.0.1:7070", prev: "10.0.0.1:7070", wait: 15 * time.Second}
	// Part lists no driver sends: none at all for A, and for B one inverted,
	// one past any grid and one empty — the worker reads nothing from them.
	hostile := pull
	hostile.aRef = bandRef{handle: 1 << 40}
	hostile.bRef = bandRef{handle: 3, parts: []partLoc{{Addr: "10.0.0.2:7070", Lo: 5, Hi: 2}, {Addr: "", Lo: 1 << 50, Hi: 1 << 62}, {Addr: "x", Lo: 4, Hi: 4}}}
	// A (p,q) column of three cuboids: its whole k range and R = 3.
	column := multiplyArgs{IHi: 2, JHi: 1, KHi: 3, slabs: 3, cuboidP: 1, ABlocks: recs, BBlocks: recs, cacheEpoch: 3}
	// The second link of that column's chain: slabs [1,3), after the holder
	// at 10.0.0.1.
	link := column
	link.link = &chainLink{id: 1 << 60, lo: 1, hi: 3, self: "10.0.0.2:7070", prev: "10.0.0.1:7070", wait: 15 * time.Second}
	// The same link cut at the call bound on one holder: its predecessor
	// is its own worker.
	self := column
	self.link = &chainLink{id: 1 << 60, lo: 1, hi: 2, self: "10.0.0.2:7070", prev: "10.0.0.2:7070", wait: 15 * time.Second}
	parts := []partLoc{{Addr: "10.0.0.2:7070", Lo: 0, Hi: 4}}

	var send blockSender
	bodies := map[int][]byte{}
	add := func(kind int, fill func(w *codec.FrameWriter) error) { bodies[kind] = bodyOf(t, fill) }
	add(bodyMultiplyArgs, func(w *codec.FrameWriter) error { return send.appendMultiplyArgs(w, &push) })
	add(bodyPullMultiplyArgs, func(w *codec.FrameWriter) error { return send.appendMultiplyArgs(w, &pull) })
	add(bodyPullLinkArgs, func(w *codec.FrameWriter) error { return send.appendMultiplyArgs(w, &pullLink) })
	add(bodyHostilePullArgs, func(w *codec.FrameWriter) error { return send.appendMultiplyArgs(w, &hostile) })
	add(bodyColumnArgs, func(w *codec.FrameWriter) error { return send.appendMultiplyArgs(w, &column) })
	add(bodyChainArgs, func(w *codec.FrameWriter) error { return send.appendMultiplyArgs(w, &link) })
	add(bodySelfLinkArgs, func(w *codec.FrameWriter) error { return send.appendMultiplyArgs(w, &self) })
	add(bodySumArgs, codec.Writes(appendSumArgs, &sumArgs{id: 1 << 60, upTo: 1, wait: 15 * time.Second}))
	add(bodySumReply, codec.Writes(appendSumReply, &sumReply{blocks: recs}))
	add(bodyMultiplyReply, func(w *codec.FrameWriter) error {
		return appendMultiplyReply(w, &multiplyReply{CBlocks: recs, pullFetches: 2, pullPeerBytes: 1 << 20})
	})
	add(bodyPutArgs, func(w *codec.FrameWriter) error {
		return appendPutArgs(w, &putArgs{Handle: 5, Epoch: 2, Pin: true, Blocks: recs})
	})
	add(bodyGetArgs, codec.Writes(appendGetArgs, &getArgs{Handle: 5, blockRect: blockRect{IHi: 3, JHi: 4}}))
	// A rectangle no reader asks for: inverted in its rows, its columns past
	// any grid.
	add(bodyHostileGetArgs, codec.Writes(appendGetArgs, &getArgs{Handle: 5, blockRect: hostileRect}))
	add(bodyFreeArgs, codec.Writes(appendFreeArgs, &freeArgs{Handles: []uint64{1, 2, 3}, Epoch: 2, AllEpoch: true}))
	add(bodyPinArgs, codec.Writes(appendPinArgs, &pinArgs{Handle: 5, Unpin: true}))
	add(bodyExecArgs, codec.Writes(appendExecArgs,
		&execArgs{Op: 2, Out: 7, A: 5, B: 6, Scalar: 1.5, OutHi: 4, AParts: parts, BParts: parts, Self: parts[0].Addr}))
	// A multiply reading both operands through transposes, and the fused
	// pass over its third handle.
	add(bodyViewExecArgs, codec.Writes(appendExecArgs,
		&execArgs{Op: execMul, Out: 7, A: 5, B: 6, OutHi: 4, AParts: parts, BParts: parts, Self: parts[0].Addr, TransA: true, TransB: true}))
	add(bodyFusedExecArgs, codec.Writes(appendExecArgs,
		&execArgs{Op: execHadamardDivElem, Out: 7, A: 5, B: 6, C: 8, Scalar: 1e-9, OutHi: 4, AParts: parts, BParts: parts, Self: parts[0].Addr}))
	add(bodyGetReply, codec.Writes(appendGetReply, &getReply{Blocks: recs, Cover: seedCover}))
	add(bodyExecReply, codec.Writes(appendExecReply, &execReply{Bytes: 100, Blocks: 2, PeerBytes: 50}))
	add(bodyPingReply, codec.Writes(appendPingReply,
		&pingReply{Hostname: "w0", InFlight: 1, StoreBytes: 2, StoreHandles: 3, StoreEvictions: 4}))
	return bodies
}

// hostileRect is the hostile GetBlocks seed's rectangle, and seedCover the
// rectangle the seed reply answers for: the seed blocks' rows, every column.
var (
	hostileRect = blockRect{ILo: 9, IHi: 2, JLo: 1 << 50, JHi: 1 << 62}
	seedCover   = blockRect{IHi: 7, JHi: math.MaxInt}
)

// bodyOf is what fill frames, without the length prefix.
func bodyOf(t testing.TB, fill func(w *codec.FrameWriter) error) []byte {
	w := codec.BeginFrame()
	defer w.Release()
	if err := fill(&w); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[4:]
}

// retiredTagRecs are the seed blocks with their records relabelled to tags
// 6 and 11, which carried fp32 and XOR+varint values in version 3 of the
// socket: hostile input now, refused like any unknown tag.
func retiredTagRecs(t testing.TB) []blockRec {
	recs := wireSeedRecs()
	prepareRecs(t, recs)
	recs[0].prep.Tag, recs[1].prep.Tag = 6, 11
	return recs
}

// pushVariantBodies are the push bodies the seed table's one leaves out:
// blocks under retired tags, blocks shipped with their digest for the worker
// cache, the same blocks again as digest references, and one body that does
// both — its A blocks, inserted, overrun fuzzMemBytes, so the dense one is
// evicted, and its B blocks reference the three that stayed.
func pushVariantBodies(t testing.TB) [][]byte {
	digested := wireSeedRecs()
	prepareRecs(t, digested)
	for i := range digested {
		digested[i].prep.Hash()
	}
	cached := blockSender{tracker: &sendTracker{}}
	var bodies [][]byte
	for _, v := range []struct {
		send blockSender
		a, b []blockRec
	}{{blockSender{}, retiredTagRecs(t), nil}, {cached, digested, nil}, {cached, digested, nil},
		{blockSender{tracker: &sendTracker{}}, digested, digested[1:]}} {
		args := multiplyArgs{IHi: 1, JHi: 1, KHi: 2, slabs: 2, ABlocks: v.a, BBlocks: v.b, cacheEpoch: 3}
		bodies = append(bodies, bodyOf(t, codec.Writes(v.send.appendMultiplyArgs, &args)))
	}
	return bodies
}

// TestHostileBodiesReachTheCacheTier: the last push variant, decoded as
// FuzzWireBodies decodes it, inserts into the cache tier, evicts from it
// under fuzzMemBytes, and resolves references from it.
func TestHostileBodiesReachTheCacheTier(t *testing.T) {
	body := pushVariantBodies(t)[3]
	mem := newHandleStore(fuzzMemBytes)
	rd := codec.NewFrameReader(bytes.NewReader(frameOf(body)))
	if err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if err := decodeMultiplyArgs(rd, new(multiplyArgs), mem); err != nil {
		t.Fatal(err)
	}
	if st := mem.cacheStats(); st.Insertions != 4 || st.Evictions != 1 || st.Hits != 3 || st.Bytes > fuzzMemBytes {
		t.Fatalf("cache tier under %d bytes: %+v, want 4 insertions, 1 eviction, 3 hits", fuzzMemBytes, st)
	}
}

// TestHostileRectangleGetsEmptyReply: the hostile GetBlocks seed, decoded as
// a worker decodes it and served against a band of the seed blocks, gets an
// empty reply — its rectangle, 2⁶² columns wide, sizes no allocation (the
// bound leaves room for whatever the test binary's other goroutines
// allocate meanwhile).
func TestHostileRectangleGetsEmptyReply(t *testing.T) {
	rd := codec.NewFrameReader(bytes.NewReader(frameOf(wireSeedBodies(t)[bodyHostileGetArgs])))
	if err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	var args getArgs
	if err := decodeGetArgs(rd, &args); err != nil || args.blockRect != hostileRect {
		t.Fatalf("decoded %v (%v), want %v", args.blockRect, err, hostileRect)
	}
	w := &Worker{}
	if err := w.putBlocks(&putArgs{Handle: args.Handle, Epoch: 1, Blocks: wireSeedRecs()}, new(int64)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var reply getReply
	runtime.ReadMemStats(&before)
	err := w.getBlocks(&args, &reply)
	runtime.ReadMemStats(&after)
	if err != nil || len(reply.Blocks) != 0 {
		t.Fatalf("hostile rectangle: %d blocks, %v; want an empty reply", len(reply.Blocks), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("hostile rectangle: allocated %d bytes", alloc)
	}
}

// frameOf prefixes body with its honest length.
func frameOf(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// requestFrame is one request exactly as a client frames it, length prefix
// included: the first call on a fresh connection, so seq 1.
func requestFrame(t testing.TB, method byte, args func(*codec.FrameWriter) error) []byte {
	t.Helper()
	near, far := net.Pipe()
	c := codec.NewClient(near, workerErrors)
	defer c.Close()
	go c.Call(context.Background(), method, args, nil)
	var prefix [4]byte
	if _, err := io.ReadFull(far, prefix[:]); err != nil {
		t.Fatal(err)
	}
	frame := append(prefix[:], make([]byte, binary.LittleEndian.Uint32(prefix[:]))...)
	if _, err := io.ReadFull(far, frame[4:]); err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestWireBodiesRoundTripAndTruncation: every body kind decodes from its own
// encoding, consuming it exactly — in one chunk, and cut into at least three
// — and fails with a typed error when the frame ends at any earlier byte.
func TestWireBodiesRoundTripAndTruncation(t *testing.T) {
	for kind, body := range wireSeedBodies(t) {
		size := max(1, len(body)/4) // four chunks or more
		for _, chunk := range []int{0, size} {
			rd := codec.NewFrameReader(bytes.NewReader(chunked(body, chunk, 0, false)))
			if err := rd.Next(); err != nil {
				t.Fatal(err)
			}
			if err := decodeBody(kind, rd); err != nil || unread(rd) != 0 {
				t.Fatalf("body kind %d in %d-byte chunks: %v, %d of %d bytes read", kind, chunk, err, rd.Offset(), len(body))
			}
			for cut := 0; cut < len(body); cut++ {
				rd := codec.NewFrameReader(bytes.NewReader(chunked(body[:cut], chunk, 0, false)))
				if err := rd.Next(); err != nil {
					t.Fatal(err)
				}
				if err := decodeBody(kind, rd); !errors.Is(err, errWire) {
					t.Fatalf("body kind %d in %d-byte chunks cut at %d/%d: %v, want errWire", kind, chunk, cut, len(body), err)
				}
			}
		}
	}
}

// chunked is body as one frame of chunks of size bytes (one chunk when size
// is 0) whose last chunk's prefix promises claim bytes more than follow;
// with abort set, every byte goes out in non-final chunks (bit 31 of the
// prefix set) and the abort marker — bit 31 alone — ends the frame instead.
func chunked(body []byte, size int, claim uint32, abort bool) []byte {
	const more = 1 << 31
	if size <= 0 {
		size = max(len(body), 1)
	}
	var raw []byte
	var sent uint64
	for len(body) > size || abort && len(body) > 0 {
		n := min(size, len(body))
		raw = binary.LittleEndian.AppendUint32(raw, more|uint32(n))
		raw = append(raw, body[:n]...)
		body, sent = body[n:], sent+uint64(n)
	}
	if abort {
		return binary.LittleEndian.AppendUint32(raw, more)
	}
	promised := min(uint64(len(body))+uint64(claim), codec.MaxFrameBytes-sent)
	raw = binary.LittleEndian.AppendUint32(raw, uint32(promised))
	return append(raw, body...)
}

// forgedCountBodies is, for every element count a worker or driver socket
// decodes, the shortest body that reaches it followed by a count of a
// hundred million: affordable only to a frame whose length prefix lies.
func forgedCountBodies() map[string]struct {
	kind int
	body []byte
} {
	huge := binary.AppendUvarint(nil, 100e6)
	then := func(head []byte, rest ...byte) []byte {
		return append(append(append([]byte(nil), head...), rest...), huge...)
	}
	// column is a multiply body up to its transfer mode: a box one block
	// deep in k, cut into one slab, and no chain link.
	column := []byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0}
	return map[string]struct {
		kind int
		body []byte
	}{
		"A block records": {bodyMultiplyArgs, then(column, 0)},
		"pull A parts":    {bodyPullMultiplyArgs, then(column, 1, 0, 9)},
		"pull B parts":    {bodyPullMultiplyArgs, then(column, 1, 0, 9, 0, 9)},
		"reply blocks":    {bodyMultiplyReply, then(make([]byte, 2))},
		"put blocks":      {bodyPutArgs, then(make([]byte, 4))},
		"handle ids":      {bodyFreeArgs, then(nil)},
		"part locations":  {bodyExecArgs, then(make([]byte, 15))},
		"get blocks":      {bodyGetReply, then(nil)},
		"sum blocks":      {bodySumReply, then(nil)},
		// Not an element count but a loop bound all the same: 2⁴⁰ slabs for
		// a k range of one block.
		"slab count": {bodyMultiplyArgs, binary.AppendUvarint(append([]byte(nil), column[:10]...), 1<<40)},
	}
}

// TestForgedFramePrefixHugeCounts: a frame prefix promising 2 GiB makes a
// hundred-million-element count pass the bytes-left check of every body that
// carries one. Each decoder fails when the dozen bytes run out, having
// allocated a small fixed step per nesting level — not the count — behind
// the header, through the read loop that frame reaches. A column's slab
// count of 2⁴⁰ is refused as errWire where it is read, before any loop.
func TestForgedFramePrefixHugeCounts(t *testing.T) {
	for name, tc := range forgedCountBodies() {
		raw := append(binary.LittleEndian.AppendUint32(nil, codec.MaxFrameBytes), wholeFrame(tc.kind, tc.body)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := deliverFrame(tc.kind, raw)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: forged count decoded", name)
		}
		if name == "slab count" && !errors.Is(err, errWire) {
			t.Errorf("%s: %v, want errWire", name, err)
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(512<<10); alloc > limit {
			t.Errorf("%s: allocated %d bytes for %d bytes of input (limit %d)", name, alloc, len(raw), limit)
		}
	}
}

// A whole frame a worker socket delivers reaches one of two read loops.
// Request kinds reach a worker's: the method byte in the frame picks the args
// decoder, which runs — its call does not. Reply kinds reach a client's, as
// the answer to one pending call (seq 1) whose reply decodes as kind.

// requestMethods is the method byte each request kind travels under.
var requestMethods = map[int]byte{
	bodyMultiplyArgs: methodMultiply, bodyPullMultiplyArgs: methodMultiply, bodyColumnArgs: methodMultiply, bodyPutArgs: methodPutBlocks,
	bodyGetArgs: methodGetBlocks, bodyFreeArgs: methodFreeHandles, bodyPinArgs: methodPinHandle, bodyExecArgs: methodExecOp,
	bodyChainArgs: methodMultiply, bodySumArgs: methodTakeSum, bodySelfLinkArgs: methodMultiply,
	bodyViewExecArgs: methodExecOp, bodyFusedExecArgs: methodExecOp, bodyPullLinkArgs: methodMultiply,
	bodyHostilePullArgs: methodMultiply, bodyHostileGetArgs: methodGetBlocks,
}

// wholeFrame puts body behind the header it travels with: seq 1 and its
// method for a request, seq 1 and CodeOK for a reply.
func wholeFrame(kind int, body []byte) []byte {
	if m, ok := requestMethods[kind]; ok {
		return append([]byte{1, m}, body...)
	}
	return append([]byte{1, codec.CodeOK, 0}, body...)
}

// serveRaw feeds raw to a worker's read loop with every call left unrun and
// returns the first args decoder error and the loop's own.
func serveRaw(raw []byte) (decodeErr, loopErr error) {
	handlers := (&Worker{store: newHandleStore(fuzzMemBytes)}).handlers()
	for m, h := range handlers {
		if h == nil {
			continue // a retired method byte: answered as unknown
		}
		handlers[m] = func(r *codec.FrameReader) (codec.Call, error) {
			_, err := h(r)
			if decodeErr == nil {
				decodeErr = err
			}
			return func() (func(*codec.FrameWriter) error, error) { return nil, nil }, err
		}
	}
	loopErr = codec.Serve(&gatedConn{raw: bytes.NewReader(raw)}, handlers, workerErrors)
	return decodeErr, loopErr
}

// callRaw feeds raw to a client's read loop as the answer to one call whose
// reply decodes as kind, and returns the call's error.
func callRaw(kind int, raw []byte) error {
	conn := &gatedConn{raw: bytes.NewReader(raw), sent: make(chan struct{})}
	c := codec.NewClient(conn, workerErrors)
	defer c.Close()
	return c.Call(context.Background(), methodPing, nil, func(r *codec.FrameReader) error { return decodeBody(kind, r) })
}

// gatedConn serves raw to its reader and discards what is written to it.
// With sent set it holds its reads back until the first write — the request
// — so a reply is never read before its call is pending.
type gatedConn struct {
	raw  io.Reader
	once sync.Once
	sent chan struct{}
}

func (c *gatedConn) Read(p []byte) (int, error) {
	if c.sent != nil {
		<-c.sent
	}
	return c.raw.Read(p)
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.Close()
	return len(p), nil
}

func (c *gatedConn) Close() error {
	c.once.Do(func() {
		if c.sent != nil {
			close(c.sent)
		}
	})
	return nil
}

// deliverFrame runs one whole frame, length prefix included, through the
// read loop its kind reaches and returns the error the decoder or the
// connection ended with (nil for a frame that decoded).
func deliverFrame(kind int, raw []byte) error {
	if _, ok := requestMethods[kind]; !ok {
		err := callRaw(kind, raw)
		if errors.Is(err, codec.ErrClosed) && errors.Is(err, io.EOF) {
			return nil // the reply was not the call's, and drained
		}
		return err
	}
	decodeErr, loopErr := serveRaw(raw)
	if loopErr == io.EOF {
		loopErr = nil
	}
	return errors.Join(decodeErr, loopErr)
}

// hostileFrames are whole frames that only the header makes hostile: a method
// byte no handler serves — one beyond the table, and the byte version 1 of
// the socket numbered ExecOp with — a reply for a call nobody made, an error
// code outside the table, and a code whose fields end early.
func hostileFrames() map[string]struct {
	kind  int
	frame []byte
} {
	return map[string]struct {
		kind  int
		frame []byte
	}{
		"unknown method byte": {bodyGetArgs, []byte{1, 0xee, 5, 0}},
		"retired method byte": {bodyGetArgs, []byte{1, methodExecOp + 1, 5, 0}},
		"unknown seq":         {bodyPingReply, []byte{9, codec.CodeOK, 0, 0}},
		"out-of-table code":   {bodyPingReply, []byte{1, 0xee, 1, 'x'}},
		"pull failure":        {bodyPingReply, []byte{1, codePullFailed, 1, 'x', 7, 1}},
		"fields cut short":    {bodyPingReply, []byte{1, codePullFailed, 1, 'x', 7}},
	}
}

// FuzzWireBodies drives arbitrary frames, header included — whole, in
// chunks, or ended by the abort marker — through both read loops of a
// worker socket: requests through a worker's — method byte, then
// the decoder of MultiplyArgs (push, pull and chain link), the running-sum
// take and the handle-store bodies of handlewire.go — and replies through a
// client's — seq, error code and its fields, then the reply decoders. A hostile peer gets a typed error —
// errWire, the unknown-digest refusal for a reference the cache does not
// hold, a coded answer, or a connection ended on a bad header — never a
// panic, and never an allocation beyond what its bytes could hold plus one
// read step.
func FuzzWireBodies(f *testing.F) {
	for kind, body := range wireSeedBodies(f) {
		frame := wholeFrame(kind, body)
		f.Add(uint8(kind), frame, uint32(0), uint16(0), false)
		f.Add(uint8(kind), frame, uint32(0), uint16(max(1, len(frame)/3)), false)
		f.Add(uint8(kind), frame, uint32(0), uint16(max(1, len(frame)/3)), true)
	}
	for _, body := range pushVariantBodies(f) {
		f.Add(uint8(bodyMultiplyArgs), wholeFrame(bodyMultiplyArgs, body), uint32(0), uint16(0), false)
	}
	f.Add(uint8(bodyFreeArgs), wholeFrame(bodyFreeArgs, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}), uint32(0), uint16(0), false)
	for _, tc := range forgedCountBodies() {
		f.Add(uint8(tc.kind), wholeFrame(tc.kind, tc.body), uint32(codec.MaxFrameBytes), uint16(0), false)
		f.Add(uint8(tc.kind), wholeFrame(tc.kind, tc.body), uint32(codec.MaxFrameBytes), uint16(5), false)
	}
	for _, tc := range hostileFrames() {
		f.Add(uint8(tc.kind), tc.frame, uint32(0), uint16(0), false)
	}
	f.Fuzz(func(t *testing.T, kind uint8, frame []byte, claim uint32, chunk uint16, abort bool) {
		// The last prefix promises claim bytes more than ever arrive: a
		// forged frame length, under which every count looks affordable.
		raw := chunked(frame, int(chunk), claim, abort)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := deliverFrame(int(kind)%bodyKinds, raw)
		runtime.ReadMemStats(&after)
		// A decoded record is a few machine words per wire byte at most.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+1<<20+256<<10); alloc > limit {
			t.Fatalf("allocated %d bytes for %d bytes of input", alloc, len(raw))
		}
		var re *codec.RemoteError
		typed := errors.Is(err, errWire) || errors.Is(err, errUnknownDigest) || errors.Is(err, codec.ErrClosed) || errors.As(err, &re)
		short := claim > 0 && errors.Is(err, io.ErrUnexpectedEOF)
		if err != nil && !typed && !short {
			t.Fatalf("untyped error %v", err)
		}
	})
}

// TestHostileHeaders: what each header-only hostile frame comes back as.
func TestHostileHeaders(t *testing.T) {
	frames := hostileFrames()
	want := map[string]func(error) bool{
		"unknown method byte": func(err error) bool { return err != nil && strings.Contains(err.Error(), "unknown method") },
		"retired method byte": func(err error) bool { return err != nil && strings.Contains(err.Error(), "unknown method") },
		"unknown seq":         func(err error) bool { return err == nil },
		"out-of-table code":   func(err error) bool { return errors.Is(err, errWire) },
		"pull failure": func(err error) bool {
			var pe *pullError
			return errors.As(err, &pe) && pe.handle == 7 && evictionErr(err)
		},
		"fields cut short": func(err error) bool { return errors.Is(err, errWire) },
	}
	for name, tc := range frames {
		err := deliverFrame(tc.kind, frameOf(tc.frame))
		if strings.HasSuffix(name, "method byte") {
			// Answered, not decoded: the loop serves on, so read the answer.
			err = unknownMethodAnswer(t, tc.frame)
		}
		if !want[name](err) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// unknownMethodAnswer is the worker's answer to one request frame.
func unknownMethodAnswer(t *testing.T, frame []byte) error {
	t.Helper()
	addrs, _ := startWorkers(t, 1)
	conn, rd := rawWorkerConn(t, addrs[0])
	if _, err := conn.Write(frameOf(frame)); err != nil {
		t.Fatal(err)
	}
	code, msg, _ := readResponseHeader(t, rd, 1)
	if code == codec.CodeOK {
		return nil
	}
	return errors.New(msg)
}

// rawWorkerConn dials a worker and completes the preamble by hand.
func rawWorkerConn(t *testing.T, addr string) (net.Conn, *codec.FrameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := codec.Handshake(conn, workerPreamble); err != nil {
		t.Fatal(err)
	}
	return conn, codec.NewFrameReader(conn)
}

// TestPreambleRefusesVersion1Peers: earlier versions of the worker socket
// numbered their methods differently (v1), carried block tags this one
// refuses (v3), could not read a frame in chunks (v4), computed dense
// products without a fused multiply-add (v5), refused the coordinate
// sparse form (v7) or a link that names its own worker as predecessor (v8),
// or read a pipeline multiply's operands untransposed and knew no fused
// pass (v9), so a peer still speaking one is refused at the handshake
// both ways — a driver dialing an old worker, and an old driver dialing a
// worker — with codec.ErrProtocol.
func TestPreambleRefusesVersion1Peers(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	for _, version := range []byte{1, 3, 4, 5, 7, 8, 9, 10} {
		old := workerPreamble
		old[4] = version
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			codec.Handshake(conn, old)
		}()
		opts := fastOpts()
		opts.DisableHeartbeat = true
		if _, err := DialOptions([]string{l.Addr().String()}, opts); !errors.Is(err, codec.ErrProtocol) {
			t.Fatalf("driver dialing a v%d worker: %v, want ErrProtocol", version, err)
		}

		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := codec.Handshake(conn, old); !errors.Is(err, codec.ErrProtocol) {
			t.Fatalf("v%d driver dialing a worker: %v, want ErrProtocol", version, err)
		}
	}
}

// readResponseHeader reads one response header: its code, its message and
// how many bytes followed them.
func readResponseHeader(t *testing.T, rd *codec.FrameReader, seq uint64) (code byte, msg string, rest int64) {
	t.Helper()
	if err := rd.Next(); err != nil {
		t.Fatalf("no response: %v", err)
	}
	gotSeq, err1 := rd.Uvarint()
	code, err2 := rd.U8()
	msg, err3 := rd.Str()
	if err := errors.Join(err1, err2, err3); err != nil || gotSeq != seq {
		t.Fatalf("response header: seq %d, want %d (%v)", gotSeq, seq, err)
	}
	return code, msg, unread(rd)
}

// unread drains the rest of rd's frame and returns how many bytes that was.
func unread(rd *codec.FrameReader) int64 {
	at := rd.Offset()
	if err := rd.Drain(); err != nil {
		return -1
	}
	return rd.Offset() - at
}

// rawCall writes one request frame on conn and reads back the response
// header: its code, its message, and how many bytes followed them.
func rawCall(t *testing.T, conn net.Conn, rd *codec.FrameReader, seq uint64, method byte, body []byte) (code byte, msg string, rest int64) {
	t.Helper()
	w := codec.BeginFrame()
	defer w.Release()
	w.Uvarint(seq)
	w.Byte(method)
	w.Bytes(body)
	if err := w.Flush(conn); err != nil {
		t.Fatal(err)
	}
	return readResponseHeader(t, rd, seq)
}

// TestBadBodyThenGoodRequestOnWorkerSocket: a request whose body fails to
// decode — at its first byte, mid-block, or at a block under a retired tag —
// or that names no method is answered with an error, and the next request on
// the same connection succeeds: the stream never desynchronizes.
func TestBadBodyThenGoodRequestOnWorkerSocket(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	conn, rd := rawWorkerConn(t, addrs[0])
	good := wireSeedBodies(t)[bodyMultiplyArgs]
	torn := tornCopy(t, good)
	seq := uint64(1)
	for name, bad := range map[string]struct {
		method byte
		body   []byte
	}{
		"garbage body":        {methodMultiply, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
		"torn block":          {methodMultiply, torn},
		"retired block tag":   {methodMultiply, pushVariantBodies(t)[0]},
		"unknown method byte": {0xee, good},
	} {
		if code, _, _ := rawCall(t, conn, rd, seq, bad.method, bad.body); code == codec.CodeOK {
			t.Fatalf("%s: accepted", name)
		}
		seq++
		if code, msg, n := rawCall(t, conn, rd, seq, methodPing, nil); code != codec.CodeOK || n == 0 {
			t.Fatalf("ping after %s: code %d %q, %d body bytes", name, code, msg, n)
		}
		seq++
	}
	// And the good body still computes.
	if code, msg, n := rawCall(t, conn, rd, seq, methodMultiply, good); code != codec.CodeOK || n == 0 {
		t.Fatalf("good multiply after the bad ones: code %d %q, %d body bytes", code, msg, n)
	}
}

// tornCopy breaks the first dense block header (its rows field) in body
// while leaving the record length intact: the payload decoder fails
// mid-frame with kilobytes of the frame still unread.
func tornCopy(t testing.TB, body []byte) []byte {
	torn := append([]byte(nil), body...)
	at := bytes.Index(torn, []byte{24, 0, 0, 0, 0, 0, 0, 0})
	if at < 0 {
		t.Fatal("dense header not found in the seed body")
	}
	torn[at+7] = 0x7f
	return torn
}

// fakeWorker serves the worker protocol with one handler, for the client
// side of the socket: every call of method answers with the next of answers.
func fakeWorker(t *testing.T, method byte, answers ...func() (func(*codec.FrameWriter) error, error)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var mu sync.Mutex
	handlers := make([]codec.Handler, method+1)
	handlers[method] = func(*codec.FrameReader) (codec.Call, error) {
		mu.Lock()
		defer mu.Unlock()
		next := answers[0]
		answers = answers[1:]
		return next, nil
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if codec.Handshake(conn, workerPreamble) == nil {
					codec.Serve(conn, handlers, workerErrors)
				}
			}()
		}
	}()
	return l.Addr().String()
}

// TestBadReplyBodyThenGoodCall: a reply whose body is torn — mid-block, or at
// its first byte — fails that call with a typed error; the next call on the
// same client succeeds, with the blocks intact.
func TestBadReplyBodyThenGoodCall(t *testing.T) {
	good := wireSeedBodies(t)[bodyGetReply]
	raw := func(body []byte) func() (func(*codec.FrameWriter) error, error) {
		return func() (func(*codec.FrameWriter) error, error) {
			return func(w *codec.FrameWriter) error { w.Bytes(body); return nil }, nil
		}
	}
	addr := fakeWorker(t, methodGetBlocks,
		raw(tornCopy(t, good)), raw(good), raw([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}), raw(good))
	client, err := dialWorker(addr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, torn := range []string{"mid-block", "first byte"} {
		var reply getReply
		get := func() error {
			reply = getReply{}
			return client.Call(context.Background(), methodGetBlocks, codec.Writes(appendGetArgs, &getArgs{Handle: 5}), codec.Reads(decodeGetReply, &reply))
		}
		if err := get(); !errors.Is(err, errWire) {
			t.Fatalf("torn %s: %v, want errWire", torn, err)
		}
		if err := get(); err != nil {
			t.Fatalf("call after a reply torn %s: %v", torn, err)
		}
		if len(reply.Blocks) != len(wireSeedRecs()) || reply.Cover != seedCover {
			t.Fatalf("call after a reply torn %s: %d blocks, answering for %v", torn, len(reply.Blocks), reply.Cover)
		}
		assertBlockBits(t, wireSeedRecs()[0].Block, reply.Blocks[0].Block)
	}
}

// TestWorkerErrorsRoundTrip: every code of the worker table, raised by a
// worker, matches its sentinel with errors.Is at the caller — a fetch
// failure its type, with the handle and the eviction below it — and the
// driver's classifiers read it as they read the worker's own answer. A
// fetch's other causes stay on the worker: a draining peer does not make
// the answer a draining one.
func TestWorkerErrorsRoundTrip(t *testing.T) {
	other := errors.New("distnet: malformed cuboid box")
	evicted := &pullError{handle: 7, err: &peerFetchError{addr: "10.0.0.3:7070", err: &codec.RemoteError{Msg: "distnet: unknown handle", Err: errUnknownHandle}}}
	peerDraining := &peerFetchError{addr: "10.0.0.3:7070", err: &codec.RemoteError{Msg: "distnet: worker draining", Err: ErrWorkerDraining}}
	var pe *pullError
	var fe *peerFetchError
	cases := []struct {
		name                          string
		raised                        error
		match                         func(error) bool
		transient, recoverable, evict bool
	}{
		{"draining", ErrWorkerDraining, func(err error) bool { return errors.Is(err, ErrWorkerDraining) }, true, true, false},
		{"unknown digest", errUnknownDigest, func(err error) bool { return errors.Is(err, errUnknownDigest) }, true, false, false},
		{"unknown handle", fmt.Errorf("store: %w", errUnknownHandle), func(err error) bool { return errors.Is(err, errUnknownHandle) }, false, true, true},
		{"pull failed, evicted", evicted, func(err error) bool {
			return errors.As(err, &pe) && pe.handle == 7 && errors.Is(err, errUnknownHandle)
		}, true, true, true},
		{"peer fetch failed, peer draining", peerDraining, func(err error) bool {
			return errors.As(err, &fe) && !errors.Is(err, ErrWorkerDraining)
		}, false, true, false},
		{"other", other, func(err error) bool { return !errors.As(err, &pe) && !errors.As(err, &fe) }, false, false, false},
	}
	var answers []func() (func(*codec.FrameWriter) error, error)
	for _, tc := range cases {
		answers = append(answers, func() (func(*codec.FrameWriter) error, error) { return nil, tc.raised })
	}
	client, err := dialWorker(fakeWorker(t, methodPing, answers...), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, tc := range cases {
		err := client.Call(context.Background(), methodPing, nil, nil)
		var re *codec.RemoteError
		if !errors.As(err, &re) || re.Msg != tc.raised.Error() {
			t.Fatalf("%s: %v, want the worker's answer %q", tc.name, err, tc.raised)
		}
		if !tc.match(err) {
			t.Errorf("%s: %v decoded to %#v", tc.name, err, re.Err)
		}
		if got := transientRefusal(re); got != tc.transient {
			t.Errorf("%s: transient %v, want %v", tc.name, got, tc.transient)
		}
		if got := recoverableHandleErr(err); got != tc.recoverable {
			t.Errorf("%s: recoverable %v, want %v", tc.name, got, tc.recoverable)
		}
		if got := evictionErr(err); got != tc.evict {
			t.Errorf("%s: eviction %v, want %v", tc.name, got, tc.evict)
		}
	}
}

// TestPrepareOncePerDistinctBlock: a push multiply builds exactly one
// prepared record — one wire plan, one encode, one digest — per distinct
// operand block, although P·Q·R = 8 cuboids replicate every A block Q times
// and every B block P times; a second job over the same operands prepares
// them again (records are per job), with the cache on or off.
func TestPrepareOncePerDistinctBlock(t *testing.T) {
	a, b := cacheTestMatrices(1404)
	params := core.Params{P: 2, Q: 2, R: 2}
	distinct := int64(a.NumBlocks() + b.NumBlocks())
	for _, disableCache := range []bool{false, true} {
		addrs, _ := startWorkers(t, 2)
		opts := fastOpts()
		opts.DisableBlockCache = disableCache
		d, err := DialOptions(addrs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for job := int64(1); job <= 2; job++ {
			if _, _, err := d.Execute(context.Background(), a, b, MultiplyOptions{Params: &params}); err != nil {
				t.Fatal(err)
			}
			if got := d.NetStats().BlocksPrepared; got != job*distinct {
				t.Fatalf("cache disabled=%v, after job %d: %d blocks prepared, want %d (%d distinct blocks per job)",
					disableCache, job, got, job*distinct, distinct)
			}
		}
		d.Close()
	}
}

// TestOversizeCuboidFailsWithoutRetry: a cuboid too large for one frame is
// refused at encode with codec.ErrFrameTooLarge and surfaces from runColumn at
// once — no retry storm across the pool, no worker declared dead, no local
// fallback — and the connection it was refused on still carries the next
// cuboid.
func TestOversizeCuboidFailsWithoutRetry(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	opts := fastOpts()
	opts.DisableHeartbeat = true
	d, err := DialOptions(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// One 32 MiB block listed 65 times: over 2 GiB of frame, none of it
	// allocated, since every record's tail aliases the same storage.
	big := matrix.NewDense(2048, 2048)
	huge := &multiplyArgs{IHi: 1, JHi: 1, KHi: 1, slabs: 1}
	for i := 0; i < 65; i++ {
		huge.ABlocks = append(huge.ABlocks, blockRec{Key: bmat.BlockKey{I: 0, J: i}, Block: big})
	}
	prepareRecs(t, huge.ABlocks)
	sentBefore, _ := d.WireBytes()
	if _, err := d.runColumn(context.Background(), &column{links: []*multiplyArgs{huge}}, obs.Span{}); !errors.Is(err, codec.ErrFrameTooLarge) {
		t.Fatalf("oversized cuboid: %v, want ErrFrameTooLarge", err)
	}
	if sent, _ := d.WireBytes(); sent-sentBefore >= 1<<20 {
		t.Fatalf("the refused call sent %d bytes, want under 1 MiB", sent-sentBefore)
	}
	if st := d.NetStats(); st.CuboidRetries != 0 || st.LocalFallbacks != 0 || st.WorkersDeclaredDead != 0 {
		t.Fatalf("oversized cuboid was retried: %+v", st)
	}
	if d.Workers() != 2 {
		t.Fatalf("%d workers alive after the refusal, want 2", d.Workers())
	}
	small := matrix.RandomDense(rand.New(rand.NewSource(1405)), 8, 8)
	ok := &multiplyArgs{IHi: 1, JHi: 1, KHi: 1, slabs: 1, ABlocks: []blockRec{{Block: small}}, BBlocks: []blockRec{{Block: small}}}
	prepareRecs(t, ok.ABlocks, ok.BBlocks)
	for i := 0; i < 2; i++ { // homes 0 and 1: both members' connections
		if reply, err := d.runColumn(context.Background(), &column{links: []*multiplyArgs{ok}, home: i}, obs.Span{}); err != nil || len(reply.CBlocks) != 1 {
			t.Fatalf("cuboid after the refusal: %v", err)
		}
	}
}

// TestFrameSizeCheckFramesWhatTheAppendDoes holds the frame-size check's
// byte count to the frame appendMultiplyArgs then writes: every record
// inline, and — past the frame bound, where the count asks the tracker —
// a 32 MiB block listed 65 times that goes inline once and as a reference
// after, within the body or because the worker already holds it. Such a
// call fits a frame and must not be refused.
func TestFrameSizeCheckFramesWhatTheAppendDoes(t *testing.T) {
	framed := func(s blockSender, a *multiplyArgs) int64 {
		w := codec.BeginFrame()
		defer w.Release()
		if err := s.appendMultiplyArgs(&w, a); err != nil {
			t.Fatal(err)
		}
		return w.Size()
	}
	check := func(name string, s blockSender, a *multiplyArgs) {
		t.Helper()
		counted := s.recsBytes(a) // before the append marks the tracker
		// The same call without records carries their two counts, a byte
		// each.
		bare := *a
		bare.ABlocks, bare.BBlocks = nil, nil
		if got := framed(s, a) - framed(blockSender{}, &bare) + 2; got != counted {
			t.Errorf("%s: the check counts %d bytes of records, the frame carries %d", name, counted, got)
		}
	}

	inline := &multiplyArgs{IHi: 1, JHi: 1, KHi: 1, slabs: 1, ABlocks: wireSeedRecs(), BBlocks: wireSeedRecs()[:1]}
	prepareRecs(t, inline.ABlocks, inline.BBlocks)
	check("inline", blockSender{}, inline)

	big := matrix.NewDense(2048, 2048)
	p, err := codec.Prepare(big)
	if err != nil {
		t.Fatal(err)
	}
	p.Digest[0], p.HasDigest = 0xB1, true
	repeated := &multiplyArgs{IHi: 1, JHi: 1, KHi: 1, slabs: 1, cacheEpoch: 3}
	for k := 0; k < 65; k++ {
		repeated.ABlocks = append(repeated.ABlocks, blockRec{Key: bmat.BlockKey{I: 0, J: k}, Block: big, prep: p})
	}
	check("one inline copy, then references", blockSender{tracker: &sendTracker{}}, repeated)
	held := &sendTracker{}
	held.seen(2, p.Digest)
	check("every copy a reference", blockSender{tracker: held}, repeated)
	aged := &sendTracker{}
	aged.seen(1, p.Digest)
	repeated.cacheEpoch = 2 + defaultCacheEpochWindow
	check("the held copy aged out", blockSender{tracker: aged}, repeated)
}

// startForgingWorker serves a worker whose multiplies compute as usual but
// whose replies carrying C blocks pass through forge before they are sent.
func startForgingWorker(t *testing.T, forge func(box core.Box, reply *multiplyReply)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{listener: l, store: newHandleStore(0)}
	handlers := w.handlers()
	handlers[methodMultiply] = w.admit(false, codec.Method(w.decodeMultiply, func(args *multiplyArgs, reply *multiplyReply) error {
		if err := w.multiply(args, reply); err != nil || len(reply.CBlocks) == 0 {
			return err
		}
		forge(args.box(), reply)
		return nil
	}, appendMultiplyReply))
	w.conns = codec.Listen(l, workerPreamble, handlers, workerErrors)
	t.Cleanup(w.abort)
	return l.Addr().String()
}

// TestForgedRepliesFallBackToLocal has every worker answer each multiply
// with C blocks that do not fit the call: a key off the grid, a key in
// another column's box, a block of the wrong size, a block sent twice, a
// sparse block. The driver checks each reply where it arrives, so every
// attempt fails as a bad frame and the column is computed locally — on a
// whole column, on a column over θt cut into links on one holder, and on a
// chain's last link — with no panic and the bits of the local product.
func TestForgedRepliesFallBackToLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(4301))
	// A 5×5 grid of C blocks whose last row and column are 4 wide.
	a, b := bmat.RandomDense(rng, 36, 44, 8), bmat.RandomDense(rng, 44, 36, 8)
	const grid = 5
	forges := []struct {
		name  string
		forge func(box core.Box, reply *multiplyReply)
	}{
		{"off the grid", func(_ core.Box, r *multiplyReply) { r.CBlocks[0].Key.I += 1000 }},
		{"in another column's box", func(box core.Box, r *multiplyReply) {
			if r.CBlocks[0].Key.J = box.JHi; box.JHi == grid {
				r.CBlocks[0].Key.J = box.JLo - 1
			}
		}},
		{"wrong size", func(_ core.Box, r *multiplyReply) {
			rows, cols := r.CBlocks[0].Block.Dims()
			r.CBlocks[0].Block = matrix.NewDense(rows+1, cols)
		}},
		{"sent twice", func(_ core.Box, r *multiplyReply) { r.CBlocks = append(r.CBlocks, r.CBlocks[0]) }},
		{"not dense", func(_ core.Box, r *multiplyReply) {
			r.CBlocks[0].Block = matrix.NewCSRFromDense(r.CBlocks[0].Block.(*matrix.Dense))
		}},
	}
	plans := []struct {
		name   string
		params core.Params
		mem    int64 // θt; one byte cuts every column into links of one slab
	}{
		{name: "whole columns", params: core.Params{P: 2, Q: 2, R: 1}},
		// One column: the placements tie, so homes keeps it on one holder.
		{name: "columns over θt", params: core.Params{P: 1, Q: 1, R: 2}, mem: 1},
		// Four columns on three workers: the chain.
		{name: "chain", params: core.Params{P: 2, Q: 2, R: 2}},
	}
	for _, plan := range plans {
		want := cuboidReference(t, a, b, plan.params)
		for _, f := range forges {
			t.Run(plan.name+"/"+f.name, func(t *testing.T) {
				addrs := make([]string, 3)
				for i := range addrs {
					addrs[i] = startForgingWorker(t, f.forge)
				}
				opts := fastOpts()
				opts.DisableHeartbeat = true
				d, err := DialOptions(addrs, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				params := plan.params
				c, _, err := d.Execute(context.Background(), a, b, MultiplyOptions{Params: &params, WorkerMemBytes: plan.mem})
				if err != nil {
					t.Fatal(err)
				}
				bitIdentical(t, c, want)
				st := d.NetStats()
				if st.LocalFallbacks == 0 {
					t.Errorf("no local fallback: a forged reply was accepted (%+v)", st)
				}
				if st.CuboidRetries == 0 {
					t.Errorf("no retry: a forged reply was accepted")
				}
			})
		}
	}
}

// encodeRequestFrame serializes one multiply request exactly as the driver
// does — including a payload large enough to take the scatter-gather
// (writev) path — and returns the raw frame bytes.
func encodeRequestFrame(t *testing.T) ([]byte, *multiplyArgs) {
	t.Helper()
	rng := rand.New(rand.NewSource(8105))
	aBlk := matrix.NewDense(32, 32) // 8 KiB of values: above minZeroCopyTail
	bBlk := matrix.NewDense(32, 32)
	for i := range aBlk.Data {
		aBlk.Data[i] = rng.NormFloat64()
		bBlk.Data[i] = rng.NormFloat64()
	}
	args := &multiplyArgs{
		IHi: 1, JHi: 1, KHi: 1, slabs: 1,
		ABlocks: []blockRec{{Key: bmat.BlockKey{I: 0, J: 0}, Block: aBlk}},
		BBlocks: []blockRec{{Key: bmat.BlockKey{I: 0, J: 0}, Block: bBlk}},
	}
	prepareRecs(t, args.ABlocks, args.BBlocks)
	return requestFrame(t, methodMultiply, codec.Writes(blockSender{}.appendMultiplyArgs, args)), args
}

// decodeRequestFrame parses one framed Multiply request from r the way the
// worker's codec does: header, then the streaming body decode.
func decodeRequestFrame(r io.Reader) (seq uint64, method byte, args multiplyArgs, left int64, err error) {
	fr := codec.NewFrameReader(r)
	if err = fr.Next(); err != nil {
		return
	}
	if seq, err = fr.Uvarint(); err != nil {
		return
	}
	if method, err = fr.U8(); err != nil {
		return
	}
	err = decodeMultiplyArgs(fr, &args, newHandleStore(0))
	return seq, method, args, unread(fr), err
}

// TestFragmentedFrameReads drives a whole request frame through a
// one-byte-at-a-time reader: the streaming decode must be identical to the
// contiguous read, and truncating the stream at every single byte offset
// must fail cleanly — never a panic, never a bogus success.
func TestFragmentedFrameReads(t *testing.T) {
	full, args := encodeRequestFrame(t)

	for name, r := range map[string]io.Reader{
		"contiguous": bytes.NewReader(full),
		"dribbled":   iotest.OneByteReader(bytes.NewReader(full)),
	} {
		seq, method, dec, left, err := decodeRequestFrame(r)
		if err != nil {
			t.Fatalf("%s read failed: %v", name, err)
		}
		if seq != 1 || method != methodMultiply {
			t.Fatalf("%s: header (%d, %d)", name, seq, method)
		}
		if left != 0 {
			t.Fatalf("%s: decode left %d trailing bytes", name, left)
		}
		if dec.IHi != 1 || len(dec.ABlocks) != 1 || len(dec.BBlocks) != 1 {
			t.Fatalf("%s: decoded args %+v", name, dec)
		}
		assertBlockBits(t, args.ABlocks[0].Block, dec.ABlocks[0].Block)
		assertBlockBits(t, args.BBlocks[0].Block, dec.BBlocks[0].Block)
	}

	// A stream cut anywhere — inside the prefix, the header, a block's
	// structure or its value tail — is an error.
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, _, err := decodeRequestFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded a request", cut, len(full))
		}
	}
	// So is a frame whose prefix promises less than the body needs: the
	// decoder stops at the frame's end, it does not read into the next one.
	for cut := 4; cut < len(full); cut += 97 {
		short := append([]byte(nil), full[:cut]...)
		binary.LittleEndian.PutUint32(short, uint32(cut-4))
		_, _, _, _, err := decodeRequestFrame(bytes.NewReader(append(short, full...)))
		if !errors.Is(err, errWire) {
			t.Fatalf("frame shortened to %d bytes: %v", cut-4, err)
		}
	}
}

func assertBlockBits(t *testing.T, want, got matrix.Block) {
	t.Helper()
	w, g := want.Dense(), got.Dense()
	wr, wc := w.Dims()
	gr, gc := g.Dims()
	if wr != gr || wc != gc {
		t.Fatalf("dims %dx%d != %dx%d", gr, gc, wr, wc)
	}
	for i := range w.Data {
		if w.Data[i] != g.Data[i] {
			t.Fatalf("value %d differs: %v != %v", i, g.Data[i], w.Data[i])
		}
	}
}

// TestSendTrackerConcurrentEpochs hammers seen/forget from many goroutines
// across epoch bumps — run under -race this pins the tracker's locking —
// then checks the sequential semantics still hold.
func TestSendTrackerConcurrentEpochs(t *testing.T) {
	tr := &sendTracker{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(8106 + g)))
			var dg codec.Digest
			for i := 0; i < 3000; i++ {
				rng.Read(dg[:8]) // small space: plenty of cross-goroutine hits
				tr.seen(uint64(i/200), dg)
				if i%311 == 0 {
					tr.forget()
				}
			}
		}(g)
	}
	wg.Wait()

	var dg codec.Digest
	dg[0] = 0xAB
	tr.forget()
	base := tr.sent.win.newest + 1
	if tr.seen(base, dg) {
		t.Fatal("fresh digest reported as already sent")
	}
	if !tr.seen(base, dg) {
		t.Fatal("repeat digest not deduplicated")
	}
	// Dedup persists across epochs inside the lifecycle window — that is
	// what lets concurrent jobs share tracker state...
	if !tr.seen(base+1, dg) {
		t.Fatal("epoch bump inside the window dropped the sent set")
	}
	// ...and ages out beyond it, mirroring the worker cache's expiry. The
	// repeat at base+1 refreshed the entry to the then-newest epoch, so
	// jumping a full window past that must expire it.
	var other codec.Digest
	other[0] = 0xCD
	if tr.seen(base+1+defaultCacheEpochWindow+1, other) {
		t.Fatal("fresh digest reported as already sent after window jump")
	}
	if tr.seen(base+1+defaultCacheEpochWindow+1, dg) {
		t.Fatal("entry outside the epoch window was not aged out")
	}
	tr.forget()
	if tr.seen(base+1+defaultCacheEpochWindow+1, dg) {
		t.Fatal("forget did not clear the sent set")
	}
}

// TestWireCountersCountEveryChunk: a call whose request and reply each span
// several chunks adds its whole payload to WireEncodeBytes and
// WireDecodeBytes — the first chunk's bytes and every later one's.
func TestWireCountersCountEveryChunk(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(21))
	var blocks []blockRec
	for i := 0; i < 4; i++ {
		blk := matrix.NewDense(200, 200) // 320 KB: a chunk of its own
		for j := range blk.Data {
			blk.Data[j] = rng.NormFloat64()
		}
		blocks = append(blocks, blockRec{Key: bmat.BlockKey{I: i, J: 0}, Block: blk})
	}
	bodySize := func(body func(*codec.FrameWriter) error) int64 {
		w := codec.BeginFrame()
		defer w.Release()
		if err := body(&w); err != nil {
			t.Fatal(err)
		}
		return w.Size()
	}
	m := d.members[0]
	put := &putArgs{Handle: 1, Epoch: 1, Blocks: blocks}
	before := d.NetStats()
	if err := d.call(m, methodPutBlocks, 0, codec.Writes(appendPutArgs, put), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	// The request's header is its seq, below 128 here, and its method byte.
	if got, want := d.NetStats().WireEncodeBytes-before.WireEncodeBytes, 2+bodySize(codec.Writes(appendPutArgs, put)); got != want || want < 4*320_000 {
		t.Fatalf("put of %d bytes counted as %d encoded bytes", want, got)
	}
	var reply getReply
	before = d.NetStats()
	if err := d.call(m, methodGetBlocks, 0, codec.Writes(appendGetArgs, &getArgs{Handle: 1, blockRect: allCols(0, math.MaxInt)}), codec.Reads(decodeGetReply, &reply), time.Minute); err != nil {
		t.Fatal(err)
	}
	if got, want := d.NetStats().WireDecodeBytes-before.WireDecodeBytes, bodySize(codec.Writes(appendGetReply, &reply)); got != want || len(reply.Blocks) != len(blocks) {
		t.Fatalf("get reply of %d bytes (%d blocks) counted as %d decoded bytes", want, len(reply.Blocks), got)
	}
}
