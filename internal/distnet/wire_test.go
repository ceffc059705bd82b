package distnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	bodyKinds
)

// decodeBody runs the streaming decoder a codec would run for one body.
func decodeBody(kind int, rd *codec.FrameReader) error {
	switch kind {
	case bodyMultiplyArgs, bodyPullMultiplyArgs, bodyColumnArgs:
		return decodeMultiplyArgs(rd, new(multiplyArgs), newBlockCache(-1))
	case bodyMultiplyReply:
		return decodeMultiplyReply(rd, new(multiplyReply))
	case bodyPutArgs:
		return decodePutArgs(rd, new(putArgs))
	case bodyGetArgs:
		return decodeGetArgs(rd, new(getArgs))
	case bodyFreeArgs:
		return decodeFreeArgs(rd, new(freeArgs))
	case bodyPinArgs:
		return decodePinArgs(rd, new(pinArgs))
	case bodyExecArgs:
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
// values (a zero-copy cut), one sparse.
func wireSeedRecs() []blockRec {
	rng := rand.New(rand.NewSource(1402))
	dense := matrix.RandomDense(rng, 24, 24)
	sparse := matrix.RandomSparse(rng, 40, 40, 0.05)
	return []blockRec{{Key: bmat.BlockKey{I: 0, J: 1}, Block: dense}, {Key: bmat.BlockKey{I: 2, J: 3}, Block: sparse}}
}

// wireSeedBodies encodes one valid body of every kind.
func wireSeedBodies(t testing.TB) map[int][]byte {
	recs := wireSeedRecs()
	prepareRecs(t, recs)
	push := multiplyArgs{IHi: 1, JHi: 1, KHi: 2, slabs: 1, ABlocks: recs, BBlocks: recs[:1], cacheEpoch: 3}
	manifest := &codec.Manifest{Handle: 9, Owners: []string{"10.0.0.1:7070"}, Entries: []codec.ManifestEntry{{KeyI: 1, KeyJ: 2, HasDigest: true}}}
	pull := multiplyArgs{IHi: 1, JHi: 1, KHi: 1, slabs: 1, pull: true, pullSelf: "10.0.0.1:7070", aManifest: manifest, bManifest: manifest}
	// A (p,q) column of three cuboids: its whole k range and R = 3.
	column := multiplyArgs{IHi: 2, JHi: 1, KHi: 3, slabs: 3, cuboidP: 1, ABlocks: recs, BBlocks: recs, cacheEpoch: 3}
	parts := []partLoc{{Addr: "10.0.0.2:7070", Lo: 0, Hi: 4}}

	var send blockSender
	bodies := map[int][]byte{}
	add := func(kind int, fill func(w *codec.FrameWriter) error) { bodies[kind] = bodyOf(t, fill) }
	add(bodyMultiplyArgs, func(w *codec.FrameWriter) error { return send.appendMultiplyArgs(w, &push) })
	add(bodyPullMultiplyArgs, func(w *codec.FrameWriter) error { return send.appendMultiplyArgs(w, &pull) })
	add(bodyColumnArgs, func(w *codec.FrameWriter) error { return send.appendMultiplyArgs(w, &column) })
	add(bodyMultiplyReply, func(w *codec.FrameWriter) error {
		return appendMultiplyReply(w, &multiplyReply{CBlocks: recs, pullHits: 2})
	})
	add(bodyPutArgs, func(w *codec.FrameWriter) error {
		return appendPutArgs(w, &putArgs{Handle: 5, Epoch: 2, Pin: true, Blocks: recs})
	})
	add(bodyGetArgs, codec.Writes(appendGetArgs, &getArgs{Handle: 5, IHi: 3, JHi: 4}))
	add(bodyFreeArgs, codec.Writes(appendFreeArgs, &freeArgs{Handles: []uint64{1, 2, 3}, Epoch: 2, AllEpoch: true}))
	add(bodyPinArgs, codec.Writes(appendPinArgs, &pinArgs{Handle: 5, Unpin: true}))
	add(bodyExecArgs, codec.Writes(appendExecArgs,
		&execArgs{Op: 2, Out: 7, A: 5, B: 6, Scalar: 1.5, OutHi: 4, AParts: parts, BParts: parts, Self: parts[0].Addr}))
	add(bodyGetReply, codec.Writes(appendGetReply, &getReply{Blocks: recs, Whole: true}))
	add(bodyExecReply, codec.Writes(appendExecReply, &execReply{Bytes: 100, Blocks: 2, PeerBytes: 50}))
	add(bodyPingReply, codec.Writes(appendPingReply,
		&pingReply{Hostname: "w0", InFlight: 1, StoreBytes: 2, StoreHandles: 3, StoreEvictions: 4}))
	return bodies
}

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
// cache, and the same blocks again as digest references.
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
		recs []blockRec
	}{{blockSender{}, retiredTagRecs(t)}, {cached, digested}, {cached, digested}} {
		args := multiplyArgs{IHi: 1, JHi: 1, KHi: 2, slabs: 2, ABlocks: v.recs, cacheEpoch: 3}
		bodies = append(bodies, bodyOf(t, codec.Writes(v.send.appendMultiplyArgs, &args)))
	}
	return bodies
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
// encoding, consuming it exactly, and fails with a typed error when the
// frame ends at any earlier byte.
func TestWireBodiesRoundTripAndTruncation(t *testing.T) {
	for kind, body := range wireSeedBodies(t) {
		rd := codec.NewFrameReader(bytes.NewReader(frameOf(body)))
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
		if err := decodeBody(kind, rd); err != nil || rd.Remaining() != 0 {
			t.Fatalf("body kind %d: %v, %d bytes left", kind, err, rd.Remaining())
		}
		for cut := 0; cut < len(body); cut++ {
			rd := codec.NewFrameReader(bytes.NewReader(frameOf(body[:cut])))
			if _, err := rd.Next(); err != nil {
				t.Fatal(err)
			}
			if err := decodeBody(kind, rd); !errors.Is(err, errWire) {
				t.Fatalf("body kind %d cut at %d/%d: %v, want errWire", kind, cut, len(body), err)
			}
		}
	}
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
	// deep in k, cut into one slab.
	column := []byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
	return map[string]struct {
		kind int
		body []byte
	}{
		"A block records":  {bodyMultiplyArgs, then(column, 0)},
		"manifest owners":  {bodyMultiplyArgs, then(column, 1, 0, 9)},
		"manifest entries": {bodyMultiplyArgs, then(column, 1, 0, 9, 1, 1, 'a')},
		"reply blocks":     {bodyMultiplyReply, then(make([]byte, 3))},
		"put blocks":       {bodyPutArgs, then(make([]byte, 4))},
		"handle ids":       {bodyFreeArgs, then(nil)},
		"part locations":   {bodyExecArgs, then(make([]byte, 15))},
		"get blocks":       {bodyGetReply, then(nil)},
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
	handlers := (&Worker{}).handlers()
	for m, h := range handlers {
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

// FuzzWireBodies drives arbitrary frames, header included, through both read
// loops of a worker socket: requests through a worker's — method byte, then
// the decoder of MultiplyArgs (push and pull) and the handle-store bodies of
// handlewire.go — and replies through a client's — seq, error code and its
// fields, then the reply decoders. A hostile peer gets a typed error —
// errWire, the unknown-digest refusal for a reference the cache does not
// hold, a coded answer, or a connection ended on a bad header — never a
// panic, and never an allocation beyond what its bytes could hold plus one
// read step.
func FuzzWireBodies(f *testing.F) {
	for kind, body := range wireSeedBodies(f) {
		f.Add(uint8(kind), wholeFrame(kind, body), uint32(0))
	}
	for _, body := range pushVariantBodies(f) {
		f.Add(uint8(bodyMultiplyArgs), wholeFrame(bodyMultiplyArgs, body), uint32(0))
	}
	f.Add(uint8(bodyFreeArgs), wholeFrame(bodyFreeArgs, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}), uint32(0))
	for _, tc := range forgedCountBodies() {
		f.Add(uint8(tc.kind), wholeFrame(tc.kind, tc.body), uint32(codec.MaxFrameBytes))
	}
	for _, tc := range hostileFrames() {
		f.Add(uint8(tc.kind), tc.frame, uint32(0))
	}
	f.Fuzz(func(t *testing.T, kind uint8, frame []byte, claim uint32) {
		// The prefix promises claim bytes more than ever arrive: a forged
		// frame length, under which every count looks affordable.
		promised := min(uint64(len(frame))+uint64(claim), codec.MaxFrameBytes)
		raw := append(binary.LittleEndian.AppendUint32(nil, uint32(promised)), frame...)
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
		short := promised > uint64(len(frame)) && errors.Is(err, io.ErrUnexpectedEOF)
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
// numbered their methods differently (v1) or carried block tags this one
// refuses (v3), so a peer still speaking one is refused at the handshake
// both ways — a driver dialing an old worker, and an old driver dialing a
// worker — with codec.ErrProtocol.
func TestPreambleRefusesVersion1Peers(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	for _, version := range []byte{1, 3} {
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
	if _, err := rd.Next(); err != nil {
		t.Fatalf("no response: %v", err)
	}
	gotSeq, err1 := rd.Uvarint()
	code, err2 := rd.U8()
	msg, err3 := rd.Str()
	if err := errors.Join(err1, err2, err3); err != nil || gotSeq != seq {
		t.Fatalf("response header: seq %d, want %d (%v)", gotSeq, seq, err)
	}
	return code, msg, rd.Remaining()
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
		if len(reply.Blocks) != 2 || !reply.Whole {
			t.Fatalf("call after a reply torn %s: %d blocks, whole %v", torn, len(reply.Blocks), reply.Whole)
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
// refused at encode with codec.ErrFrameTooLarge and surfaces from runJob at
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
	if _, err := d.runJob(context.Background(), huge, obs.Span{}); !errors.Is(err, codec.ErrFrameTooLarge) {
		t.Fatalf("oversized cuboid: %v, want ErrFrameTooLarge", err)
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
		ok.home = i
		if reply, err := d.runJob(context.Background(), ok, obs.Span{}); err != nil || len(reply.CBlocks) != 1 {
			t.Fatalf("cuboid after the refusal: %v", err)
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
	if _, err = fr.Next(); err != nil {
		return
	}
	if seq, err = fr.Uvarint(); err != nil {
		return
	}
	if method, err = fr.U8(); err != nil {
		return
	}
	err = decodeMultiplyArgs(fr, &args, newBlockCache(-1))
	return seq, method, args, fr.Remaining(), err
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
	base := tr.epoch + 1
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
	if tr.seen(base+1+DefaultCacheEpochWindow+1, other) {
		t.Fatal("fresh digest reported as already sent after window jump")
	}
	if tr.seen(base+1+DefaultCacheEpochWindow+1, dg) {
		t.Fatal("entry outside the epoch window was not aged out")
	}
	tr.forget()
	if tr.seen(base+1+DefaultCacheEpochWindow+1, dg) {
		t.Fatal("forget did not clear the sent set")
	}
}
