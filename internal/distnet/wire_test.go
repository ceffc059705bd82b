package distnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"

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
	bodyMultiplyBatchArgs
	bodyMultiplyReply
	bodyMultiplyBatchReply
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
	cache := newBlockCache(-1, 0)
	switch kind {
	case bodyMultiplyArgs:
		return decodeMultiplyArgs(rd, new(MultiplyArgs), cache, false)
	case bodyMultiplyBatchArgs:
		return decodeMultiplyBatchArgs(rd, new(MultiplyBatchArgs), cache)
	case bodyMultiplyReply:
		return decodeMultiplyReply(rd, new(MultiplyReply))
	case bodyMultiplyBatchReply:
		return decodeMultiplyBatchReply(rd, new(MultiplyBatchReply))
	case bodyPutArgs:
		return decodePutArgs(rd, new(PutArgs))
	case bodyGetArgs:
		return decodeGetArgs(rd, new(GetArgs))
	case bodyFreeArgs:
		return decodeFreeArgs(rd, new(FreeArgs))
	case bodyPinArgs:
		return decodePinArgs(rd, new(PinArgs))
	case bodyExecArgs:
		return decodeExecArgs(rd, new(ExecArgs))
	case bodyGetReply:
		return decodeGetReply(rd, new(GetReply))
	case bodyExecReply:
		return decodeExecReply(rd, new(ExecReply))
	default:
		return decodePingReply(rd, new(PingReply))
	}
}

// prepareRecs stands in for jobPrep on hand-built cuboids: every record gets
// its fp64 prepared form, digestless, so it frames inline.
func prepareRecs(t testing.TB, lists ...[]BlockRec) {
	t.Helper()
	for _, recs := range lists {
		for i := range recs {
			p, err := codec.Prepare(recs[i].Block, codec.EncodingFP64)
			if err != nil {
				t.Fatal(err)
			}
			recs[i].prep = p
		}
	}
}

// wireSeedBodies encodes one valid body of every kind.
func wireSeedBodies(t testing.TB) map[int][]byte {
	rng := rand.New(rand.NewSource(1402))
	dense := matrix.RandomDense(rng, 24, 24) // 4.5 KiB of values: a zero-copy cut
	sparse := matrix.RandomSparse(rng, 40, 40, 0.05)
	recs := []BlockRec{{Key: bmat.BlockKey{I: 0, J: 1}, Block: dense}, {Key: bmat.BlockKey{I: 2, J: 3}, Block: sparse}}
	prepareRecs(t, recs)
	push := MultiplyArgs{IHi: 1, JHi: 1, KHi: 2, ABlocks: recs, BBlocks: recs[:1], cacheEpoch: 3}
	manifest := &codec.Manifest{Handle: 9, Owners: []string{"10.0.0.1:7070"}, Entries: []codec.ManifestEntry{{KeyI: 1, KeyJ: 2, HasDigest: true}}}
	pull := MultiplyArgs{IHi: 1, JHi: 1, KHi: 1, pull: true, pullSelf: "10.0.0.1:7070", aManifest: manifest, bManifest: manifest}
	parts := []PartLoc{{Addr: "10.0.0.2:7070", Lo: 0, Hi: 4}}

	cc := &clientCodec{}
	bodies := map[int][]byte{}
	add := func(kind int, fill func(w *codec.FrameWriter) error) {
		w := codec.BeginFrame()
		defer w.Release()
		if err := fill(&w); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := w.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		bodies[kind] = buf.Bytes()[4:]
	}
	add(bodyMultiplyArgs, func(w *codec.FrameWriter) error { return cc.appendMultiplyArgs(w, &push) })
	add(bodyMultiplyBatchArgs, func(w *codec.FrameWriter) error {
		return cc.appendMultiplyBatchArgs(w, &MultiplyBatchArgs{Items: []MultiplyArgs{push, pull, push}})
	})
	add(bodyMultiplyReply, func(w *codec.FrameWriter) error {
		return appendMultiplyReply(w, &MultiplyReply{CBlocks: recs, pullHits: 2})
	})
	add(bodyMultiplyBatchReply, func(w *codec.FrameWriter) error {
		return appendMultiplyBatchReply(w, &MultiplyBatchReply{Items: []BatchItem{{CBlocks: recs}, {Err: "boom"}}})
	})
	add(bodyPutArgs, func(w *codec.FrameWriter) error {
		return appendPutArgs(w, &PutArgs{Handle: 5, Epoch: 2, Pin: true, Blocks: recs})
	})
	add(bodyGetArgs, func(w *codec.FrameWriter) error { appendGetArgs(w, &GetArgs{Handle: 5, IHi: 3, JHi: 4}); return nil })
	add(bodyFreeArgs, func(w *codec.FrameWriter) error {
		appendFreeArgs(w, &FreeArgs{Handles: []uint64{1, 2, 3}, Epoch: 2, AllEpoch: true})
		return nil
	})
	add(bodyPinArgs, func(w *codec.FrameWriter) error { appendPinArgs(w, &PinArgs{Handle: 5, Unpin: true}); return nil })
	add(bodyExecArgs, func(w *codec.FrameWriter) error {
		appendExecArgs(w, &ExecArgs{Op: 2, Out: 7, A: 5, B: 6, Scalar: 1.5, OutHi: 4, AParts: parts, BParts: parts, Self: parts[0].Addr})
		return nil
	})
	add(bodyGetReply, func(w *codec.FrameWriter) error { return appendGetReply(w, &GetReply{Blocks: recs, Whole: true}) })
	add(bodyExecReply, func(w *codec.FrameWriter) error {
		appendExecReply(w, &ExecReply{Bytes: 100, Blocks: 2, PeerBytes: 50})
		return nil
	})
	add(bodyPingReply, func(w *codec.FrameWriter) error {
		return appendResponseBody(w, &PingReply{Hostname: "w0", InFlight: 1, StoreBytes: 2, StoreHandles: 3, StoreEvictions: 4})
	})
	return bodies
}

// frameOf prefixes body with its honest length.
func frameOf(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
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
	zeros := func(n int, then ...byte) []byte { return append(append(make([]byte, n), then...), huge...) }
	return map[string]struct {
		kind int
		body []byte
	}{
		"batch items":      {bodyMultiplyBatchArgs, zeros(0)},
		"A block records":  {bodyMultiplyArgs, zeros(12)},
		"manifest owners":  {bodyMultiplyArgs, zeros(11, 1, 0, 9)},
		"manifest entries": {bodyMultiplyArgs, zeros(11, 1, 0, 9, 1, 1, 'a')},
		"nested in batch":  {bodyMultiplyBatchArgs, append(binary.AppendUvarint(nil, 100e6), zeros(12)...)},
		"reply blocks":     {bodyMultiplyReply, zeros(3)},
		"batch replies":    {bodyMultiplyBatchReply, zeros(0)},
		"put blocks":       {bodyPutArgs, zeros(4)},
		"handle ids":       {bodyFreeArgs, zeros(0)},
		"part locations":   {bodyExecArgs, zeros(15)},
		"get blocks":       {bodyGetReply, zeros(0)},
	}
}

// TestForgedFramePrefixHugeCounts: a frame prefix promising 2 GiB makes a
// hundred-million-element count pass the bytes-left check of every body that
// carries one. Each decoder fails when the dozen bytes run out, having
// allocated a small fixed step per nesting level — not the count.
func TestForgedFramePrefixHugeCounts(t *testing.T) {
	for name, tc := range forgedCountBodies() {
		raw := append(binary.LittleEndian.AppendUint32(nil, codec.MaxFrameBytes), tc.body...)
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd := codec.NewFrameReader(bytes.NewReader(raw))
		if _, err = rd.Next(); err == nil {
			err = decodeBody(tc.kind, rd)
		}
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: forged count decoded", name)
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(512<<10); alloc > limit {
			t.Errorf("%s: allocated %d bytes for %d bytes of input (limit %d)", name, alloc, len(raw), limit)
		}
	}
}

// FuzzWireBodies drives arbitrary bytes through the streaming decoder of
// every body a driver↔worker socket can deliver: MultiplyArgs,
// MultiplyBatchArgs, MultiplyReply and its batch twin, and the handle-store
// bodies of handlewire.go. A hostile peer gets a typed error — errWire, or
// the unknown-digest refusal for a reference the cache does not hold — never
// a panic, and never an allocation beyond what its bytes could hold plus one
// read step.
func FuzzWireBodies(f *testing.F) {
	for kind, body := range wireSeedBodies(f) {
		f.Add(uint8(kind), body, uint32(0))
	}
	f.Add(uint8(bodyFreeArgs), []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint32(0))
	for _, tc := range forgedCountBodies() {
		f.Add(uint8(tc.kind), tc.body, uint32(codec.MaxFrameBytes))
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte, claim uint32) {
		// The prefix promises claim bytes more than ever arrive: a forged
		// frame length, under which every count looks affordable.
		promised := min(uint64(len(body))+uint64(claim), codec.MaxFrameBytes)
		raw := append(binary.LittleEndian.AppendUint32(nil, uint32(promised)), body...)
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd := codec.NewFrameReader(bytes.NewReader(raw))
		if _, err = rd.Next(); err == nil {
			err = decodeBody(int(kind)%bodyKinds, rd)
		}
		runtime.ReadMemStats(&after)
		// A decoded record is a few machine words per wire byte at most.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+1<<20+256<<10); alloc > limit {
			t.Fatalf("allocated %d bytes for %d bytes of input", alloc, len(raw))
		}
		short := promised > uint64(len(body)) && errors.Is(err, io.ErrUnexpectedEOF)
		if err != nil && !short && !errors.Is(err, errWire) && err.Error() != errUnknownDigestMsg {
			t.Fatalf("untyped error %v", err)
		}
	})
}

// rawCall writes one request frame on conn and reads back the response
// header: the error string and how many body bytes followed it.
func rawCall(t *testing.T, conn net.Conn, rd *codec.FrameReader, seq uint64, method string, body []byte) (errStr string, bodyLen int64) {
	t.Helper()
	w := codec.BeginFrame()
	defer w.Release()
	w.Uvarint(seq)
	w.Str(method)
	w.Bytes(body)
	if err := w.Flush(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatalf("no response to %s: %v", method, err)
	}
	gotSeq, err1 := rd.Uvarint()
	_, err2 := rd.Str()
	errStr, err3 := rd.Str()
	if err1 != nil || err2 != nil || err3 != nil || gotSeq != seq {
		t.Fatalf("response header to %s: seq %d (%v %v %v)", method, gotSeq, err1, err2, err3)
	}
	return errStr, rd.Remaining()
}

// TestBadBodyThenGoodRequestOnWorkerSocket: a request whose body fails to
// decode — at its first byte, mid-block, or because net/rpc could not route
// it and skipped the body — is answered with an error, and the next request
// on the same connection succeeds: the stream never desynchronizes.
func TestBadBodyThenGoodRequestOnWorkerSocket(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := codec.NewFrameReader(conn)
	good := wireSeedBodies(t)[bodyMultiplyArgs]
	torn := append([]byte(nil), good...)
	// Break the first A block's dense header (its rows field) while leaving
	// the record length intact: the payload decoder fails mid-frame with
	// kilobytes of the frame still unread.
	at := bytes.Index(torn, []byte{24, 0, 0, 0, 0, 0, 0, 0})
	if at < 0 {
		t.Fatal("dense header not found in the seed body")
	}
	torn[at+7] = 0x7f
	seq := uint64(1)
	for name, bad := range map[string]struct {
		method string
		body   []byte
	}{
		"garbage body":    {serviceName + ".Multiply", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
		"torn block":      {serviceName + ".Multiply", torn},
		"unknown method":  {serviceName + ".NoSuchMethod", good},
		"unknown service": {"Nope.Multiply", good},
	} {
		if errStr, _ := rawCall(t, conn, rd, seq, bad.method, bad.body); errStr == "" {
			t.Fatalf("%s: accepted", name)
		}
		seq++
		if errStr, n := rawCall(t, conn, rd, seq, serviceName+".Ping", nil); errStr != "" || n == 0 {
			t.Fatalf("ping after %s: error %q, %d body bytes", name, errStr, n)
		}
		seq++
	}
	// And the good body still computes.
	if errStr, n := rawCall(t, conn, rd, seq, serviceName+".Multiply", good); errStr != "" || n == 0 {
		t.Fatalf("good multiply after the bad ones: error %q, %d body bytes", errStr, n)
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
	huge := &MultiplyArgs{IHi: 1, JHi: 1, KHi: 1}
	for i := 0; i < 65; i++ {
		huge.ABlocks = append(huge.ABlocks, BlockRec{Key: bmat.BlockKey{I: 0, J: i}, Block: big})
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
	ok := &MultiplyArgs{IHi: 1, JHi: 1, KHi: 1, ABlocks: []BlockRec{{Block: small}}, BBlocks: []BlockRec{{Block: small}}}
	prepareRecs(t, ok.ABlocks, ok.BBlocks)
	for i := 0; i < 2; i++ { // round-robin: both members' connections
		if reply, err := d.runJob(context.Background(), ok, obs.Span{}); err != nil || len(reply.CBlocks) != 1 {
			t.Fatalf("cuboid after the refusal: %v", err)
		}
	}
}
