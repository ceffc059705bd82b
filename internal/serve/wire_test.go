package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/rpc"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/matrix"
)

// bufConn is an in-memory io.ReadWriteCloser the codecs can write frames
// into.
type bufConn struct{ bytes.Buffer }

func (b *bufConn) Close() error { return nil }

// wireOperands is a small pair exercising both record kinds: A sparse (index
// structure plus a folded tail), B one dense 4.5 KiB block (a zero-copy cut).
func wireOperands(seed int64) (a, b *bmat.BlockMatrix) {
	rng := rand.New(rand.NewSource(seed))
	return bmat.RandomSparse(rng, 48, 24, 24, 0.1), bmat.RandomDense(rng, 24, 24, 24)
}

// requestFrame encodes one request exactly as Client does and returns the
// whole frame, length prefix included.
func requestFrame(t testing.TB, seq uint64, method string, body any) []byte {
	t.Helper()
	conn := &bufConn{}
	if err := newClientCodec(conn).WriteRequest(&rpc.Request{Seq: seq, ServiceMethod: wireServiceName + "." + method}, body); err != nil {
		t.Fatal(err)
	}
	return conn.Bytes()
}

// matrixFrame hand-builds a Submit frame whose A operand is written by
// writeA; B is a valid 8×8 matrix.
func matrixFrame(t testing.TB, seq uint64, writeA func(w *codec.FrameWriter)) []byte {
	t.Helper()
	w := codec.BeginFrame()
	defer w.Release()
	w.Uvarint(seq)
	w.Str(wireServiceName + ".Submit")
	w.Str("")
	w.Varint(0)
	writeA(&w)
	if err := appendMatrix(&w, bmat.RandomDense(rand.New(rand.NewSource(1)), 8, 8, 8)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawServeConn dials the listener and completes the preamble by hand.
func rawServeConn(t *testing.T, addr string) (net.Conn, *codec.FrameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := handshake(conn); err != nil {
		t.Fatal(err)
	}
	return conn, codec.NewFrameReader(conn)
}

// exchange writes one raw frame and decodes the response header.
func exchange(t *testing.T, conn net.Conn, rd *codec.FrameReader, frame []byte) (seq uint64, errStr string) {
	t.Helper()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatalf("no response: %v", err)
	}
	seq, err1 := rd.Uvarint()
	_, err2 := rd.Str()
	errStr, err3 := rd.Str()
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatalf("response header: %v", err)
	}
	return seq, errStr
}

func startWireServer(t *testing.T) (*Server, *Listener) {
	t.Helper()
	c := startCluster(t, 2)
	s, err := New(c.d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl, err := ServeListener(s, l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sl.Close)
	return s, sl
}

// TestHostileOperandFrames mirrors storage's hostile-input suite on the
// serve socket: a flipped payload byte (CRC), a key outside the grid, a
// block whose dimensions do not match its slot, a slot listed twice, an
// implausible header, and a forged block length each come back as
// ErrUnschedulable — and after every one of them a good submit on the same
// connection runs to completion. Removing any of the checks lets its frame
// through as an admitted job.
func TestHostileOperandFrames(t *testing.T) {
	_, sl := startWireServer(t)
	conn, rd := rawServeConn(t, sl.Addr())
	a, b := wireOperands(1410)
	good := func(seq uint64) []byte {
		return requestFrame(t, seq, "Submit", &WireSubmitArgs{A: a, B: b})
	}
	blk := matrix.RandomDense(rand.New(rand.NewSource(1411)), 4, 4)
	header := func(w *codec.FrameWriter, rows, cols, bs, nblocks uint64) {
		for _, v := range []uint64{rows, cols, bs, nblocks} {
			w.Uvarint(v)
		}
	}
	block := func(w *codec.FrameWriter, i, j uint64, b matrix.Block) {
		w.Uvarint(i)
		w.Uvarint(j)
		if err := w.AppendBlockCRC(b, codec.EncodingFP64); err != nil {
			t.Fatal(err)
		}
	}
	flipped := good(0)
	flipped[len(flipped)-10] ^= 0x01 // inside B's last block's values
	hostile := map[string][]byte{
		"crc flip": flipped,
		"key outside grid": matrixFrame(t, 0, func(w *codec.FrameWriter) {
			header(w, 8, 8, 4, 1)
			block(w, 2, 0, blk)
		}),
		"dims mismatch": matrixFrame(t, 0, func(w *codec.FrameWriter) {
			header(w, 16, 16, 8, 1)
			block(w, 0, 0, blk) // 4×4 in an 8×8 slot
		}),
		"slot listed twice": matrixFrame(t, 0, func(w *codec.FrameWriter) {
			header(w, 8, 8, 4, 2)
			block(w, 1, 1, blk)
			block(w, 1, 1, blk)
		}),
		"more blocks than slots": matrixFrame(t, 0, func(w *codec.FrameWriter) {
			header(w, 8, 8, 4, 5)
		}),
		"implausible header": matrixFrame(t, 0, func(w *codec.FrameWriter) {
			header(w, 1<<50, 8, 4, 0)
		}),
		"zero block size": matrixFrame(t, 0, func(w *codec.FrameWriter) {
			header(w, 8, 8, 0, 0)
		}),
		"forged block length": matrixFrame(t, 0, func(w *codec.FrameWriter) {
			header(w, 1<<20, 1<<20, 1<<20, 1)
			w.Uvarint(0)
			w.Uvarint(0)
			w.Byte(codec.TagDense)
			w.Bytes(binary.LittleEndian.AppendUint32(nil, 1<<31)) // 2 GiB promised
			w.Bytes(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<14), 1<<14))
		}),
	}
	seq := uint64(1)
	for name, frame := range hostile {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, errStr := exchange(t, conn, rd, frame)
		runtime.ReadMemStats(&after)
		if !strings.HasPrefix(errStr, ErrUnschedulable.Error()) {
			t.Fatalf("%s: server answered %q, want ErrUnschedulable", name, errStr)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Fatalf("%s: %d bytes allocated while rejecting a %d-byte frame", name, alloc, len(frame))
		}
		if got, errStr := exchange(t, conn, rd, good(seq)); got != seq || errStr != "" {
			t.Fatalf("good submit after %q: seq %d, error %q", name, got, errStr)
		}
		seq++
	}
	// A request net/rpc cannot route has its body skipped, not parsed.
	if _, errStr := exchange(t, conn, rd, bytes.Replace(good(seq), []byte(".Submit"), []byte(".Sabmit"), 1)); errStr == "" {
		t.Fatal("unknown method accepted")
	}
	if _, errStr := exchange(t, conn, rd, good(seq)); errStr != "" {
		t.Fatalf("good submit after an unroutable one: %q", errStr)
	}
}

// TestWireErrorsStayTyped: what TestHostileOperandFrames sees as text a
// Client sees as the package's sentinels, and the client stays usable.
func TestWireErrorsStayTyped(t *testing.T) {
	_, sl := startWireServer(t)
	cl, err := Dial(sl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a, b := wireOperands(1412)
	bad := bmat.New(48, 24, 24) // not conformable with a
	if _, err := cl.Submit("", 0, a, bad); !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("unconformable operands: %v", err)
	}
	if _, err := cl.Submit("", 0, nil, b); !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("nil operand: %v", err)
	}
	id, err := cl.Submit("", 0, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := cl.Result(context.Background(), id); err != nil || st.State != StateDone {
		t.Fatalf("job after the rejections: %v, %v", st.State, err)
	}
}

// TestPreambleRejectsForeignPeers: a server that does not open with the
// preamble (an old gob distme-serve, an unrelated service, one that says
// nothing) fails Dial with ErrProtocol instead of hanging or mis-parsing;
// a client that opens with anything else is dropped by the listener, which
// keeps serving the clients that do.
func TestPreambleRejectsForeignPeers(t *testing.T) {
	for name, greet := range map[string]func(net.Conn){
		"old version": func(c net.Conn) { c.Write([]byte{'D', 'M', 'S', 'V', 0, 0, 0, 0}) },
		"http server": func(c net.Conn) { c.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n")) },
		// A gob server says nothing first, chokes on the preamble, hangs up.
		"gob server": func(c net.Conn) { io.ReadFull(c, make([]byte, 8)) },
	} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			greet(conn)
			conn.Close()
		}()
		if _, err := Dial(l.Addr().String()); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: Dial returned %v, want ErrProtocol", name, err)
		}
		l.Close()
	}

	_, sl := startWireServer(t)
	// A gob client's first bytes, and plain garbage.
	for _, hello := range [][]byte{{0x2a, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07, 0x52, 0x65, 0x71}, []byte("GET / HTTP/1.1\r\n\r\n")} {
		conn, err := net.Dial("tcp", sl.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(hello)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// The server's own preamble at most, then the connection ends (as
		// EOF, or as a reset when the hello was still unread).
		rest, err := io.ReadAll(conn)
		var ne net.Error
		if len(rest) > 8 || errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("foreign client %q: server sent %d bytes and %v, want its preamble and a close", hello[:4], len(rest), err)
		}
		conn.Close()
	}
	cl, err := Dial(sl.Addr())
	if err != nil {
		t.Fatalf("dial after foreign clients: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Status(1); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("call after foreign clients: %v", err)
	}
}

// serveBodyKinds are the bodies a serve socket can deliver, by the number
// the fuzz target and its seeds share.
const (
	bodySubmitArgs = iota
	bodyJobArgs
	bodyResultArgs
	bodySubmitReply
	bodyStatusReply
	bodyResultReply
	serveBodyKinds
)

// decodeServeBody runs the codec's own body decoder over one frame body.
func decodeServeBody(kind int, r io.Reader) error {
	if kind < bodySubmitReply {
		sc := newServerCodec(readOnlyConn{r}).(*serverCodec)
		if _, err := sc.fr.Next(); err != nil {
			return err
		}
		return sc.ReadRequestBody([]any{new(WireSubmitArgs), new(WireJobArgs), new(WireResultArgs)}[kind])
	}
	cc := newClientCodec(readOnlyConn{r}).(*clientCodec)
	if _, err := cc.fr.Next(); err != nil {
		return err
	}
	return cc.ReadResponseBody([]any{new(WireSubmitReply), new(WireStatusReply), new(WireResultReply)}[kind-bodySubmitReply])
}

type readOnlyConn struct{ io.Reader }

func (readOnlyConn) Write(p []byte) (int, error) { return len(p), nil }
func (readOnlyConn) Close() error                { return nil }

// serveSeedBodies encodes one valid body of every kind, without the frame
// prefix and the request/response header.
func serveSeedBodies(t testing.TB) map[int][]byte {
	a, b := wireOperands(1413)
	st := JobStatus{ID: 7, Tenant: "alpha", State: StateDone, Priority: -2, PlannedBytes: 1 << 20, Wait: time.Millisecond, Run: time.Second}
	bodies := map[int][]byte{}
	for kind, body := range map[int]any{
		bodySubmitArgs: &WireSubmitArgs{Tenant: "alpha", Priority: -1, A: a, B: b},
		bodyJobArgs:    &WireJobArgs{ID: 7},
		bodyResultArgs: &WireResultArgs{ID: 7, WaitMillis: 2000},
	} {
		frame := requestFrame(t, 0, "X", body)
		bodies[kind] = frame[4+1+1+len(wireServiceName+".X"):]
	}
	for kind, body := range map[int]any{
		bodySubmitReply: &WireSubmitReply{ID: 7},
		bodyStatusReply: &WireStatusReply{Status: st},
		bodyResultReply: &WireResultReply{Done: true, Status: st, C: b},
	} {
		conn := &bufConn{}
		if err := newServerCodec(conn).WriteResponse(&rpc.Response{ServiceMethod: "X"}, body); err != nil {
			t.Fatal(err)
		}
		bodies[kind] = conn.Bytes()[4+1+2+1:]
	}
	return bodies
}

func frameOf(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// typedWireError reports whether err is one a hostile serve frame may
// produce: a malformed frame or block, a checksum mismatch, or either of
// them reported as a rejected operand.
func typedWireError(err error) bool {
	return errors.Is(err, codec.ErrBadFrame) || errors.Is(err, codec.ErrChecksum) || errors.Is(err, ErrUnschedulable)
}

// TestServeBodiesRoundTripAndTruncation: every serve body decodes from its
// own encoding through a one-byte-at-a-time reader, and a frame that ends
// at any earlier byte is a typed error.
func TestServeBodiesRoundTripAndTruncation(t *testing.T) {
	for kind, body := range serveSeedBodies(t) {
		if err := decodeServeBody(kind, iotest.OneByteReader(bytes.NewReader(frameOf(body)))); err != nil {
			t.Fatalf("body kind %d: %v", kind, err)
		}
		for cut := 0; cut < len(body); cut++ {
			if err := decodeServeBody(kind, bytes.NewReader(frameOf(body[:cut]))); !typedWireError(err) {
				t.Fatalf("body kind %d cut at %d/%d: %v", kind, cut, len(body), err)
			}
		}
	}
	// The stream itself ending mid-frame is an error too, at every offset.
	full := frameOf(serveSeedBodies(t)[bodySubmitArgs])
	for cut := 0; cut < len(full); cut++ {
		if err := decodeServeBody(bodySubmitArgs, bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("stream cut at %d/%d decoded", cut, len(full))
		}
	}
}

// FuzzServeBodies drives arbitrary bytes through the serve socket's body
// decoders — submit, job and result requests; submit, status and result
// replies. Whatever arrives, the decoder returns a typed error, never
// panics, and allocates no more than the input could hold plus one read
// step.
func FuzzServeBodies(f *testing.F) {
	for kind, body := range serveSeedBodies(f) {
		f.Add(uint8(kind), body, uint32(0))
	}
	// A 2 GiB frame prefix over a dozen bytes: empty tenant, priority 0, a
	// 2^20-square matrix of 1x1 blocks, a hundred million of them listed.
	forged := append([]byte{0, 0, 0x80, 0x80, 0x40, 0x80, 0x80, 0x40, 1}, binary.AppendUvarint(nil, 100e6)...)
	f.Add(uint8(bodySubmitArgs), forged, uint32(codec.MaxFrameBytes))
	f.Fuzz(func(t *testing.T, kind uint8, body []byte, claim uint32) {
		// The prefix promises claim bytes more than ever arrive.
		promised := min(uint64(len(body))+uint64(claim), codec.MaxFrameBytes)
		raw := append(binary.LittleEndian.AppendUint32(nil, uint32(promised)), body...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeServeBody(int(kind)%serveBodyKinds, bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+1<<20+128<<10); alloc > limit {
			t.Fatalf("allocated %d bytes for %d bytes of input", alloc, len(raw))
		}
		short := promised > uint64(len(body)) && errors.Is(err, io.ErrUnexpectedEOF)
		if err != nil && !short && !typedWireError(err) {
			t.Fatalf("untyped error %v", err)
		}
	})
}
