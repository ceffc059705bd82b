package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/distnet"
	"distme/internal/matrix"
)

// wireOperands is a small pair exercising both record kinds: A sparse (index
// structure plus a folded tail), B one dense 4.5 KiB block (a zero-copy cut).
func wireOperands(seed int64) (a, b *bmat.BlockMatrix) {
	rng := rand.New(rand.NewSource(seed))
	return bmat.RandomSparse(rng, 48, 24, 24, 0.1), bmat.RandomDense(rng, 24, 24, 24)
}

// requestFrame frames one request as Client does — uvarint seq, method byte,
// args — and returns the whole frame, length prefix included.
func requestFrame(t testing.TB, seq uint64, method byte, args func(*codec.FrameWriter) error) []byte {
	t.Helper()
	w := codec.BeginFrame()
	defer w.Release()
	w.Uvarint(seq)
	w.Byte(method)
	if err := args(&w); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// matrixFrame hand-builds a Submit frame whose A operand is written by
// writeA; B is a valid 8×8 matrix.
func matrixFrame(t testing.TB, seq uint64, writeA func(w *codec.FrameWriter)) []byte {
	t.Helper()
	return requestFrame(t, seq, methodSubmit, func(w *codec.FrameWriter) error {
		w.Str("")
		w.Varint(0)
		writeA(w)
		return appendMatrix(w, bmat.RandomDense(rand.New(rand.NewSource(1)), 8, 8, 8))
	})
}

// rawServeConn dials the listener and completes the preamble by hand.
func rawServeConn(t *testing.T, addr string) (net.Conn, *codec.FrameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := codec.Handshake(conn, servePreamble); err != nil {
		t.Fatal(err)
	}
	return conn, codec.NewFrameReader(conn)
}

// exchange writes one raw frame and decodes the response header.
func exchange(t *testing.T, conn net.Conn, rd *codec.FrameReader, frame []byte) (seq uint64, code byte, msg string) {
	t.Helper()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatalf("no response: %v", err)
	}
	seq, err1 := rd.Uvarint()
	code, err2 := rd.U8()
	msg, err3 := rd.Str()
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatalf("response header: %v", err)
	}
	return seq, code, msg
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
// implausible header, a forged block length, and a checksummed record under a
// retired fp32 or XOR tag (6, 11) each come back as
// ErrUnschedulable's code — and after every one of them a good submit on the
// same connection runs to completion. Removing any of the checks lets its
// frame through as an admitted job.
func TestHostileOperandFrames(t *testing.T) {
	_, sl := startWireServer(t)
	conn, rd := rawServeConn(t, sl.Addr())
	a, b := wireOperands(1410)
	good := func(seq uint64) []byte {
		return requestFrame(t, seq, methodSubmit, codec.Writes(appendSubmitArgs, &submitArgs{a: a, b: b}))
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
		if err := w.AppendBlockCRC(b); err != nil {
			t.Fatal(err)
		}
	}
	// An A of one 8×8 block, its record under tag: admitted under TagDense.
	retired := func(tag uint8) []byte {
		payload, _, err := codec.AppendWire(nil, matrix.RandomDense(rand.New(rand.NewSource(1412)), 8, 8))
		if err != nil {
			t.Fatal(err)
		}
		return matrixFrame(t, 0, func(w *codec.FrameWriter) {
			header(w, 8, 8, 8, 1)
			w.Uvarint(0)
			w.Uvarint(0)
			w.Byte(tag)
			w.Bytes(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))))
			w.Bytes(payload)
			w.Bytes(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)))
		})
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
		"retired fp32 tag": retired(6),
		"retired xor tag":  retired(11),
	}
	unschedulable, _ := serveErrorCode(ErrUnschedulable)
	seq := uint64(1)
	for name, frame := range hostile {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, code, msg := exchange(t, conn, rd, frame)
		runtime.ReadMemStats(&after)
		if code != unschedulable {
			t.Fatalf("%s: server answered code %d %q, want ErrUnschedulable's %d", name, code, msg, unschedulable)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Fatalf("%s: %d bytes allocated while rejecting a %d-byte frame", name, alloc, len(frame))
		}
		if got, code, msg := exchange(t, conn, rd, good(seq)); got != seq || code != codec.CodeOK {
			t.Fatalf("good submit after %q: seq %d, code %d %q", name, got, code, msg)
		}
		seq++
	}
	// A method byte no handler serves has its body drained, not parsed.
	unknown := good(seq)
	unknown[4+1] = 0xee // after the length prefix and the one-byte seq
	if _, code, _ := exchange(t, conn, rd, unknown); code == codec.CodeOK {
		t.Fatal("unknown method byte accepted")
	}
	if _, code, msg := exchange(t, conn, rd, good(seq)); code != codec.CodeOK {
		t.Fatalf("good submit after an unknown method byte: code %d %q", code, msg)
	}
}

// TestWireErrorsStayTyped: what TestHostileOperandFrames sees as codes a
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
// preamble (an old-version distme-serve, a distnet worker, an unrelated
// service, one that says nothing) fails Dial with ErrProtocol instead of
// hanging or mis-parsing; a client that opens with anything else — a serve
// client at a worker port included — is dropped by the listener, which keeps
// serving the clients that do.
func TestPreambleRejectsForeignPeers(t *testing.T) {
	for name, greet := range map[string]func(net.Conn){
		"old version": func(c net.Conn) { c.Write([]byte{'D', 'M', 'S', 'V', 1, 0, 0, 0}) },
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

	// A worker port opens with the worker socket's own preamble: each side
	// refuses the other's.
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := distnet.Serve(wl)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown(context.Background())
	if _, err := Dial(wl.Addr().String()); !errors.Is(err, ErrProtocol) {
		t.Fatalf("serve client at a worker port: %v, want ErrProtocol", err)
	}

	_, sl := startWireServer(t)
	// A gob client's first bytes, plain garbage, and a serve client's own
	// preamble sent to the worker.
	for _, foreign := range []struct {
		addr  string
		hello []byte
	}{
		{sl.Addr(), []byte{0x2a, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07, 0x52, 0x65, 0x71}},
		{sl.Addr(), []byte("GET / HTTP/1.1\r\n\r\n")},
		{wl.Addr().String(), servePreamble[:]},
	} {
		hello := foreign.hello
		conn, err := net.Dial("tcp", foreign.addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(hello)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// The peer's own preamble at most, then the connection ends (as
		// EOF, or as a reset when the hello was still unread).
		rest, err := io.ReadAll(conn)
		var ne net.Error
		if len(rest) > 8 || errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("foreign client %q: peer sent %d bytes and %v, want its preamble and a close", hello[:4], len(rest), err)
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

// decodeBody runs the body decoder of kind.
func decodeBody(kind int, rd *codec.FrameReader) error {
	switch kind {
	case bodySubmitArgs:
		return readSubmitArgs(rd, new(submitArgs))
	case bodyJobArgs, bodySubmitReply:
		return readID(rd, new(JobID))
	case bodyResultArgs:
		return readResultArgs(rd, new(resultArgs))
	case bodyStatusReply:
		return readStatus(rd, new(JobStatus))
	default:
		return readResultReply(rd, new(resultReply))
	}
}

// decodeServeBody runs kind's body decoder over one frame read from r.
func decodeServeBody(kind int, r io.Reader) error {
	rd := codec.NewFrameReader(r)
	if _, err := rd.Next(); err != nil {
		return err
	}
	return decodeBody(kind, rd)
}

// serveSeedBodies encodes one valid body of every kind, without the frame
// prefix and the request/response header.
func serveSeedBodies(t testing.TB) map[int][]byte {
	a, b := wireOperands(1413)
	st := JobStatus{ID: 7, Tenant: "alpha", State: StateDone, Priority: -2, PlannedBytes: 1 << 20, Wait: time.Millisecond, Run: time.Second}
	id := JobID(7)
	bodies := map[int][]byte{}
	for kind, fill := range map[int]func(*codec.FrameWriter) error{
		bodySubmitArgs:  codec.Writes(appendSubmitArgs, &submitArgs{tenant: "alpha", priority: -1, a: a, b: b}),
		bodyJobArgs:     codec.Writes(appendID, &id),
		bodyResultArgs:  codec.Writes(appendResultArgs, &resultArgs{id: 7, waitMillis: 2000}),
		bodySubmitReply: codec.Writes(appendID, &id),
		bodyStatusReply: codec.Writes(appendStatus, &st),
		bodyResultReply: codec.Writes(appendResultReply, &resultReply{done: true, status: st, c: b}),
	} {
		w := codec.BeginFrame()
		if err := fill(&w); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := w.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		w.Release()
		bodies[kind] = buf.Bytes()[4:]
	}
	return bodies
}

func frameOf(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// typedWireError reports whether err is one a hostile serve frame may
// produce: a malformed frame or block, a checksum mismatch, either of them
// reported as a rejected operand, a coded answer, or a connection ended on a
// bad header.
func typedWireError(err error) bool {
	var re *codec.RemoteError
	return errors.Is(err, codec.ErrBadFrame) || errors.Is(err, codec.ErrChecksum) || errors.Is(err, ErrUnschedulable) ||
		errors.Is(err, codec.ErrClosed) || errors.As(err, &re)
}

// TestServeBodiesRoundTripAndTruncation: every serve body decodes from its
// own encoding through a one-byte-at-a-time reader, and a frame that ends
// at any earlier byte is a typed error; behind its header, as a whole frame,
// it reaches the read loop's decoder and decodes there too.
func TestServeBodiesRoundTripAndTruncation(t *testing.T) {
	for kind, body := range serveSeedBodies(t) {
		if err := decodeServeBody(kind, iotest.OneByteReader(bytes.NewReader(frameOf(body)))); err != nil {
			t.Fatalf("body kind %d: %v", kind, err)
		}
		if err := deliverFrame(kind, frameOf(wholeFrame(kind, body))); err != nil {
			t.Fatalf("body kind %d as a whole frame: %v", kind, err)
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

// A whole frame a serve socket delivers reaches one of two read loops.
// Request kinds reach the server's: the method byte picks the args decoder,
// which runs — its call does not. Reply kinds reach a client's, as the
// answer to one pending call (seq 1) whose reply decodes as kind.

// requestMethods is the method byte each request kind travels under.
var requestMethods = map[int]byte{bodySubmitArgs: methodSubmit, bodyJobArgs: methodStatus, bodyResultArgs: methodResult}

// wholeFrame puts body behind the header it travels with: seq 1 and its
// method for a request, seq 1 and CodeOK for a reply.
func wholeFrame(kind int, body []byte) []byte {
	if m, ok := requestMethods[kind]; ok {
		return append([]byte{1, m}, body...)
	}
	return append([]byte{1, codec.CodeOK, 0}, body...)
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
		c := codec.NewClient(&gatedConn{raw: bytes.NewReader(raw), sent: make(chan struct{})}, serveErrors)
		defer c.Close()
		err := c.Call(context.Background(), methodStatus, nil, func(rd *codec.FrameReader) error { return decodeBody(kind, rd) })
		if errors.Is(err, codec.ErrClosed) && errors.Is(err, io.EOF) {
			return nil // the reply was not the call's, and drained
		}
		return err
	}
	var decodeErr error
	handlers := (&Server{}).handlers()
	for m, h := range handlers {
		handlers[m] = func(rd *codec.FrameReader) (codec.Call, error) {
			_, err := h(rd)
			if decodeErr == nil {
				decodeErr = err
			}
			return func() (func(*codec.FrameWriter) error, error) { return nil, nil }, err
		}
	}
	loopErr := codec.Serve(&gatedConn{raw: bytes.NewReader(raw)}, handlers, serveErrors)
	if loopErr == io.EOF {
		loopErr = nil
	}
	return errors.Join(decodeErr, loopErr)
}

// FuzzServeBodies drives arbitrary frames, header included, through both
// read loops of a serve socket: requests — method byte, then the submit, job
// and result decoders — through the server's, replies — seq, error code and
// its fields, then the submit, status and result decoders — through a
// client's. Whatever arrives comes back as a typed error, never a panic, and
// allocates no more than the input could hold plus one read step.
func FuzzServeBodies(f *testing.F) {
	for kind, body := range serveSeedBodies(f) {
		f.Add(uint8(kind), wholeFrame(kind, body), uint32(0))
	}
	// A 2 GiB frame prefix over a dozen bytes: empty tenant, priority 0, a
	// 2^20-square matrix of 1x1 blocks, a hundred million of them listed.
	forged := append([]byte{0, 0, 0x80, 0x80, 0x40, 0x80, 0x80, 0x40, 1}, binary.AppendUvarint(nil, 100e6)...)
	f.Add(uint8(bodySubmitArgs), wholeFrame(bodySubmitArgs, forged), uint32(codec.MaxFrameBytes))
	// Headers only a header makes hostile: a method byte no handler serves, a
	// reply for a call nobody made, an error code outside the table, and a
	// queue-full answer whose fields end early.
	f.Add(uint8(bodySubmitArgs), []byte{1, 0xee, 0}, uint32(0))
	f.Add(uint8(bodyStatusReply), []byte{9, codec.CodeOK, 0}, uint32(0))
	f.Add(uint8(bodyStatusReply), []byte{1, 0xee, 1, 'x'}, uint32(0))
	f.Add(uint8(bodyStatusReply), []byte{1, codeQueueFull, 0, 1, 'a'}, uint32(0))
	f.Fuzz(func(t *testing.T, kind uint8, frame []byte, claim uint32) {
		// The prefix promises claim bytes more than ever arrive.
		promised := min(uint64(len(frame))+uint64(claim), codec.MaxFrameBytes)
		raw := append(binary.LittleEndian.AppendUint32(nil, uint32(promised)), frame...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := deliverFrame(int(kind)%serveBodyKinds, raw)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+1<<20+128<<10); alloc > limit {
			t.Fatalf("allocated %d bytes for %d bytes of input", alloc, len(raw))
		}
		short := promised > uint64(len(frame)) && errors.Is(err, io.ErrUnexpectedEOF)
		if err != nil && !short && !typedWireError(err) {
			t.Fatalf("untyped error %v", err)
		}
	})
}

// fakeServer serves the serve protocol with one handler, for the client side
// of the socket: every call of method answers with the next of answers.
func fakeServer(t *testing.T, method byte, answers ...func() (func(*codec.FrameWriter) error, error)) *Client {
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
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if codec.Handshake(conn, servePreamble) == nil {
			codec.Serve(conn, handlers, serveErrors)
		}
	}()
	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestBadReplyBodyThenGoodCall: a result reply whose body is torn — mid-block,
// or at its first byte — fails that call with a typed error; the next call on
// the same client succeeds, with the product intact.
func TestBadReplyBodyThenGoodCall(t *testing.T) {
	good := serveSeedBodies(t)[bodyResultReply]
	torn := append([]byte(nil), good...)
	torn[len(torn)-10] ^= 0x01 // inside the product's last block's values
	raw := func(body []byte) func() (func(*codec.FrameWriter) error, error) {
		return func() (func(*codec.FrameWriter) error, error) {
			return func(w *codec.FrameWriter) error { w.Bytes(body); return nil }, nil
		}
	}
	cl := fakeServer(t, methodResult, raw(torn), raw(good), raw(nil), raw(good))
	_, want := wireOperands(1413)
	for _, name := range []string{"mid-block", "first byte"} {
		if _, _, err := cl.Result(context.Background(), 7); !typedWireError(err) {
			t.Fatalf("reply torn %s: %v, want a typed error", name, err)
		}
		c, st, err := cl.Result(context.Background(), 7)
		if err != nil || st.ID != 7 {
			t.Fatalf("call after a reply torn %s: %v, status %+v", name, err, st)
		}
		if !c.ToDense().Equal(want.ToDense()) {
			t.Fatalf("call after a reply torn %s: product differs", name)
		}
	}
}

// TestServeErrorsRoundTrip: every code of the serve table, raised by a
// server, matches its sentinel — and no other — with errors.Is at the
// client; a queue-full answer keeps its tenant and retry-after hint exactly,
// and an error outside the table crosses as its message alone.
func TestServeErrorsRoundTrip(t *testing.T) {
	queueFull := &QueueFullError{Tenant: "tiny", RetryAfter: 1234567 * time.Nanosecond}
	raised := []error{
		queueFull,
		fmt.Errorf("%w: %q planned bytes 1 + 2 over cap 2", ErrQuotaExceeded, "alpha"),
		fmt.Errorf("%w: operand A: bad", ErrUnschedulable),
		fmt.Errorf("%w: %q", ErrUnknownTenant, "nobody"),
		fmt.Errorf("%w: %d", ErrUnknownJob, 7),
		ErrServerClosed,
		context.Canceled,
	}
	var answers []func() (func(*codec.FrameWriter) error, error)
	for _, err := range raised {
		answers = append(answers, func() (func(*codec.FrameWriter) error, error) { return nil, err })
	}
	cl := fakeServer(t, methodStatus, answers...)
	for _, want := range raised {
		_, err := cl.Status(7)
		var re *codec.RemoteError
		if !errors.As(err, &re) || re.Msg != want.Error() {
			t.Fatalf("%v: got %v, want the server's answer", want, err)
		}
		for _, sentinel := range serveSentinels {
			if errors.Is(err, sentinel) != errors.Is(want, sentinel) {
				t.Errorf("%v: errors.Is(%v) is %v at the client", want, sentinel, errors.Is(err, sentinel))
			}
		}
		if want == context.Canceled && re.Err != nil {
			t.Errorf("%v: an error outside the table decoded to %v", want, re.Err)
		}
	}
	_, err := raisedQueueFull(t, queueFull)
	var qf *QueueFullError
	if !errors.As(err, &qf) || *qf != *queueFull {
		t.Fatalf("queue full over the wire: %v, want %+v", err, queueFull)
	}
}

// raisedQueueFull is one call answered with qf.
func raisedQueueFull(t *testing.T, qf *QueueFullError) (JobStatus, error) {
	cl := fakeServer(t, methodStatus, func() (func(*codec.FrameWriter) error, error) { return nil, qf })
	return cl.Status(1)
}
