package codec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The call layer under all three sockets — client↔distme-serve,
// driver↔worker, worker↔worker: one request/response multiplexer over the
// frames of frame.go. A connection opens with an 8-byte preamble each way;
// after it every message is one frame:
//
//	request:  uvarint seq, u8 method, args
//	response: uvarint seq, u8 code, str message, then the reply (CodeOK) or the code's fields
//
// A Client frames and writes requests under one lock and matches replies to
// their callers by seq on one read loop, so any number of goroutines share a
// connection. Serve decodes requests in arrival order on its read loop, runs
// them concurrently and writes the replies under one lock. Both stream a
// large frame in chunks while they encode it, under that lock, so frames
// never interleave. A body that fails to decode fails only its own call —
// the rest of its frame is drained — and each socket's ErrorTable carries
// its typed errors across as codes, so errors.Is works on the far side
// without reading the message. A frame whose sender failed after part of it
// had left ends with the abort marker: a request so ended is never run, and
// a reply so ended is followed by the error it failed with, in a frame of
// its own.

// CodeOK answers a call that succeeded; CodeOther one that failed with an
// error outside the socket's table, which crosses as its message alone.
// Table codes start above CodeOther.
const (
	CodeOK    byte = 0
	CodeOther byte = 1
)

// ErrProtocol reports a peer that did not open with the expected preamble:
// an older build, another protocol's socket, or a stray service on the port.
var ErrProtocol = errors.New("codec: peer does not speak this wire protocol")

// ErrClosed reports a call on, or interrupted by, a connection that has
// ended; the transport's own error follows it in the chain.
var ErrClosed = errors.New("codec: connection closed")

// Preamble opens every connection of one protocol, both ways: four magic
// bytes, the version as a little-endian u16, two zero bytes.
type Preamble [8]byte

// handshakeTimeout bounds the preamble exchange, so a peer that accepts the
// connection but speaks something else fails the dial instead of hanging it.
const handshakeTimeout = 5 * time.Second

// Handshake sends this side's preamble and checks the peer's. Both sides
// write first, so neither waits on the other to speak.
func Handshake(conn net.Conn, p Preamble) error {
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return err
	}
	if _, err := conn.Write(p[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	var theirs Preamble
	if _, err := io.ReadFull(conn, theirs[:]); err != nil {
		return fmt.Errorf("%w: no preamble: %v", ErrProtocol, err)
	}
	if theirs != p {
		return fmt.Errorf("%w: preamble %q, want %q", ErrProtocol, theirs[:], p[:])
	}
	return conn.SetDeadline(time.Time{})
}

// RemoteError is the error a server answered a call with: Msg is its text as
// the server printed it, Err what the socket's table decoded its code to — a
// sentinel or a typed error, nil for CodeOther — so errors.Is and errors.As
// see through it.
type RemoteError struct {
	Msg string
	Err error
}

func (e *RemoteError) Error() string { return e.Msg }
func (e *RemoteError) Unwrap() error { return e.Err }

// ErrorTable is one socket's closed set of typed errors. Code names err's
// code — CodeOther when the table has none for it — and returns the writer of
// the fields that code carries (nil for none); Decode reads a code's fields
// back into the error it stands for, failing with ErrBadFrame on a code
// outside the table.
type ErrorTable struct {
	Code   func(err error) (byte, func(*FrameWriter))
	Decode func(code byte, fields *FrameReader) (error, error)
}

// AppendError writes err as its code, its message and the code's fields.
func (t ErrorTable) AppendError(w *FrameWriter, err error) {
	code, fields := t.Code(err)
	w.Byte(code)
	w.Str(err.Error())
	if fields != nil {
		fields(w)
	}
}

// ReadError reads what AppendError wrote after the code, which the caller
// has read — the message and the code's fields — as a *RemoteError, or
// returns the error of a frame that does not parse.
func (t ErrorTable) ReadError(r *FrameReader, code byte) error {
	msg, err := r.Str()
	if err != nil {
		return err
	}
	re := &RemoteError{Msg: msg}
	if code != CodeOther {
		if re.Err, err = t.Decode(code, r); err != nil {
			return err
		}
	}
	return re
}

// Writes and Reads bind one body layout to its value, as Call's appendArgs
// and decodeReply.
func Writes[T any](appendBody func(*FrameWriter, *T) error, v *T) func(*FrameWriter) error {
	return func(w *FrameWriter) error { return appendBody(w, v) }
}

func Reads[T any](decode func(*FrameReader, *T) error, v *T) func(*FrameReader) error {
	return func(r *FrameReader) error { return decode(r, v) }
}

// ---------------------------------------------------------------------------
// Client side

// Client is the calling end of one connection.
type Client struct {
	conn io.ReadWriteCloser
	fr   *FrameReader
	errs ErrorTable
	// wmu covers framing and writing both, so frames leave in the order
	// appendArgs framed them: a caller may frame a reference to bytes an
	// earlier frame carried (the driver's digest tracker does).
	wmu sync.Mutex

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*pendingCall
	err     error         // why the connection ended; set once
	done    chan struct{} // closed when the read loop has exited
}

type pendingCall struct {
	decode func(*FrameReader) error
	done   chan error
}

// NewClient starts the read loop of a connection whose preamble has been
// exchanged; errs decodes the codes its server answers with.
func NewClient(conn io.ReadWriteCloser, errs ErrorTable) *Client {
	c := &Client{conn: conn, fr: NewFrameReader(conn), errs: errs,
		pending: map[uint64]*pendingCall{}, done: make(chan struct{})}
	go c.readLoop()
	return c
}

// Call sends one request — method, then what appendArgs frames — and waits
// for its reply, which decodeReply parses as it streams in (nil: the reply
// is drained unread). It fails with the server's *RemoteError; with
// decodeReply's error (only this call: the connection carries on); with
// ctx's error once ctx ends first (a reply that arrives later is drained);
// or with the transport's error, which ends the connection and every call on
// it. A request that cannot be framed — appendArgs fails, or
// ErrFrameTooLarge — fails with that error: the server never runs it, and the
// connection carries on.
func (c *Client) Call(ctx context.Context, method byte, appendArgs func(*FrameWriter) error, decodeReply func(*FrameReader) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	pc := &pendingCall{decode: decodeReply, done: make(chan error, 1)}
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return c.err
	}
	c.seq++
	seq := c.seq
	c.pending[seq] = pc
	c.mu.Unlock()

	c.wmu.Lock()
	w := BeginFrame()
	w.conn = c.conn
	w.Uvarint(seq)
	w.Byte(method)
	var err error
	if appendArgs != nil {
		err = appendArgs(&w)
	}
	broken, err := w.finish(err)
	if broken {
		c.fail(err) // a failed write may have left part of the frame on the wire
	}
	w.Release()
	c.wmu.Unlock()
	if err == nil {
		select {
		case err = <-pc.done:
			return err
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	c.take(seq)
	return err
}

// take removes a call from the pending table; nil for one already answered
// or abandoned.
func (c *Client) take(seq uint64) *pendingCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	pc := c.pending[seq]
	delete(c.pending, seq)
	return pc
}

func (c *Client) readLoop() {
	defer close(c.done)
	for {
		if err := c.readReply(); err != nil {
			c.fail(err)
			return
		}
	}
}

// readReply reads one response and hands it to its call. A header that does
// not parse ends the connection; a body that does not parse fails its call.
func (c *Client) readReply() error {
	fr := c.fr
	if err := fr.Next(); err != nil {
		return err
	}
	seq, err := fr.Uvarint()
	if err != nil {
		return err
	}
	code, err := fr.U8()
	if err != nil {
		return err
	}
	pc := c.take(seq)
	if pc == nil {
		return nil // abandoned, or never ours: the next Next drains it
	}
	var callErr error
	if code != CodeOK {
		callErr = c.errs.ReadError(fr, code)
	} else if _, callErr = fr.Str(); callErr == nil && pc.decode != nil {
		callErr = pc.decode(fr)
	}
	err = fr.Drain()
	if fr.aborted {
		// The server failed the reply after part of it had left; its error
		// follows under the same seq, unless the connection has ended.
		c.mu.Lock()
		if callErr = c.err; callErr == nil {
			c.pending[seq] = pc
		}
		c.mu.Unlock()
		if callErr == nil {
			return err
		}
	}
	pc.done <- callErr
	return err
}

// fail ends the connection: every pending call, and every later one, fails
// with the first cause.
func (c *Client) fail(cause error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = cause
		if !errors.Is(cause, ErrClosed) {
			c.err = fmt.Errorf("%w: %w", ErrClosed, cause)
		}
	}
	err, pending := c.err, c.pending
	c.pending = map[uint64]*pendingCall{}
	c.mu.Unlock()
	c.conn.Close()
	for _, pc := range pending {
		pc.done <- err
	}
}

// Close ends the connection and waits for the read loop to exit.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	<-c.done
	return nil
}

// ---------------------------------------------------------------------------
// Server side

// Handler serves one method. It decodes the request's args on the
// connection's read loop, in arrival order, and returns the call, which runs
// on a goroutine of its own.
type Handler func(args *FrameReader) (Call, error)

// Call runs one decoded request and returns the writer of its reply (nil
// for an empty one) or the error to answer with.
type Call func() (reply func(*FrameWriter) error, err error)

// Method builds a Handler from a method's three parts: decode fills the args
// (nil: the method takes none), run computes the reply, and reply frames it
// (nil: the reply is empty).
func Method[A, R any](decode func(*FrameReader, *A) error, run func(*A, *R) error, reply func(*FrameWriter, *R) error) Handler {
	return func(r *FrameReader) (Call, error) {
		args := new(A)
		if decode != nil {
			if err := decode(r, args); err != nil {
				return nil, err
			}
		}
		return func() (func(*FrameWriter) error, error) {
			rep := new(R)
			if err := run(args, rep); err != nil || reply == nil {
				return nil, err
			}
			return Writes(reply, rep), nil
		}, nil
	}
}

// Serve answers the calls that arrive on conn, whose preamble has been
// exchanged, until it fails or closes, then waits for the calls still
// running. handlers[m] serves method byte m; errs codes the errors they
// answer with. A request naming no handler, or whose args do not decode, is
// answered with the error and the connection carries on. The error is io.EOF
// when the peer hung up between frames.
func Serve(conn io.ReadWriter, handlers []Handler, errs ErrorTable) error {
	fr := NewFrameReader(conn)
	var wmu sync.Mutex // one reply at a time, all its chunks together
	var running sync.WaitGroup
	defer running.Wait()
	answer := func(seq uint64, reply func(*FrameWriter) error, err error) {
		wmu.Lock()
		defer wmu.Unlock()
		// A failed write ends the connection; the read loop sees it next.
		_ = writeResponse(conn, errs, seq, reply, err)
	}
	for {
		if err := fr.Next(); err != nil {
			return err
		}
		seq, err := fr.Uvarint()
		if err != nil {
			return err
		}
		method, err := fr.U8()
		if err != nil {
			return err
		}
		var call Call
		if int(method) < len(handlers) && handlers[method] != nil {
			call, err = handlers[method](fr)
		} else {
			err = fmt.Errorf("codec: unknown method %d", method)
		}
		if derr := fr.Drain(); derr != nil {
			return derr
		}
		if fr.aborted {
			continue // the caller has failed it already
		}
		if err != nil {
			answer(seq, nil, err)
			continue
		}
		running.Add(1)
		go func() {
			defer running.Done()
			reply, err := call()
			answer(seq, reply, err)
		}()
	}
}

// writeResponse frames one response, streaming it. A reply that cannot be
// framed (reply fails, or the frame would pass MaxFrameBytes) is answered as
// that error instead — after the abort marker, if part of it has left — so
// the caller fails now rather than at its deadline.
func writeResponse(conn io.Writer, errs ErrorTable, seq uint64, reply func(*FrameWriter) error, err error) error {
	w := BeginFrame()
	defer w.Release()
	if err == nil {
		w.conn = conn
		w.Uvarint(seq)
		w.Byte(CodeOK)
		w.Str("")
		if reply != nil {
			err = reply(&w)
		}
		var broken bool
		if broken, err = w.finish(err); err == nil || broken {
			return err
		}
		w.Reset()
	}
	w.Uvarint(seq)
	errs.AppendError(&w, err)
	return w.Flush(conn)
}

// Listener answers the connections a net.Listener accepts — preambles
// exchanged, then Serve — until Close.
type Listener struct {
	l     net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{} // nil once closed
	done  chan struct{}         // closed when the accept loop has exited
}

// Listen serves one socket's handlers on every connection l accepts; a peer
// that opens with anything but p is dropped before a byte of it is parsed as
// a frame.
func Listen(l net.Listener, p Preamble, handlers []Handler, errs ErrorTable) *Listener {
	sl := &Listener{l: l, conns: map[net.Conn]struct{}{}, done: make(chan struct{})}
	go func() {
		defer close(sl.done)
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			sl.mu.Lock()
			open := sl.conns != nil
			if open {
				sl.conns[conn] = struct{}{}
			}
			sl.mu.Unlock()
			if !open {
				conn.Close()
				continue
			}
			go func() {
				if Handshake(conn, p) == nil {
					_ = Serve(conn, handlers, errs)
				}
				sl.mu.Lock()
				delete(sl.conns, conn)
				sl.mu.Unlock()
				conn.Close()
			}()
		}
	}()
	return sl
}

// Addr is the listener's bound address.
func (sl *Listener) Addr() string { return sl.l.Addr().String() }

// Close stops accepting and closes every open connection; it is idempotent.
func (sl *Listener) Close() {
	sl.l.Close()
	<-sl.done
	sl.mu.Lock()
	conns := sl.conns
	sl.conns = nil
	sl.mu.Unlock()
	for c := range conns {
		c.Close()
	}
}
