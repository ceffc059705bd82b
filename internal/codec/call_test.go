package codec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errTest = errors.New("codec test: refused")

// testErrors codes errTest as CodeOther+1, carrying one uvarint field.
var testErrors = ErrorTable{
	Code: func(err error) (byte, func(*FrameWriter)) {
		if errors.Is(err, errTest) {
			return CodeOther + 1, func(w *FrameWriter) { w.Uvarint(42) }
		}
		return CodeOther, nil
	},
	Decode: func(code byte, r *FrameReader) (error, error) {
		if code != CodeOther+1 {
			return nil, fmt.Errorf("%w: code %d", ErrBadFrame, code)
		}
		if v, err := r.Uvarint(); err != nil || v != 42 {
			return nil, fmt.Errorf("%w: field %d (%v)", ErrBadFrame, v, err)
		}
		return errTest, nil
	},
}

// echo and putUvarint are a one-uvarint body's two halves.
func echo(r *FrameReader, v *uint64) (err error) {
	*v, err = r.Uvarint()
	return err
}

func putUvarint(w *FrameWriter, v *uint64) error {
	w.Uvarint(*v)
	return nil
}

// pipeClient serves handlers on one end of an in-memory connection and
// returns a client on the other; both close with the test.
func pipeClient(t *testing.T, handlers []Handler) *Client {
	t.Helper()
	near, far := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(far, handlers, testErrors)
		far.Close()
	}()
	c := NewClient(near, testErrors)
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return c
}

func call(c *Client, ctx context.Context, v uint64) (uint64, error) {
	var got uint64
	err := c.Call(ctx, 0, Writes(putUvarint, &v), Reads(echo, &got))
	return got, err
}

// TestCallsShareOneConnection: calls from many goroutines interleave on one
// connection, their replies come back out of order, and each call gets its
// own; a refusal crosses as its coded sentinel, fields read back.
func TestCallsShareOneConnection(t *testing.T) {
	c := pipeClient(t, []Handler{Method(echo, func(v, out *uint64) error {
		if *v == 0 {
			return fmt.Errorf("wrapped: %w", errTest)
		}
		time.Sleep(time.Duration(*v%5) * time.Millisecond) // replies overtake each other
		*out = *v + 1
		return nil
	}, putUvarint)})
	var wg sync.WaitGroup
	for g := uint64(1); g <= 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 8; i++ {
				v := g*100 + i
				if got, err := call(c, context.Background(), v); err != nil || got != v+1 {
					t.Errorf("call %d: %d, %v", v, got, err)
				}
			}
		}()
	}
	wg.Wait()
	_, err := call(c, context.Background(), 0)
	var re *RemoteError
	if !errors.As(err, &re) || !errors.Is(err, errTest) || re.Msg != "wrapped: "+errTest.Error() {
		t.Fatalf("refusal: %v, want errTest with the server's message", err)
	}
}

// TestUnknownMethodAndBadArgs: a method byte no handler serves and args that
// do not decode are answered as errors, and the connection carries on.
func TestUnknownMethodAndBadArgs(t *testing.T) {
	c := pipeClient(t, []Handler{Method(echo, func(v, out *uint64) error { *out = *v; return nil }, putUvarint)})
	var re *RemoteError
	if err := c.Call(context.Background(), 9, nil, nil); !errors.As(err, &re) || re.Err != nil {
		t.Fatalf("unknown method: %v", err)
	}
	bad := func(w *FrameWriter) error {
		w.Bytes([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
		return nil
	}
	if err := c.Call(context.Background(), 0, bad, nil); !errors.As(err, &re) {
		t.Fatalf("undecodable args: %v", err)
	}
	if got, err := call(c, context.Background(), 5); err != nil || got != 5 {
		t.Fatalf("call after the bad ones: %d, %v", got, err)
	}
}

// TestAbandonedCall: a call whose deadline expires first fails with the
// context's error and leaves no pending entry; its reply, when it comes, is
// drained, the next call succeeds, and Close leaves no goroutine behind.
func TestAbandonedCall(t *testing.T) {
	census := runtime.NumGoroutine()
	t.Run("call", func(t *testing.T) {
		release := make(chan struct{})
		c := pipeClient(t, []Handler{Method(echo, func(v, out *uint64) error {
			if *v == 1 {
				<-release
			}
			*out = *v
			return nil
		}, putUvarint)})
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := call(c, ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("stalled call: %v, want DeadlineExceeded", err)
		}
		c.mu.Lock()
		left := len(c.pending)
		c.mu.Unlock()
		if left != 0 {
			t.Fatalf("%d pending entries after the deadline", left)
		}
		close(release) // the late reply arrives and is drained
		for i := uint64(2); i < 5; i++ {
			if got, err := call(c, context.Background(), i); err != nil || got != i {
				t.Fatalf("call after the abandoned one: %d, %v", got, err)
			}
		}
	})
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > census {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d running, census was %d", runtime.NumGoroutine(), census)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTransportErrorFailsEveryCall: the connection ending fails every
// pending call at once, and every later one, with ErrClosed.
func TestTransportErrorFailsEveryCall(t *testing.T) {
	stall := make(chan struct{})
	defer close(stall)
	near, far := net.Pipe()
	go Serve(far, []Handler{Method(echo, func(v, out *uint64) error { <-stall; return nil }, putUvarint)}, testErrors)
	c := NewClient(near, testErrors)
	defer c.Close()
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := call(c, context.Background(), 1)
			errs <- err
		}()
	}
	for {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n == 4 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	far.Close()
	for i := 0; i < 4; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Fatalf("pending call: %v, want ErrClosed", err)
		}
	}
	if _, err := call(c, context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after the connection ended: %v", err)
	}
}

// TestReplyTooLargeIsAnswered: a reply that cannot be framed is answered as
// ErrFrameTooLarge's message, so the caller fails at once; a request that
// cannot be framed is refused before a byte of it leaves.
func TestReplyTooLargeIsAnswered(t *testing.T) {
	big := make([]byte, 64<<10)
	huge := func(w *FrameWriter) error {
		for i := 0; i < MaxFrameBytes/len(big)+1; i++ {
			w.tail(big) // no record ends, so nothing streams
		}
		return nil
	}
	c := pipeClient(t, []Handler{func(*FrameReader) (Call, error) {
		return func() (func(*FrameWriter) error, error) { return huge, nil }, nil
	}})
	var re *RemoteError
	if err := c.Call(context.Background(), 0, nil, nil); !errors.As(err, &re) {
		t.Fatalf("oversized reply: %v, want the server's answer", err)
	}
	if err := c.Call(context.Background(), 0, huge, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized request: %v, want ErrFrameTooLarge", err)
	}
	if err := c.Call(context.Background(), 0, nil, nil); !errors.As(err, &re) {
		t.Fatalf("call after the refused request: %v", err)
	}
}

// TestAbortedFramesFailWithSendersError: a request whose encoding fails
// after a chunk has left fails with the encoder's error and is never run; a
// reply that fails the same way reaches its caller as the server's coded
// answer, not as a torn body. The connection carries on after either.
func TestAbortedFramesFailWithSendersError(t *testing.T) {
	big := randDense(rand.New(rand.NewSource(17)), 200, 200) // 320 KB: one chunk
	var runs atomic.Int32
	readBig := func(r *FrameReader, v *uint64) error {
		if _, _, err := r.ReadBlock(); err != nil {
			return err
		}
		return echo(r, v)
	}
	c := pipeClient(t, []Handler{
		Method(readBig, func(v, out *uint64) error {
			runs.Add(1)
			*out = *v
			return nil
		}, putUvarint),
		Method(nil, func(_, _ *struct{}) error { return nil }, func(w *FrameWriter, _ *struct{}) error {
			if _, err := w.AppendBlock(big); err != nil {
				return err
			}
			return fmt.Errorf("reply: %w", errTest)
		}),
	})
	appendBig := func(fail bool) func(*FrameWriter) error {
		return func(w *FrameWriter) error {
			if _, err := w.AppendBlock(big); err != nil {
				return err
			}
			if fail {
				return errTest
			}
			w.Uvarint(5)
			return nil
		}
	}
	for round := 0; round < 2; round++ {
		if err := c.Call(context.Background(), 0, appendBig(true), nil); err != errTest {
			t.Fatalf("aborted request: %v, want the encoder's error", err)
		}
		var re *RemoteError
		if err := c.Call(context.Background(), 1, nil, nil); !errors.As(err, &re) || !errors.Is(err, errTest) {
			t.Fatalf("aborted reply: %v, want the server's coded answer", err)
		}
		var got uint64
		if err := c.Call(context.Background(), 0, appendBig(false), Reads(echo, &got)); err != nil || got != 5 {
			t.Fatalf("call after the aborted frames: %d, %v", got, err)
		}
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("handler ran %d times, want 2: an aborted request must not run", n)
	}
}

// TestHandshake: matching preambles pass, any other fails with ErrProtocol.
func TestHandshake(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, theirs := range []Preamble{Preamble{'T', 'E', 'S', 'T', 1}, Preamble{'T', 'E', 'S', 'T', 2}, Preamble{'A', 'B', 'C', 'D', 1}} {
		go func() {
			if conn, err := l.Accept(); err == nil {
				Handshake(conn, theirs)
				conn.Close()
			}
		}()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		ours := Preamble{'T', 'E', 'S', 'T', 1}
		err = Handshake(conn, ours)
		if (err == nil) != (theirs == ours) || err != nil && !errors.Is(err, ErrProtocol) {
			t.Errorf("peer %q: %v", theirs[:], err)
		}
		conn.Close()
	}
}
