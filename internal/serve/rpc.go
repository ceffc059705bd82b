package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"time"

	"distme/internal/bmat"
)

// The wire API: net/rpc over the frame codec of wire.go. Operands and the
// product cross the socket as checksummed block records written from, and
// read into, the matrices' own storage. Typed rejections cross as
// rpc.ServerError text; Client maps them back to the package sentinels (and
// re-parses QueueFullError's retry-after hint), so callers branch with
// errors.Is on either side of the wire.

// wireServiceName is the registered net/rpc service.
const wireServiceName = "DistMEServe"

// maxResultWait bounds one server-side Result wait so a single RPC never
// parks forever; clients poll in maxResultWait windows.
const maxResultWait = 2 * time.Second

// RPC is the exported net/rpc receiver wrapping a Server.
type RPC struct{ s *Server }

// WireSubmitArgs is Submit over the wire.
type WireSubmitArgs struct {
	Tenant   string
	Priority int
	A, B     *bmat.BlockMatrix
}

// WireSubmitReply returns the job ID.
type WireSubmitReply struct{ ID uint64 }

// Submit admits the job the codec decoded.
func (r *RPC) Submit(args *WireSubmitArgs, reply *WireSubmitReply) error {
	id, err := r.s.Submit(SubmitRequest{Tenant: args.Tenant, Priority: args.Priority, A: args.A, B: args.B})
	if err != nil {
		return err
	}
	reply.ID = uint64(id)
	return nil
}

// WireJobArgs names a job for Status, Cancel and Forget; WireEmptyReply is
// what the latter two answer.
type WireJobArgs struct{ ID uint64 }
type WireEmptyReply struct{}

// WireStatusReply carries a job's snapshot.
type WireStatusReply struct{ Status JobStatus }

// Status snapshots a job.
func (r *RPC) Status(args *WireJobArgs, reply *WireStatusReply) error {
	st, err := r.s.Status(JobID(args.ID))
	if err != nil {
		return err
	}
	reply.Status = st
	return nil
}

// WireResultArgs asks for a job's result, waiting server-side up to
// WaitMillis (clamped to a bound) for it to finish.
type WireResultArgs struct {
	ID         uint64
	WaitMillis int64
}

// WireResultReply reports Done=false when the wait expired first; when
// Done, C is the product for successful jobs — the matrix the server
// retains, framed without a copy — and Status carries the terminal state
// (failures arrive as RPC errors instead).
type WireResultReply struct {
	Done   bool
	Status JobStatus
	C      *bmat.BlockMatrix
}

// Result waits (bounded) for the job and returns its product.
func (r *RPC) Result(args *WireResultArgs, reply *WireResultReply) error {
	wait := time.Duration(args.WaitMillis) * time.Millisecond
	if wait <= 0 || wait > maxResultWait {
		wait = maxResultWait
	}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	c, st, err := r.s.Result(ctx, JobID(args.ID))
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Not finished inside the window: report progress, not an error.
			if st, serr := r.s.Status(JobID(args.ID)); serr == nil {
				reply.Status = st
			}
			return nil
		}
		return err
	}
	reply.Done, reply.Status, reply.C = true, st, c
	return nil
}

// Cancel stops a job.
func (r *RPC) Cancel(args *WireJobArgs, reply *WireEmptyReply) error {
	return r.s.Cancel(JobID(args.ID))
}

// Forget releases a terminal job's record and product; an ID the server
// does not hold is ErrUnknownJob.
func (r *RPC) Forget(args *WireJobArgs, reply *WireEmptyReply) error {
	return r.s.forget(JobID(args.ID))
}

// Listener serves the wire API on a net.Listener until closed.
type Listener struct {
	l    net.Listener
	mu   sync.Mutex
	conn map[net.Conn]struct{}
	done chan struct{}
}

// ServeListener exposes the server's wire API on l. The returned Listener's
// Close stops accepting and drops open connections; the Server itself stays
// up.
func ServeListener(s *Server, l net.Listener) (*Listener, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName(wireServiceName, &RPC{s: s}); err != nil {
		return nil, fmt.Errorf("serve: register: %w", err)
	}
	sl := &Listener{l: l, conn: map[net.Conn]struct{}{}, done: make(chan struct{})}
	go func() {
		defer close(sl.done)
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			sl.mu.Lock()
			sl.conn[conn] = struct{}{}
			sl.mu.Unlock()
			go func(conn net.Conn) {
				// A peer that opens with anything but the preamble is
				// dropped before a byte of it is parsed as a frame.
				if handshake(conn) == nil {
					srv.ServeCodec(newServerCodec(conn))
				}
				sl.mu.Lock()
				delete(sl.conn, conn)
				sl.mu.Unlock()
				conn.Close()
			}(conn)
		}
	}()
	return sl, nil
}

// Addr is the listener's bound address.
func (sl *Listener) Addr() string { return sl.l.Addr().String() }

// Close stops accepting and closes open connections.
func (sl *Listener) Close() {
	sl.l.Close()
	<-sl.done
	sl.mu.Lock()
	for c := range sl.conn {
		c.Close()
	}
	sl.conn = map[net.Conn]struct{}{}
	sl.mu.Unlock()
}

// Client is the caller side of the wire API.
type Client struct{ c *rpc.Client }

// Dial connects to a serving endpoint and exchanges preambles; an endpoint
// that speaks anything else fails with ErrProtocol.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	if err := handshake(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return &Client{c: rpc.NewClientWithCodec(newClientCodec(conn))}, nil
}

// Close drops the connection.
func (c *Client) Close() error { return c.c.Close() }

// Submit ships both operands and returns the admitted job's ID. Rejections
// come back as the package's typed errors (errors.Is works across the wire).
// The operands are read in place until Submit returns; the caller must not
// modify them meanwhile.
func (c *Client) Submit(tenant string, priority int, a, b *bmat.BlockMatrix) (JobID, error) {
	if a == nil || b == nil {
		return 0, fmt.Errorf("%w: nil operand", ErrUnschedulable)
	}
	var reply WireSubmitReply
	args := &WireSubmitArgs{Tenant: tenant, Priority: priority, A: a, B: b}
	if err := c.c.Call(wireServiceName+".Submit", args, &reply); err != nil {
		return 0, mapWireError(err)
	}
	return JobID(reply.ID), nil
}

// Status snapshots a job.
func (c *Client) Status(id JobID) (JobStatus, error) {
	var reply WireStatusReply
	if err := c.c.Call(wireServiceName+".Status", &WireJobArgs{ID: uint64(id)}, &reply); err != nil {
		return JobStatus{}, mapWireError(err)
	}
	return reply.Status, nil
}

// Result blocks until the job finishes (or ctx ends), polling bounded
// server-side waits, and returns the product.
func (c *Client) Result(ctx context.Context, id JobID) (*bmat.BlockMatrix, JobStatus, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, JobStatus{}, err
		}
		var reply WireResultReply
		err := c.c.Call(wireServiceName+".Result",
			&WireResultArgs{ID: uint64(id), WaitMillis: maxResultWait.Milliseconds()}, &reply)
		if err != nil {
			return nil, reply.Status, mapWireError(err)
		}
		if reply.Done {
			return reply.C, reply.Status, nil
		}
	}
}

// Cancel stops a job.
func (c *Client) Cancel(id JobID) error {
	return c.jobCall("Cancel", id)
}

// Forget releases a finished job's record and product on the server. A
// long-lived client calls it after Result, or every product it was ever
// returned stays resident in the server; an ID the server does not hold is
// ErrUnknownJob.
func (c *Client) Forget(id JobID) error {
	return c.jobCall("Forget", id)
}

func (c *Client) jobCall(method string, id JobID) error {
	var reply WireEmptyReply
	if err := c.c.Call(wireServiceName+"."+method, &WireJobArgs{ID: uint64(id)}, &reply); err != nil {
		return mapWireError(err)
	}
	return nil
}

// mapWireError re-types rpc.ServerError text back into the package
// sentinels, re-parsing QueueFullError's retry-after hint, so wire callers
// branch exactly like in-process ones.
func mapWireError(err error) error {
	var se rpc.ServerError
	if !errors.As(err, &se) {
		return err
	}
	msg := se.Error()
	switch {
	case strings.HasPrefix(msg, ErrQueueFull.Error()):
		qf := &QueueFullError{RetryAfter: 5 * time.Millisecond}
		if i := strings.Index(msg, `tenant "`); i >= 0 {
			rest := msg[i+len(`tenant "`):]
			if j := strings.IndexByte(rest, '"'); j >= 0 {
				qf.Tenant = rest[:j]
			}
		}
		if i := strings.Index(msg, "retry after "); i >= 0 {
			rest := strings.TrimSuffix(msg[i+len("retry after "):], ")")
			if d, perr := time.ParseDuration(rest); perr == nil {
				qf.RetryAfter = d
			}
		}
		return qf
	case strings.HasPrefix(msg, ErrQuotaExceeded.Error()):
		return fmt.Errorf("%w%s", ErrQuotaExceeded, strings.TrimPrefix(msg, ErrQuotaExceeded.Error()))
	case strings.HasPrefix(msg, ErrUnschedulable.Error()):
		return fmt.Errorf("%w%s", ErrUnschedulable, strings.TrimPrefix(msg, ErrUnschedulable.Error()))
	case strings.HasPrefix(msg, ErrUnknownTenant.Error()):
		return fmt.Errorf("%w%s", ErrUnknownTenant, strings.TrimPrefix(msg, ErrUnknownTenant.Error()))
	case strings.HasPrefix(msg, ErrUnknownJob.Error()):
		return fmt.Errorf("%w%s", ErrUnknownJob, strings.TrimPrefix(msg, ErrUnknownJob.Error()))
	case strings.HasPrefix(msg, ErrServerClosed.Error()):
		return ErrServerClosed
	}
	return err
}
