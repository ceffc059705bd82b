package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
)

// The wire API: internal/codec's call layer over the bodies of wire.go.
// Operands and the product cross the socket as checksummed block records
// written from, and read into, the matrices' own storage. Typed rejections
// cross as the codes of serveErrors, so callers branch with errors.Is (and
// errors.As for *QueueFullError) on either side of the wire.

// The serve socket's methods, by the byte a request names them with.
const (
	methodSubmit byte = iota
	methodStatus
	methodResult
	methodCancel
	methodForget
)

// maxResultWait bounds one server-side Result wait so a single call never
// parks forever; clients poll in maxResultWait windows.
const maxResultWait = 2 * time.Second

// handlers is the serve socket's method table over s.
func (s *Server) handlers() []codec.Handler {
	onID := func(op func(JobID) error) func(*JobID, *struct{}) error {
		return func(id *JobID, _ *struct{}) error { return op(*id) }
	}
	return []codec.Handler{
		methodSubmit: codec.Method(readSubmitArgs, func(a *submitArgs, id *JobID) (err error) {
			*id, err = s.Submit(SubmitRequest{Tenant: a.tenant, Priority: a.priority, A: a.a, B: a.b})
			return err
		}, appendID),
		methodStatus: codec.Method(readID, func(id *JobID, st *JobStatus) (err error) {
			*st, err = s.Status(*id)
			return err
		}, appendStatus),
		methodResult: codec.Method(readResultArgs, s.wireResult, appendResultReply),
		methodCancel: codec.Method(readID, onID(s.Cancel), nil),
		methodForget: codec.Method(readID, onID(s.Forget), nil),
	}
}

// wireResult waits (bounded) for the job and returns its product.
func (s *Server) wireResult(args *resultArgs, reply *resultReply) error {
	wait := time.Duration(args.waitMillis) * time.Millisecond
	if wait <= 0 || wait > maxResultWait {
		wait = maxResultWait
	}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	c, st, err := s.Result(ctx, args.id)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Not finished inside the window: report progress, not an error.
			if st, serr := s.Status(args.id); serr == nil {
				reply.status = st
			}
			return nil
		}
		return err
	}
	reply.done, reply.status, reply.c = true, st, c
	return nil
}

// Listener serves the wire API on a net.Listener until closed.
type Listener = codec.Listener

// ServeListener exposes the server's wire API on l. The returned Listener's
// Close stops accepting and drops open connections; the Server itself stays
// up.
func ServeListener(s *Server, l net.Listener) (*Listener, error) {
	return codec.Listen(l, servePreamble, s.handlers(), serveErrors), nil
}

// Client is the caller side of the wire API.
type Client struct{ c *codec.Client }

// Dial connects to a serving endpoint and exchanges preambles; an endpoint
// that speaks anything else fails with ErrProtocol.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	if err := codec.Handshake(conn, servePreamble); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return &Client{c: codec.NewClient(conn, serveErrors)}, nil
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
	var id JobID
	args := &submitArgs{tenant: tenant, priority: priority, a: a, b: b}
	err := c.c.Call(context.Background(), methodSubmit, codec.Writes(appendSubmitArgs, args), codec.Reads(readID, &id))
	return id, err
}

// Status snapshots a job.
func (c *Client) Status(id JobID) (JobStatus, error) {
	var st JobStatus
	err := c.c.Call(context.Background(), methodStatus, codec.Writes(appendID, &id), codec.Reads(readStatus, &st))
	return st, err
}

// Result blocks until the job finishes (or ctx ends), polling bounded
// server-side waits, and returns the product.
func (c *Client) Result(ctx context.Context, id JobID) (*bmat.BlockMatrix, JobStatus, error) {
	args := &resultArgs{id: id, waitMillis: maxResultWait.Milliseconds()}
	for {
		if err := ctx.Err(); err != nil {
			return nil, JobStatus{}, err
		}
		var reply resultReply
		if err := c.c.Call(ctx, methodResult, codec.Writes(appendResultArgs, args), codec.Reads(readResultReply, &reply)); err != nil {
			return nil, JobStatus{}, err
		}
		if reply.done {
			return reply.c, reply.status, nil
		}
	}
}

// Cancel stops a job.
func (c *Client) Cancel(id JobID) error {
	return c.c.Call(context.Background(), methodCancel, codec.Writes(appendID, &id), nil)
}

// Forget releases a finished job's record and product on the server. A
// long-lived client calls it after Result, or every product it was ever
// returned stays resident in the server; an ID the server does not hold is
// ErrUnknownJob.
func (c *Client) Forget(id JobID) error {
	return c.c.Call(context.Background(), methodForget, codec.Writes(appendID, &id), nil)
}
