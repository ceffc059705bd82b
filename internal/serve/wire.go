package serve

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/rpc"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/distnet"
)

// The serve socket's wire format: a net/rpc codec pair on internal/codec's
// frame layer, the same one the driver↔worker sockets use. A connection
// opens with an 8-byte preamble each way; after it every message is one
// length-prefixed frame:
//
//	request:  uvarint seq, str method, body
//	response: uvarint seq, str method, str error, body (absent on error)
//
// Control fields are hand-framed varints and strings. A matrix travels as
//
//	uvarint rows, cols, blockSize, nblocks
//	nblocks × { uvarint keyI, keyJ; u8 tag; u32 len; payload; u32 crc32(payload) }
//
// with payloads in codec's compact wire forms. The sender writes value
// payloads by writev straight from the blocks' storage and the receiver
// reads them straight into the decoded blocks' slices, summing the CRC over
// the bytes in place on both sides; no matrix byte passes through gob or an
// intermediate buffer.

// wireMagic and wireVersion open every connection, both ways: the magic,
// the version as a little-endian u16, two zero bytes.
const (
	wireMagic   = "DMSV"
	wireVersion = 1
)

// handshakeTimeout bounds the preamble exchange, so a peer that accepts the
// connection but speaks something else fails the dial instead of hanging it.
const handshakeTimeout = 5 * time.Second

// ErrProtocol reports a peer that did not open with this wire format's
// preamble — an older gob-speaking distme-serve or client, or a stray
// service on the port.
var ErrProtocol = errors.New("serve: peer does not speak the distme-serve wire protocol")

// maxWireSide caps a received matrix's sides, and codec.MaxBlockSide its
// block size, before anything is sized from its header (storage's reader
// applies the same caps to files).
const maxWireSide = 1 << 40

// handshake sends this side's preamble and checks the peer's. Both sides
// write first, so neither waits on the other to speak.
func handshake(conn net.Conn) error {
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return err
	}
	ours := [8]byte{wireMagic[0], wireMagic[1], wireMagic[2], wireMagic[3], wireVersion & 0xff, wireVersion >> 8}
	if _, err := conn.Write(ours[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	var theirs [8]byte
	if _, err := io.ReadFull(conn, theirs[:]); err != nil {
		return fmt.Errorf("%w: no preamble: %v", ErrProtocol, err)
	}
	if theirs != ours {
		return fmt.Errorf("%w: preamble %q, want %q (version %d)", ErrProtocol, theirs[:], ours[:], wireVersion)
	}
	return conn.SetDeadline(time.Time{})
}

// appendMatrix frames m; value payloads stay in m's blocks until Flush.
func appendMatrix(w *codec.FrameWriter, m *bmat.BlockMatrix) error {
	w.Uvarint(uint64(m.Rows))
	w.Uvarint(uint64(m.Cols))
	w.Uvarint(uint64(m.BlockSize))
	keys := m.Keys()
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Uvarint(uint64(k.I))
		w.Uvarint(uint64(k.J))
		if err := w.AppendBlockCRC(m.Block(k.I, k.J), codec.EncodingFP64); err != nil {
			return fmt.Errorf("block %v: %w", k, err)
		}
	}
	return nil
}

// readMatrix parses one framed matrix with the checks storage.Read applies
// to a file: plausible header, every key inside the grid, every block the
// size its slot demands, every payload matching its CRC — and no slot
// listed twice.
func readMatrix(rd *codec.FrameReader) (*bmat.BlockMatrix, error) {
	rows, err1 := rd.Uvarint()
	cols, err2 := rd.Uvarint()
	blockSize, err3 := rd.Uvarint()
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, err
	}
	if rows > maxWireSide || cols > maxWireSide || blockSize == 0 || blockSize > codec.MaxBlockSide {
		return nil, fmt.Errorf("%w: implausible matrix header (%d x %d, block %d)", codec.ErrBadFrame, rows, cols, blockSize)
	}
	m := bmat.New(int(rows), int(cols), int(blockSize))
	nblocks, err := rd.Count("matrix blocks", 11)
	if err != nil {
		return nil, err
	}
	if hi, grid := bits.Mul64(uint64(m.IB), uint64(m.JB)); hi == 0 && uint64(nblocks) > grid {
		return nil, fmt.Errorf("%w: %d blocks for a %dx%d grid", codec.ErrBadFrame, nblocks, m.IB, m.JB)
	}
	for n := 0; n < nblocks; n++ {
		i, err1 := rd.Int()
		j, err2 := rd.Int()
		if err := errors.Join(err1, err2); err != nil {
			return nil, err
		}
		// The key is outside the payload CRC: check it against the grid
		// before it indexes anything.
		if i >= m.IB || j >= m.JB {
			return nil, fmt.Errorf("%w: block key (%d,%d) outside grid %dx%d", codec.ErrBadFrame, i, j, m.IB, m.JB)
		}
		if m.Block(i, j) != nil {
			return nil, fmt.Errorf("%w: block (%d,%d) listed twice", codec.ErrBadFrame, i, j)
		}
		blk, err := rd.ReadBlockCRC()
		if err != nil {
			return nil, fmt.Errorf("block (%d,%d): %w", i, j, err)
		}
		wr, wc := m.BlockDims(i, j)
		if br, bc := blk.Dims(); br != wr || bc != wc {
			return nil, fmt.Errorf("%w: block (%d,%d) is %dx%d, its slot wants %dx%d", codec.ErrBadFrame, i, j, br, bc, wr, wc)
		}
		m.SetBlock(i, j, blk)
	}
	return m, nil
}

func appendStatus(w *codec.FrameWriter, st *JobStatus) {
	w.Uvarint(uint64(st.ID))
	w.Str(st.Tenant)
	w.Uvarint(uint64(st.State))
	w.Str(st.Err)
	for _, v := range [...]int64{
		int64(st.Priority), int64(st.Params.P), int64(st.Params.Q), int64(st.Params.R),
		st.PlannedBytes, st.PlannedFlops, int64(st.Wait), int64(st.Run),
		st.Meter.Cuboids, st.Meter.RequestBytes, st.Meter.ReplyBytes, st.Meter.Retries, st.Meter.LocalFallbacks,
	} {
		w.Varint(v)
	}
}

func readStatus(rd *codec.FrameReader, st *JobStatus) error {
	id, err1 := rd.Uvarint()
	tenant, err2 := rd.Str()
	state, err3 := rd.Uvarint()
	errStr, err4 := rd.Str()
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return err
	}
	var v [13]int64
	for i := range v {
		var err error
		if v[i], err = rd.Varint(); err != nil {
			return err
		}
	}
	*st = JobStatus{
		ID: JobID(id), Tenant: tenant, State: JobState(state), Err: errStr,
		Priority: int(v[0]), Params: core.Params{P: int(v[1]), Q: int(v[2]), R: int(v[3])},
		PlannedBytes: v[4], PlannedFlops: v[5], Wait: time.Duration(v[6]), Run: time.Duration(v[7]),
		Meter: distnet.JobMeterStats{Cuboids: v[8], RequestBytes: v[9], ReplyBytes: v[10], Retries: v[11], LocalFallbacks: v[12]},
	}
	return nil
}

// ---------------------------------------------------------------------------
// Client codec

type clientCodec struct {
	conn io.ReadWriteCloser
	fr   *codec.FrameReader
}

func newClientCodec(conn io.ReadWriteCloser) rpc.ClientCodec {
	return &clientCodec{conn: conn, fr: codec.NewFrameReader(conn)}
}

func (c *clientCodec) WriteRequest(r *rpc.Request, body any) error {
	w := codec.BeginFrame()
	defer w.Release()
	w.Uvarint(r.Seq)
	w.Str(r.ServiceMethod)
	switch v := body.(type) {
	case *WireSubmitArgs:
		w.Str(v.Tenant)
		w.Varint(int64(v.Priority))
		if err := appendMatrix(&w, v.A); err != nil {
			return fmt.Errorf("serve: encode A: %w", err)
		}
		if err := appendMatrix(&w, v.B); err != nil {
			return fmt.Errorf("serve: encode B: %w", err)
		}
	case *WireJobArgs:
		w.Uvarint(v.ID)
	case *WireResultArgs:
		w.Uvarint(v.ID)
		w.Varint(v.WaitMillis)
	default:
		return fmt.Errorf("serve: unsupported request body %T", body)
	}
	return w.Flush(c.conn)
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
	return nil
}

// ReadResponseBody decodes the typed body as it streams in and drains what
// it leaves unread (all of it for an error response or a nil body), so the
// next header starts on a frame boundary even after a failed decode.
func (c *clientCodec) ReadResponseBody(body any) error {
	defer c.fr.Drain()
	rd := c.fr
	switch v := body.(type) {
	case nil, *WireEmptyReply:
		return nil
	case *WireSubmitReply:
		var err error
		v.ID, err = rd.Uvarint()
		return err
	case *WireStatusReply:
		return readStatus(rd, &v.Status)
	case *WireResultReply:
		var err error
		if v.Done, err = rd.Bool(); err != nil {
			return err
		}
		if err := readStatus(rd, &v.Status); err != nil {
			return err
		}
		hasC, err := rd.Bool()
		if err != nil || !hasC {
			return err
		}
		if v.C, err = readMatrix(rd); err != nil {
			return fmt.Errorf("serve: decode result: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("serve: unsupported response body %T", body)
	}
}

func (c *clientCodec) Close() error { return c.conn.Close() }

// ---------------------------------------------------------------------------
// Server codec

type serverCodec struct {
	conn io.ReadWriteCloser
	fr   *codec.FrameReader
}

func newServerCodec(conn io.ReadWriteCloser) rpc.ServerCodec {
	return &serverCodec{conn: conn, fr: codec.NewFrameReader(conn)}
}

func (s *serverCodec) ReadRequestHeader(r *rpc.Request) (err error) {
	r.Seq, r.ServiceMethod, err = s.fr.NextHeader()
	return err
}

// ReadRequestBody decodes the typed body as it streams in. An error is
// safe to return: the rest of the frame is drained (also when net/rpc
// passes nil to skip a body it cannot route), so net/rpc answers this call
// with the error text and keeps reading. A malformed operand is the
// caller's mistake, not the connection's: it is reported as
// ErrUnschedulable, the way an operand the optimizer cannot place is.
func (s *serverCodec) ReadRequestBody(body any) error {
	defer s.fr.Drain()
	rd := s.fr
	switch v := body.(type) {
	case nil:
		return nil
	case *WireSubmitArgs:
		var err error
		if v.Tenant, err = rd.Str(); err != nil {
			return err
		}
		prio, err := rd.Varint()
		if err != nil {
			return err
		}
		v.Priority = int(prio)
		if v.A, err = readMatrix(rd); err != nil {
			return fmt.Errorf("%w: operand A: %v", ErrUnschedulable, err)
		}
		if v.B, err = readMatrix(rd); err != nil {
			return fmt.Errorf("%w: operand B: %v", ErrUnschedulable, err)
		}
		return nil
	case *WireJobArgs:
		var err error
		v.ID, err = rd.Uvarint()
		return err
	case *WireResultArgs:
		var err error
		if v.ID, err = rd.Uvarint(); err != nil {
			return err
		}
		v.WaitMillis, err = rd.Varint()
		return err
	default:
		return fmt.Errorf("serve: unsupported request body %T", body)
	}
}

// WriteResponse frames one reply; the product's value payloads go out by
// writev from the blocks the server retains. A reply that cannot be framed
// is answered as that error instead, so the caller is not left waiting.
func (s *serverCodec) WriteResponse(r *rpc.Response, body any) error {
	return codec.WriteResponseFrame(s.conn, r.Seq, r.ServiceMethod, r.Error, func(w *codec.FrameWriter) error {
		return appendReply(w, body)
	})
}

func appendReply(w *codec.FrameWriter, body any) error {
	switch v := body.(type) {
	case *WireEmptyReply:
	case *WireSubmitReply:
		w.Uvarint(v.ID)
	case *WireStatusReply:
		appendStatus(w, &v.Status)
	case *WireResultReply:
		w.Bool(v.Done)
		appendStatus(w, &v.Status)
		w.Bool(v.C != nil)
		if v.C != nil {
			if err := appendMatrix(w, v.C); err != nil {
				return fmt.Errorf("serve: encode result: %w", err)
			}
		}
	default:
		return fmt.Errorf("serve: unsupported response body %T", body)
	}
	return nil
}

func (s *serverCodec) Close() error { return s.conn.Close() }
