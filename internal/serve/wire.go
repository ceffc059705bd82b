package serve

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/distnet"
)

// The serve socket's bodies, on internal/codec's call layer (the layout is
// in docs/SERVING.md). Control fields are hand-framed varints and strings; a
// matrix travels as
//
//	uvarint rows, cols, blockSize, nblocks
//	nblocks × { uvarint keyI, keyJ; u8 tag; u32 len; payload; u32 crc32(payload) }
//
// with value payloads written by writev from the blocks' storage and read
// straight into the decoded blocks' slices, the CRC summed over the bytes in
// place on both sides.

// servePreamble opens every connection, both ways. Version 2 is the call
// layer's header: a method byte and an error code where version 1 had
// net/rpc's method names and error text; version 3's frames may arrive in
// chunks where version 2's came whole; version 4's sparse blocks may take
// the coordinate form, whose tags version 3 refused.
var servePreamble = codec.Preamble{'D', 'M', 'S', 'V', 4}

// ErrProtocol reports a peer that did not open with this wire format's
// preamble — an older distme-serve or client, or a stray service on the port.
var ErrProtocol = codec.ErrProtocol

// maxWireSide caps a received matrix's sides, and codec.MaxBlockSide its
// block size, before anything is sized from its header (storage's reader
// applies the same caps to files).
const maxWireSide = 1 << 40

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
		if err := w.AppendBlockCRC(m.Block(k.I, k.J)); err != nil {
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

func appendStatus(w *codec.FrameWriter, st *JobStatus) error {
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
	return nil
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

// submitArgs is Submit over the wire.
type submitArgs struct {
	tenant   string
	priority int
	a, b     *bmat.BlockMatrix
}

func appendSubmitArgs(w *codec.FrameWriter, a *submitArgs) error {
	w.Str(a.tenant)
	w.Varint(int64(a.priority))
	if err := appendMatrix(w, a.a); err != nil {
		return fmt.Errorf("serve: encode A: %w", err)
	}
	if err := appendMatrix(w, a.b); err != nil {
		return fmt.Errorf("serve: encode B: %w", err)
	}
	return nil
}

// readSubmitArgs reports a malformed operand as ErrUnschedulable — the
// caller's mistake, not the connection's, like an operand the optimizer
// cannot place.
func readSubmitArgs(rd *codec.FrameReader, a *submitArgs) error {
	var err error
	if a.tenant, err = rd.Str(); err != nil {
		return err
	}
	prio, err := rd.Varint()
	if err != nil {
		return err
	}
	a.priority = int(prio)
	if a.a, err = readMatrix(rd); err != nil {
		return fmt.Errorf("%w: operand A: %v", ErrUnschedulable, err)
	}
	if a.b, err = readMatrix(rd); err != nil {
		return fmt.Errorf("%w: operand B: %v", ErrUnschedulable, err)
	}
	return nil
}

// resultArgs asks for a job's result, waiting server-side up to waitMillis
// (clamped to a bound) for it to finish.
type resultArgs struct {
	id         JobID
	waitMillis int64
}

func appendResultArgs(w *codec.FrameWriter, a *resultArgs) error {
	appendID(w, &a.id)
	w.Varint(a.waitMillis)
	return nil
}

func readResultArgs(rd *codec.FrameReader, a *resultArgs) error {
	if err := readID(rd, &a.id); err != nil {
		return err
	}
	var err error
	a.waitMillis, err = rd.Varint()
	return err
}

// resultReply reports done=false when the wait expired first; when done, c
// is the product for successful jobs — the matrix the server retains, framed
// without a copy — and status carries the terminal state (failures arrive as
// the call's error instead).
type resultReply struct {
	done   bool
	status JobStatus
	c      *bmat.BlockMatrix
}

func appendResultReply(w *codec.FrameWriter, r *resultReply) error {
	w.Bool(r.done)
	appendStatus(w, &r.status)
	w.Bool(r.c != nil)
	if r.c != nil {
		if err := appendMatrix(w, r.c); err != nil {
			return fmt.Errorf("serve: encode result: %w", err)
		}
	}
	return nil
}

func readResultReply(rd *codec.FrameReader, r *resultReply) error {
	var err error
	if r.done, err = rd.Bool(); err != nil {
		return err
	}
	if err := readStatus(rd, &r.status); err != nil {
		return err
	}
	hasC, err := rd.Bool()
	if err != nil || !hasC {
		return err
	}
	if r.c, err = readMatrix(rd); err != nil {
		return fmt.Errorf("serve: decode result: %w", err)
	}
	return nil
}

// A job ID travels as one uvarint, in Status, Cancel and Forget requests and
// in Submit's reply.
func appendID(w *codec.FrameWriter, id *JobID) error {
	w.Uvarint(uint64(*id))
	return nil
}

func readID(rd *codec.FrameReader, id *JobID) error {
	v, err := rd.Uvarint()
	*id = JobID(v)
	return err
}

// The serve socket's error codes: the package sentinels, from codeQueueFull
// up. A queue-full answer carries its tenant and retry-after hint as fields
// (str tenant, varint nanoseconds), so the client's *QueueFullError keeps
// both exactly.
const codeQueueFull = codec.CodeOther + 1

var serveSentinels = [...]error{ErrQueueFull, ErrQuotaExceeded, ErrUnschedulable, ErrUnknownTenant, ErrUnknownJob, ErrServerClosed}

var serveErrors = codec.ErrorTable{Code: serveErrorCode, Decode: readServeError}

func serveErrorCode(err error) (byte, func(*codec.FrameWriter)) {
	if errors.Is(err, ErrQueueFull) {
		qf := &QueueFullError{}
		errors.As(err, &qf)
		return codeQueueFull, func(w *codec.FrameWriter) {
			w.Str(qf.Tenant)
			w.Varint(int64(qf.RetryAfter))
		}
	}
	for i, sentinel := range serveSentinels {
		if errors.Is(err, sentinel) {
			return codeQueueFull + byte(i), nil
		}
	}
	return codec.CodeOther, nil
}

func readServeError(code byte, rd *codec.FrameReader) (error, error) {
	if code == codeQueueFull {
		tenant, err1 := rd.Str()
		after, err2 := rd.Varint()
		if err := errors.Join(err1, err2); err != nil {
			return nil, err
		}
		return &QueueFullError{Tenant: tenant, RetryAfter: time.Duration(after)}, nil
	}
	if i := int(code) - int(codeQueueFull); i > 0 && i < len(serveSentinels) {
		return serveSentinels[i], nil
	}
	return nil, fmt.Errorf("%w: serve error code %d", codec.ErrBadFrame, code)
}
