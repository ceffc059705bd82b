package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"slices"
	"unsafe"

	"distme/internal/matrix"
)

// The frame layer under both sockets (driver↔worker in internal/distnet,
// client↔distme-serve in internal/serve). One message is one frame: a 4-byte
// little-endian length, then that many bytes. A FrameWriter assembles it
// scatter-gather style — header and structural bytes accumulate in a pooled
// arena while large block-value payloads stay in the blocks' own storage and
// go out as extra writev segments. A FrameReader parses it streaming under a
// remaining-bytes counter taken from the length prefix — structural bytes
// through a small scratch buffer, raw float64 tails read from the socket
// straight into the slice the decoded block keeps. A matrix payload
// therefore crosses user space once per socket hop in each direction.

// MaxFrameBytes bounds one frame. The writer refuses to emit a larger one
// (ErrFrameTooLarge) and the reader refuses a length prefix above it, so
// the 4-byte prefix can neither wrap nor promise more than this.
const MaxFrameBytes = 1<<31 - 1

// minZeroCopyTail is the smallest value payload worth a separate writev
// segment; below it the extra segment costs more than the copy it saves,
// so small tails are folded into the arena.
const minZeroCopyTail = 4096

// readStep is the most a reader allocates ahead of the bytes that have
// actually arrived: a forged length can cost one step, never its own size.
const readStep = 1 << 20

// ErrFrameTooLarge reports a message that does not fit one frame. It is an
// encode-side refusal: nothing was written, the connection is still good,
// and retrying the same message elsewhere cannot help.
var ErrFrameTooLarge = errors.New("codec: message exceeds the wire frame bound")

// ErrBadFrame reports a frame whose structure is corrupt, truncated or
// implausible. Block payload failures inside a frame match both ErrBadFrame
// and ErrBadFormat.
var ErrBadFrame = errors.New("codec: malformed wire frame")

// ErrChecksum reports a checksummed block record whose CRC32 does not match
// its payload.
var ErrChecksum = errors.New("codec: block checksum mismatch")

// BuffersWriter is implemented by connection wrappers that can pass a
// scatter-gather write through to the socket they wrap (net.Buffers only
// reaches writev on the concrete net types).
type BuffersWriter interface {
	WriteBuffers(bufs *net.Buffers) (int64, error)
}

// FrameWriter assembles one length-prefixed frame as a pooled arena of
// header and structural bytes plus zero-copy cuts into block value storage.
// Flush ships the segments with net.Buffers, patching the 4-byte length
// prefix first; a frame with no cuts goes out with one plain Write, so the
// byte stream is identical either way.
type FrameWriter struct {
	arena []byte // pooled; begins with the 4-byte length placeholder
	cuts  []frameCut
}

// frameCut splices a zero-copy segment into the frame: arena bytes up to
// arenaEnd precede ext.
type frameCut struct {
	arenaEnd int
	ext      []byte
}

// BeginFrame starts a frame on a pooled arena; Release returns it.
func BeginFrame() FrameWriter {
	return FrameWriter{arena: append(GetBuffer(), 0, 0, 0, 0)}
}

// Release recycles the arena. The frame must not be used afterwards.
func (w *FrameWriter) Release() { PutBuffer(w.arena) }

// Reset empties the frame for reuse, keeping the arena.
func (w *FrameWriter) Reset() {
	w.arena = w.arena[:4]
	w.cuts = w.cuts[:0]
}

// Uvarint appends one unsigned varint.
func (w *FrameWriter) Uvarint(v uint64) { w.arena = binary.AppendUvarint(w.arena, v) }

// Varint appends one signed (zig-zag) varint.
func (w *FrameWriter) Varint(v int64) { w.arena = binary.AppendVarint(w.arena, v) }

// Str appends a length-prefixed string.
func (w *FrameWriter) Str(s string) {
	w.arena = binary.AppendUvarint(w.arena, uint64(len(s)))
	w.arena = append(w.arena, s...)
}

// Bytes appends p verbatim.
func (w *FrameWriter) Bytes(p []byte) { w.arena = append(w.arena, p...) }

// Byte appends one byte.
func (w *FrameWriter) Byte(b byte) { w.arena = append(w.arena, b) }

// Bool appends one byte, 1 for true.
func (w *FrameWriter) Bool(b bool) {
	if b {
		w.arena = append(w.arena, 1)
	} else {
		w.arena = append(w.arena, 0)
	}
}

// Manifest appends a placement manifest.
func (w *FrameWriter) Manifest(m *Manifest) { w.arena = AppendManifest(w.arena, m) }

// Size is the frame length the prefix will carry: every byte after the
// 4-byte placeholder, including the zero-copy segments.
func (w *FrameWriter) Size() int64 {
	n := int64(len(w.arena) - 4)
	for _, c := range w.cuts {
		n += int64(len(c.ext))
	}
	return n
}

// tail appends a block's value bytes: folded into the arena when small,
// spliced in as a zero-copy cut otherwise.
func (w *FrameWriter) tail(t []byte) {
	switch {
	case len(t) == 0:
	case len(t) < minZeroCopyTail:
		w.arena = append(w.arena, t...)
	default:
		w.cuts = append(w.cuts, frameCut{arenaEnd: len(w.arena), ext: t})
	}
}

// AppendBlock encodes b as one block record — tag, u32 payload length,
// payload — keeping a large raw-value tail as a zero-copy cut, and returns
// the payload size.
func (w *FrameWriter) AppendBlock(b matrix.Block) (int64, error) {
	tagPos := len(w.arena)
	w.arena = append(w.arena, 0, 0, 0, 0, 0) // tag + length placeholder
	out, tag, tail, err := AppendWireSG(w.arena, b, EncodingFP64)
	if err != nil {
		w.arena = w.arena[:tagPos]
		return 0, err
	}
	n := len(out) - tagPos - 5 + len(tail)
	out[tagPos] = tag
	binary.LittleEndian.PutUint32(out[tagPos+1:], uint32(n))
	w.arena = out
	w.tail(tail)
	return int64(n), nil
}

// AppendPrepared emits the block record AppendBlock would, from a record
// prepared earlier: no planning, no encoding, one copy of the structural
// bytes.
func (w *FrameWriter) AppendPrepared(p *Prepared) {
	w.arena = append(w.arena, p.Tag)
	w.arena = binary.LittleEndian.AppendUint32(w.arena, uint32(p.Size()))
	w.arena = append(w.arena, p.Head...)
	w.tail(p.Tail)
}

// AppendBlockCRC is AppendBlock followed by the IEEE CRC32 of the payload,
// computed over the bytes where they lie (arena and block storage).
func (w *FrameWriter) AppendBlockCRC(b matrix.Block) error {
	start, ncuts := len(w.arena)+5, len(w.cuts)
	if _, err := w.AppendBlock(b); err != nil {
		return err
	}
	crc := crc32.ChecksumIEEE(w.arena[start:])
	if len(w.cuts) > ncuts {
		crc = crc32.Update(crc, crc32.IEEETable, w.cuts[ncuts].ext)
	}
	w.arena = binary.LittleEndian.AppendUint32(w.arena, crc)
	return nil
}

// Flush patches the length prefix and writes the frame, or refuses with
// ErrFrameTooLarge before a byte moves. Zero-copy segments alias block
// storage, so the blocks must stay live until Flush returns.
func (w *FrameWriter) Flush(conn io.Writer) error {
	size := w.Size()
	if size > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes, the bound is %d", ErrFrameTooLarge, size, int64(MaxFrameBytes))
	}
	binary.LittleEndian.PutUint32(w.arena[:4], uint32(size))
	if len(w.cuts) == 0 {
		_, err := conn.Write(w.arena)
		return err
	}
	bufs := make(net.Buffers, 0, 2*len(w.cuts)+1)
	prev := 0
	for _, c := range w.cuts {
		if c.arenaEnd > prev {
			bufs = append(bufs, w.arena[prev:c.arenaEnd])
		}
		bufs = append(bufs, c.ext)
		prev = c.arenaEnd
	}
	if prev < len(w.arena) {
		bufs = append(bufs, w.arena[prev:])
	}
	if bw, ok := conn.(BuffersWriter); ok {
		_, err := bw.WriteBuffers(&bufs)
		return err
	}
	_, err := bufs.WriteTo(conn)
	return err
}

// FrameReader parses length-prefixed frames from a stream. Every read is
// checked against the bytes left in the current frame, so a body can never
// run into the next frame, and Drain discards whatever a decoder left
// unread, so a body that fails to decode never desynchronizes the stream.
type FrameReader struct {
	br      *bufio.Reader
	rem     int64  // unread bytes of the current frame
	scratch []byte // structural bytes of the record being parsed
	sum     bool   // fold every payload byte read into crc
	crc     uint32
	one     [1]byte // U8's byte, where the CRC can reach it without escaping
	src     streamSource
}

// NewFrameReader wraps r. The buffer only has to amortize the small
// structural reads; value tails bypass it.
func NewFrameReader(r io.Reader) *FrameReader {
	fr := &FrameReader{br: bufio.NewReaderSize(r, 16<<10)}
	fr.src.r = fr
	return fr
}

// Next discards what is left of the current frame and reads the next
// frame's length prefix. The error is io.EOF only on a clean frame boundary.
func (r *FrameReader) Next() (int64, error) {
	if err := r.Drain(); err != nil {
		return 0, err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return 0, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if n > MaxFrameBytes {
		return 0, fmt.Errorf("%w: frame of %d bytes", ErrBadFrame, n)
	}
	r.rem = n
	return n, nil
}

// Remaining is the number of unread bytes in the current frame.
func (r *FrameReader) Remaining() int64 { return r.rem }

// Drain discards the rest of the current frame.
func (r *FrameReader) Drain() error {
	if cap(r.scratch) > maxPooledBuffer {
		r.scratch = nil
	}
	r.sum = false
	for r.rem > 0 {
		n, err := r.br.Discard(int(r.rem))
		r.rem -= int64(n)
		if err != nil {
			return unexpectedEOF(err)
		}
	}
	return nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (r *FrameReader) truncated(n int64) error {
	return fmt.Errorf("%w: truncated field (%d bytes wanted, %d left)", ErrBadFrame, n, r.rem)
}

// ReadFull reads exactly len(p) frame bytes into p.
func (r *FrameReader) ReadFull(p []byte) error {
	if int64(len(p)) > r.rem {
		return r.truncated(int64(len(p)))
	}
	n, err := io.ReadFull(r.br, p)
	r.rem -= int64(n)
	if err != nil {
		return unexpectedEOF(err)
	}
	if r.sum {
		r.crc = crc32.Update(r.crc, crc32.IEEETable, p)
	}
	return nil
}

// U8 reads one byte.
func (r *FrameReader) U8() (byte, error) {
	if r.rem < 1 {
		return 0, r.truncated(1)
	}
	b, err := r.br.ReadByte()
	if err != nil {
		return 0, unexpectedEOF(err)
	}
	r.rem--
	if r.sum {
		r.one[0] = b
		r.crc = crc32.Update(r.crc, crc32.IEEETable, r.one[:])
	}
	return b, nil
}

// readUvarint reads one unsigned varint a byte at a time, so a streaming
// source never reads past the value. A value that overflows 64 bits is
// reported as malformed.
func readUvarint(r interface{ U8() (byte, error) }, malformed error) (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := r.U8()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
	}
	return 0, fmt.Errorf("%w: varint overflows 64 bits", malformed)
}

// Bool reads one byte as a flag.
func (r *FrameReader) Bool() (bool, error) {
	b, err := r.U8()
	return b != 0, err
}

// Uvarint reads one unsigned varint.
func (r *FrameReader) Uvarint() (uint64, error) { return readUvarint(r, ErrBadFrame) }

// Varint reads one signed (zig-zag) varint.
func (r *FrameReader) Varint() (int64, error) {
	u, err := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, err
}

// Int reads a uvarint that must fit a non-negative int.
func (r *FrameReader) Int() (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt {
		return 0, fmt.Errorf("%w: integer %d out of range", ErrBadFrame, v)
	}
	return int(v), nil
}

// Count reads an element count and rejects one the rest of the frame could
// not hold at elemBytes (the least one element occupies) apiece. The bound
// is the bytes the frame's prefix promises, not the bytes that have arrived,
// so the count must never size an allocation: loop over it, or use ReadSlice.
func (r *FrameReader) Count(what string, elemBytes int64) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.rem/elemBytes) {
		return 0, fmt.Errorf("%w: %d %s in %d bytes", ErrBadFrame, n, what, r.rem)
	}
	return int(n), nil
}

// countStep is the most memory an element count may claim ahead of the
// elements themselves: small next to readStep because counts nest (a batch
// of cuboids of block records) and every level may be forged at once.
const countStep = 64 << 10

// stepCap is the capacity a slice that will hold n decoded elements starts
// at: all of it when that fits countStep bytes, a countStep's worth
// otherwise. The rest comes from append as elements decode, so the memory a
// count claims is bounded by the bytes that really arrived — a forged frame
// length and a forged count together cost one countStep.
func stepCap[T any](n int) int {
	var zero T
	return min(n, countStep/max(1, int(unsafe.Sizeof(zero))))
}

// ReadSlice reads an element count (checked as Count does) and then that
// many elements, read filling each in place; the slice grows as elements
// decode (stepCap).
func ReadSlice[T any](r *FrameReader, what string, elemBytes int64, read func(*T) error) ([]T, error) {
	n, err := r.Count(what, elemBytes)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, stepCap[T](n))
	for len(out) < n {
		var zero T
		out = append(out, zero)
		if err := read(&out[len(out)-1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// U32 reads a little-endian uint32.
func (r *FrameReader) U32() (uint32, error) {
	b, err := r.Take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// Str reads a length-prefixed string.
func (r *FrameReader) Str() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.rem) {
		return "", r.truncated(int64(n))
	}
	b, err := r.Take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Take reads the next n bytes into the reader's scratch buffer and returns
// them as a view valid until the next read. The buffer grows only as bytes
// arrive, one readStep at a time.
func (r *FrameReader) Take(n int) ([]byte, error) {
	if n < 0 || int64(n) > r.rem {
		return nil, r.truncated(int64(n))
	}
	buf := r.scratch[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), readStep)
		buf = slices.Grow(buf, chunk)[:len(buf)+chunk]
		if err := r.ReadFull(buf[len(buf)-chunk:]); err != nil {
			return nil, err
		}
	}
	r.scratch = buf
	return buf, nil
}

// floats reads n raw little-endian float64 values straight into the slice
// it returns — the socket's bytes land in their final place. A slice larger
// than one readStep grows as data arrive.
func (r *FrameReader) floats(n int) ([]float64, error) {
	if n < 0 || int64(n) > r.rem/8 {
		return nil, r.truncated(8 * int64(n))
	}
	const stepVals = readStep / 8
	out := make([]float64, min(n, stepVals))
	if err := r.ReadFull(valueBytes(out)); err != nil {
		return nil, err
	}
	for len(out) < n {
		chunk := min(n-len(out), stepVals)
		out = slices.Grow(out, chunk)[:len(out)+chunk]
		if err := r.ReadFull(valueBytes(out[len(out)-chunk:])); err != nil {
			return nil, err
		}
	}
	fixFloatEndian(out)
	return out, nil
}

// streamSource is blockSource over the next n bytes of a frame.
type streamSource struct {
	r *FrameReader
	n int
}

func (s *streamSource) left() int { return s.n }

func (s *streamSource) U8() (byte, error) {
	if s.n < 1 {
		return 0, fmt.Errorf("%w: payload truncated (1 byte wanted, 0 left)", ErrBadFormat)
	}
	b, err := s.r.U8()
	if err == nil {
		s.n--
	}
	return b, err
}

func (s *streamSource) take(n int) ([]byte, error) {
	if n < 0 || n > s.n {
		return nil, fmt.Errorf("%w: payload truncated (%d bytes wanted, %d left)", ErrBadFormat, n, s.n)
	}
	b, err := s.r.Take(n)
	if err == nil {
		s.n -= n
	}
	return b, err
}

func (s *streamSource) floats(n int) ([]float64, error) {
	if n < 0 || n > s.n/8 {
		return nil, fmt.Errorf("%w: payload truncated (%d values wanted, %d bytes left)", ErrBadFormat, n, s.n)
	}
	vals, err := s.r.floats(n)
	if err == nil {
		s.n -= 8 * n
	}
	return vals, err
}

// readBlock reads one block record — tag, u32 payload length, payload —
// decoding the payload as it streams in; trailer is how many record bytes
// must still follow the payload. With sum set the payload bytes are folded
// into r.crc where they land. A payload the decoders reject fails with an
// error matching both ErrBadFrame and ErrBadFormat.
func (r *FrameReader) readBlock(sum bool, trailer int64) (matrix.Block, int64, error) {
	tag, err := r.U8()
	if err != nil {
		return nil, 0, err
	}
	n, err := r.U32()
	if err != nil {
		return nil, 0, err
	}
	if int64(n)+trailer > r.rem {
		return nil, 0, r.truncated(int64(n) + trailer)
	}
	r.src.n = int(n)
	r.sum, r.crc = sum, 0
	blk, err := decodeFrom(&r.src, tag)
	r.sum = false
	if err == nil && r.src.n != 0 {
		err = fmt.Errorf("%w: %d trailing payload bytes", ErrBadFormat, r.src.n)
	}
	if errors.Is(err, ErrBadFormat) {
		err = fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	if err != nil {
		return nil, 0, err
	}
	return blk, int64(n), nil
}

// ReadBlock reads one block record (AppendBlock's or AppendPrepared's
// layout) and returns the block and its payload size.
func (r *FrameReader) ReadBlock() (matrix.Block, int64, error) { return r.readBlock(false, 0) }

// ReadBlockCRC reads one checksummed block record (AppendBlockCRC's layout)
// and verifies the CRC32 over the payload bytes where they landed — the
// scratch buffer for structure, the block's own slice for values. Tag and
// length sit outside the checksum, as the chunk header does on disk.
func (r *FrameReader) ReadBlockCRC() (matrix.Block, error) {
	blk, _, err := r.readBlock(true, 4)
	if err != nil {
		return nil, err
	}
	got := r.crc
	want, err := r.U32()
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("%w: payload sums to %08x, record says %08x", ErrChecksum, got, want)
	}
	return blk, nil
}

// ReadManifest reads one placement manifest (FrameWriter.Manifest's layout).
func (r *FrameReader) ReadManifest() (*Manifest, error) {
	r.src.n = int(r.rem)
	m, err := decodeManifest(&r.src)
	if errors.Is(err, ErrBadFormat) {
		err = fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	if err != nil {
		return nil, err
	}
	return &m, nil
}
