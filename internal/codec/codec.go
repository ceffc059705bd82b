// Package codec is the shared binary block serializer used by both the
// on-disk matrix format (internal/storage, SaveMatrix's files) and the RPC wire path
// (internal/distnet). One block encodes to a (tag, payload) pair:
//
//   - the portable tags (TagDense, TagCSR) reproduce the original storage
//     chunk layout byte-for-byte, so matrix files written before this
//     package existed still read back, and
//   - the wire tags (TagCSR32, TagCSC32, TagCSRDelta, TagCSCDelta,
//     TagCSRCoord, TagCSCCoord) add compact sparse forms — 32-bit indices
//     when the dimensions fit, a delta+varint index stream, and for blocks
//     with fewer entries than lines fixed-width (line, index) coordinates —
//     chosen per block by encoded size, the smallest winning.
//
// Values always travel as raw little-endian float64 bits, converted to and
// from []byte in bulk (one memmove on little-endian hardware) instead of
// element by element, so a decoded block is bit-identical to the encoded
// one. Encode buffers are pooled; decoding of hostile input is hardened the
// same way storage's reader is: dimension plausibility caps, allocation
// bounded by the bytes actually present, and every malformed payload
// surfacing as ErrBadFormat — never a panic.
//
// The package also owns the one frame layer both sockets speak (frame.go):
// frames of length-prefixed chunks written scatter-gather from the blocks'
// own storage while they are encoded and decoded streaming, value tails read
// straight into their final slices.
// Every decoder is written once against blockSource, which a byte slice
// (Decode) and a FrameReader (ReadBlock) both feed.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"distme/internal/matrix"
)

// Block format tags. TagDense and TagCSR are the legacy storage chunk tags
// and must keep their values: they are written to disk.
const (
	// TagDense is a dense payload: u64 rows, u64 cols, raw float64 values.
	TagDense uint8 = 0
	// TagCSR is the portable 64-bit CSR payload: u64 rows/cols/nnz, then
	// row pointers, column indices and values, all 64-bit.
	TagCSR uint8 = 1
	// TagCSR32 is CSR with 32-bit dimensions, row pointers and column
	// indices — the common wire form for blocks under 2^24 on a side.
	TagCSR32 uint8 = 2
	// TagCSC32 is the CSC mirror of TagCSR32 (column pointers, row indices).
	TagCSC32 uint8 = 3
	// TagCSRDelta is CSR with varint dimensions, per-row entry counts and
	// delta+varint column indices; chosen when smaller than TagCSR32.
	TagCSRDelta uint8 = 4
	// TagCSCDelta is the CSC mirror of TagCSRDelta.
	TagCSCDelta uint8 = 5
	// TagCSRCoord is CSR as coordinates: varint dimensions and nnz, the nnz
	// row coordinates, the nnz column coordinates, each one byte wide when
	// both sides are at most 256 and two when both are at most 65,536, then
	// the values. It costs a block its entries, not its rows. Tags 6–11
	// carried fp32 and XOR+varint values and are refused.
	TagCSRCoord uint8 = 12
	// TagCSCCoord is the CSC mirror of TagCSRCoord (columns, then rows).
	TagCSCCoord uint8 = 13
)

// ErrBadFormat reports a corrupt, truncated or implausible block payload.
var ErrBadFormat = errors.New("codec: malformed block")

// MaxBlockSide bounds decoded block dimensions; anything larger is
// corruption and is rejected before the dimensions feed an allocation.
const MaxBlockSide = 1 << 24

// nativeLittleEndian gates the bulk []float64 ↔ []byte reinterpretation:
// the wire format is little-endian, so only little-endian hosts may memmove.
var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// bufPool recycles encode buffers; see GetBuffer/PutBuffer.
var bufPool = sync.Pool{
	New: func() any {
		buf := make([]byte, 0, 64<<10)
		return &buf
	},
}

// GetBuffer returns a pooled, zero-length byte slice to append an encoding
// into. Return it with PutBuffer once the bytes have been written out.
func GetBuffer() []byte { return (*(bufPool.Get().(*[]byte)))[:0] }

// maxPooledBuffer caps what PutBuffer recycles. The pool serves 64 KiB frame
// arenas; one buffer grown for an outsized frame must not pin its megabytes
// behind every later arena request.
const maxPooledBuffer = 4 << 20

// PutBuffer recycles a buffer obtained from GetBuffer. Moderate growth is
// kept (it is what makes the pool worthwhile); a buffer grown past
// maxPooledBuffer is dropped for the collector instead.
func PutBuffer(buf []byte) {
	if cap(buf) == 0 || cap(buf) > maxPooledBuffer {
		return
	}
	buf = buf[:0]
	bufPool.Put(&buf)
}

// appendFloats appends the little-endian bits of src: one memmove on
// little-endian hardware, a conversion loop elsewhere.
func appendFloats(dst []byte, src []float64) []byte {
	if len(src) == 0 {
		return dst
	}
	if nativeLittleEndian {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), 8*len(src))...)
	}
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeFloats converts exactly n float64s from payload (len must be 8n).
func decodeFloats(payload []byte, n int) []float64 {
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if nativeLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), 8*n), payload)
		return out
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return out
}

// fixFloatEndian turns values whose memory was filled with little-endian
// wire bytes into native floats: a no-op on little-endian hardware.
func fixFloatEndian(vals []float64) {
	if nativeLittleEndian {
		return
	}
	for i, v := range vals {
		vals[i] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(v)))
	}
}

// blockSource feeds one block payload to the decoders. U8 returns the next
// byte; take returns the next n bytes as a view valid until the next call;
// floats returns the next 8n bytes as a fresh []float64 — copied out of a
// byte slice, or read from the socket straight into the slice the block
// keeps. All fail with ErrBadFormat when the payload holds fewer bytes.
type blockSource interface {
	U8() (byte, error)
	take(n int) ([]byte, error)
	floats(n int) ([]float64, error)
	left() int
}

// memSource is blockSource over a payload already in memory.
type memSource struct{ buf []byte }

func (s *memSource) left() int { return len(s.buf) }

func (s *memSource) U8() (byte, error) {
	b, err := s.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (s *memSource) take(n int) ([]byte, error) {
	if n < 0 || n > len(s.buf) {
		return nil, fmt.Errorf("%w: payload truncated (%d bytes wanted, %d left)", ErrBadFormat, n, len(s.buf))
	}
	b := s.buf[:n]
	s.buf = s.buf[n:]
	return b, nil
}

func (s *memSource) floats(n int) ([]float64, error) {
	if n < 0 || n > len(s.buf)/8 {
		return nil, fmt.Errorf("%w: payload truncated (%d values wanted, %d bytes left)", ErrBadFormat, n, len(s.buf))
	}
	b, _ := s.take(8 * n)
	return decodeFloats(b, n), nil
}

// sourceUvarint reads one uvarint of a block payload.
func sourceUvarint(src blockSource) (uint64, error) { return readUvarint(src, ErrBadFormat) }

// AppendPortable appends the portable (on-disk) encoding of b to dst and
// returns the extended slice and the chunk tag. The bytes are identical to
// the original internal/storage encoder: dense blocks as TagDense, sparse
// blocks — CSC included, converted — as 64-bit TagCSR.
func AppendPortable(dst []byte, b matrix.Block) ([]byte, uint8, error) {
	switch v := b.(type) {
	case *matrix.Dense:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.RowsN))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.ColsN))
		dst = appendFloats(dst, v.Data)
		return dst, TagDense, nil
	case *matrix.CSR:
		return appendCSR64(dst, v), TagCSR, nil
	case *matrix.CSC:
		csr := matrix.NewCSRFromDense(v.Dense())
		return appendCSR64(dst, csr), TagCSR, nil
	default:
		return dst, 0, fmt.Errorf("codec: unsupported block type %T", b)
	}
}

func appendCSR64(dst []byte, v *matrix.CSR) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v.RowsN))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v.ColsN))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(v.Val)))
	for _, p := range v.RowPtr {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p))
	}
	for _, c := range v.ColIdx {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c))
	}
	return appendFloats(dst, v.Val)
}

// wirePlan decides the wire form of a block and its exact payload size, so
// AppendWire and EncodedBytes always agree: a sparse block's structure is
// encoded into a pooled scratch buffer by the encoder itself.
func wirePlan(b matrix.Block) (tag uint8, size int, err error) {
	switch v := b.(type) {
	case *matrix.Dense:
		return TagDense, 16 + 8*len(v.Data), nil
	case *matrix.CSR:
		return sparsePlan(v.RowsN, v.ColsN, v.RowPtr, v.ColIdx, len(v.Val), csrTags)
	case *matrix.CSC:
		return sparsePlan(v.ColsN, v.RowsN, v.ColPtr, v.RowIdx, len(v.Val), cscTags)
	default:
		return 0, 0, fmt.Errorf("codec: unsupported block type %T", b)
	}
}

func sparsePlan(major, minor int, ptr, idx []int, nnz int, tags sparseTags) (uint8, int, error) {
	buf := GetBuffer()
	out, tag, err := appendSparseStruct(buf, major, minor, ptr, idx, nnz, tags)
	n := len(out)
	PutBuffer(out)
	return tag, n + 8*nnz, err
}

func pointersOverflow32(ptr []int) bool {
	for _, p := range ptr {
		if p < 0 || p > math.MaxUint32 {
			return true
		}
	}
	return false
}

// coordWidth is the byte width of the coordinate form's coordinates for a
// major×minor block: one when both sides are at most 256, two when both are
// at most 65,536, and 0 — the form is not taken — above that.
func coordWidth(major, minor uint64) int {
	switch side := max(major, minor); {
	case side <= 1<<8:
		return 1
	case side <= 1<<16:
		return 2
	}
	return 0
}

// coordSize is the closed-form size of the coordinate form's structure
// (header and coordinates) and its width, or width 0 where the form is not
// taken. A line costs the form no byte, so it is also not taken where the
// whole payload would hold fewer bytes than the block has lines: a decoder
// then never allocates more than eight pointer bytes per byte it read, the
// bound the delta form's count bytes give.
func coordSize(major, minor, nnz int) (size, w int) {
	w = coordWidth(uint64(major), uint64(minor))
	size = uvarintLen(major) + uvarintLen(minor) + uvarintLen(nnz) + 2*w*nnz
	if w == 0 || major > size+8*nnz {
		return 0, 0
	}
	return size, w
}

func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// AppendWire appends the compact wire encoding of b to dst and returns the
// extended slice and the chosen tag. Unlike AppendPortable, the concrete
// type round-trips exactly — a CSC block decodes back to CSC — because the
// local-multiply kernels dispatch on the representation and the distributed
// product must stay bit-identical to a local one.
func AppendWire(dst []byte, b matrix.Block) ([]byte, uint8, error) {
	out, tag, tail, err := AppendWireSG(dst, b, EncodingFP64)
	if err != nil {
		return dst, 0, err
	}
	return append(out, tail...), tag, nil
}

// EncodedBytes returns the exact wire payload size of b — the bytes
// AppendWire would produce — so communication accounting (Eq. (4)
// comparisons, cache savings) uses the same numbers the socket sees.
// Unsupported block types report 0.
func EncodedBytes(b matrix.Block) int64 {
	_, size, err := wirePlan(b)
	if err != nil {
		return 0
	}
	return int64(size)
}

// Decode parses one (tag, payload) pair back into a block. It accepts every
// tag this package emits and applies the full hostile-input discipline:
// implausible dimensions, size mismatches, non-monotone pointers and
// out-of-range indices all return ErrBadFormat.
func Decode(tag uint8, payload []byte) (matrix.Block, error) {
	return decodeFrom(&memSource{buf: payload}, tag)
}

// decodeFrom decodes the whole of src as one block of the given tag. Every
// decoder checks the exact payload size its header implies before it
// allocates, so src is fully consumed on success.
func decodeFrom(src blockSource, tag uint8) (matrix.Block, error) {
	switch tag {
	case TagDense:
		return decodeDense(src)
	case TagCSR:
		return decodeCSR64(src)
	case TagCSR32, TagCSC32:
		return decodeSparse32(tag, src)
	case TagCSRDelta, TagCSCDelta:
		return decodeSparseDelta(tag, src)
	case TagCSRCoord, TagCSCCoord:
		return decodeSparseCoord(tag, src)
	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrBadFormat, tag)
	}
}

func decodeDense(src blockSource) (matrix.Block, error) {
	hdr, err := src.take(16)
	if err != nil {
		return nil, fmt.Errorf("%w: short dense payload", ErrBadFormat)
	}
	rows := int(binary.LittleEndian.Uint64(hdr[0:]))
	cols := int(binary.LittleEndian.Uint64(hdr[8:]))
	if rows < 0 || cols < 0 || rows > MaxBlockSide || cols > MaxBlockSide {
		return nil, fmt.Errorf("%w: implausible dense dimensions %dx%d", ErrBadFormat, rows, cols)
	}
	if src.left() != 8*rows*cols {
		return nil, fmt.Errorf("%w: dense payload size mismatch", ErrBadFormat)
	}
	vals, err := src.floats(rows * cols)
	if err != nil {
		return nil, err
	}
	return matrix.NewDenseData(rows, cols, vals), nil
}

func decodeCSR64(src blockSource) (matrix.Block, error) {
	hdr, err := src.take(24)
	if err != nil {
		return nil, fmt.Errorf("%w: short CSR payload", ErrBadFormat)
	}
	rows := int(binary.LittleEndian.Uint64(hdr[0:]))
	cols := int(binary.LittleEndian.Uint64(hdr[8:]))
	nnz := int(binary.LittleEndian.Uint64(hdr[16:]))
	if err := checkSparseDims(rows, cols, nnz); err != nil {
		return nil, err
	}
	if src.left() != 8*(rows+1+nnz+nnz) {
		return nil, fmt.Errorf("%w: CSR payload size mismatch", ErrBadFormat)
	}
	structural, err := src.take(8 * (rows + 1 + nnz))
	if err != nil {
		return nil, err
	}
	ptr := make([]int, rows+1)
	off := 0
	for i := range ptr {
		ptr[i] = int(binary.LittleEndian.Uint64(structural[off:]))
		off += 8
	}
	idx := make([]int, nnz)
	for i := range idx {
		idx[i] = int(binary.LittleEndian.Uint64(structural[off:]))
		off += 8
	}
	if err := checkSparseStructure(rows, cols, nnz, ptr, idx); err != nil {
		return nil, err
	}
	val, err := src.floats(nnz)
	if err != nil {
		return nil, err
	}
	return &matrix.CSR{RowsN: rows, ColsN: cols, RowPtr: ptr, ColIdx: idx, Val: val}, nil
}

func decodeSparse32(tag uint8, src blockSource) (matrix.Block, error) {
	hdr, err := src.take(12)
	if err != nil {
		return nil, fmt.Errorf("%w: short sparse32 payload", ErrBadFormat)
	}
	major := int(binary.LittleEndian.Uint32(hdr[0:]))
	minor := int(binary.LittleEndian.Uint32(hdr[4:]))
	nnz := int(binary.LittleEndian.Uint32(hdr[8:]))
	if err := checkSparseDims(major, minor, nnz); err != nil {
		return nil, err
	}
	if src.left() != 4*(major+1)+12*nnz {
		return nil, fmt.Errorf("%w: sparse32 payload size mismatch", ErrBadFormat)
	}
	structural, err := src.take(4 * (major + 1 + nnz))
	if err != nil {
		return nil, err
	}
	ptr := make([]int, major+1)
	off := 0
	for i := range ptr {
		ptr[i] = int(binary.LittleEndian.Uint32(structural[off:]))
		off += 4
	}
	idx := make([]int, nnz)
	for i := range idx {
		idx[i] = int(binary.LittleEndian.Uint32(structural[off:]))
		off += 4
	}
	if err := checkSparseStructure(major, minor, nnz, ptr, idx); err != nil {
		return nil, err
	}
	val, err := src.floats(nnz)
	if err != nil {
		return nil, err
	}
	if tag == TagCSR32 {
		return &matrix.CSR{RowsN: major, ColsN: minor, RowPtr: ptr, ColIdx: idx, Val: val}, nil
	}
	return &matrix.CSC{RowsN: minor, ColsN: major, ColPtr: ptr, RowIdx: idx, Val: val}, nil
}

// decodeDeltaHeader parses the varint dimensions of the
// TagCSRDelta/TagCSCDelta layout. Every major line costs at least one count
// byte and every entry at least one index byte plus its eight value bytes,
// so the allocations that follow are bounded by the bytes actually present —
// a forged header cannot force an outsized one.
func decodeDeltaHeader(src blockSource) (major, minor, nnz int, err error) {
	mj, mn, nz, err := readVarintHeader(src)
	if err != nil {
		return 0, 0, 0, err
	}
	if mj > MaxBlockSide || mn > MaxBlockSide || nz > uint64(MaxBlockSide)*uint64(MaxBlockSide) {
		return 0, 0, 0, fmt.Errorf("%w: implausible delta dimensions %dx%d nnz=%d", ErrBadFormat, mj, mn, nz)
	}
	if uint64(src.left()) < mj+9*nz {
		return 0, 0, 0, fmt.Errorf("%w: delta payload shorter than its own header promises", ErrBadFormat)
	}
	major, minor, nnz = int(mj), int(mn), int(nz)
	return major, minor, nnz, checkSparseDims(major, minor, nnz)
}

// readVarintHeader reads the varint major, minor and nnz that open the
// delta and coordinate forms.
func readVarintHeader(src blockSource) (mj, mn, nz uint64, err error) {
	mj, err1 := sourceUvarint(src)
	mn, err2 := sourceUvarint(src)
	nz, err3 := sourceUvarint(src)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, fmt.Errorf("%w: truncated sparse header", ErrBadFormat)
	}
	return mj, mn, nz, nil
}

// decodeDeltaIndex parses major lines of (entry count, first index, gaps)
// from the head of rest and returns the pointer and index arrays plus the
// bytes consumed. The one-byte varint — every count and almost every gap of
// a sparse block — is read in line; binary.Uvarint takes the rest.
func decodeDeltaIndex(rest []byte, major, minor, nnz int) (ptr, idx []int, used int, err error) {
	both := make([]int, major+1+nnz)
	ptr, idx = both[:major+1:major+1], both[major+1:]
	off, filled := 0, 0
	for i := 0; i < major; i++ {
		var cnt uint64
		if off < len(rest) && rest[off] < 0x80 {
			cnt = uint64(rest[off])
			off++
		} else {
			var n int
			if cnt, n = binary.Uvarint(rest[off:]); n <= 0 {
				return nil, nil, 0, fmt.Errorf("%w: truncated entry count", ErrBadFormat)
			}
			off += n
		}
		if cnt > uint64(nnz-filled) {
			return nil, nil, 0, fmt.Errorf("%w: entry counts exceed nnz", ErrBadFormat)
		}
		c := -1 // the line's last index; none yet
		for end := filled + int(cnt); filled < end; filled++ {
			var gap uint64
			if off < len(rest) && rest[off] < 0x80 {
				gap = uint64(rest[off])
				off++
			} else {
				var n int
				if gap, n = binary.Uvarint(rest[off:]); n <= 0 {
					return nil, nil, 0, fmt.Errorf("%w: truncated index stream", ErrBadFormat)
				}
				off += n
			}
			// A gap of minor or more leaves the line whatever its start,
			// and is refused before the add so it cannot wrap around.
			if c >= 0 && gap == 0 || gap >= uint64(minor) {
				return nil, nil, 0, fmt.Errorf("%w: index gap %d after %d in %d", ErrBadFormat, gap, c, minor)
			}
			if c < 0 {
				c = int(gap)
			} else if c += int(gap); c >= minor {
				return nil, nil, 0, fmt.Errorf("%w: index %d outside %d", ErrBadFormat, c, minor)
			}
			idx[filled] = c
		}
		ptr[i+1] = filled
	}
	if filled != nnz {
		return nil, nil, 0, fmt.Errorf("%w: entry counts do not sum to nnz", ErrBadFormat)
	}
	return ptr, idx, off, nil
}

func decodeSparseDelta(tag uint8, src blockSource) (matrix.Block, error) {
	major, minor, nnz, err := decodeDeltaHeader(src)
	if err != nil {
		return nil, err
	}
	// The values are raw, so the index stream is exactly what precedes them.
	rest, err := src.take(src.left() - 8*nnz)
	if err != nil {
		return nil, err
	}
	ptr, idx, used, err := decodeDeltaIndex(rest, major, minor, nnz)
	if err != nil {
		return nil, err
	}
	if used != len(rest) {
		return nil, fmt.Errorf("%w: delta payload size mismatch", ErrBadFormat)
	}
	val, err := src.floats(nnz)
	if err != nil {
		return nil, err
	}
	if tag == TagCSRDelta {
		return &matrix.CSR{RowsN: major, ColsN: minor, RowPtr: ptr, ColIdx: idx, Val: val}, nil
	}
	return &matrix.CSC{RowsN: minor, ColsN: major, ColPtr: ptr, RowIdx: idx, Val: val}, nil
}

// decodeSparseCoord decodes the TagCSRCoord/TagCSCCoord layout. The
// header must promise exactly the bytes that follow and no more lines than
// the payload has bytes (coordSize), so the pointer array is at most eight
// bytes per payload byte, and 65,537 pointers (512 KiB and one pointer)
// whatever the header claims. Each (line, index) pair must lie
// inside the block and come strictly after the one before; counting the
// entries of each line and a prefix sum then give the pointers.
func decodeSparseCoord(tag uint8, src blockSource) (matrix.Block, error) {
	payload := src.left()
	mj, mn, nz, err := readVarintHeader(src)
	if err != nil {
		return nil, err
	}
	w := coordWidth(mj, mn)
	entry := uint64(2*w + 8)
	if w == 0 || nz > uint64(src.left())/entry || uint64(src.left()) != entry*nz || mj > uint64(payload) {
		return nil, fmt.Errorf("%w: coordinate header %dx%d nnz=%d does not fit its %d-byte payload", ErrBadFormat, mj, mn, nz, payload)
	}
	major, minor, nnz := int(mj), int(mn), int(nz)
	if err := checkSparseDims(major, minor, nnz); err != nil {
		return nil, err
	}
	coords, err := src.take(2 * w * nnz)
	if err != nil {
		return nil, err
	}
	lines, mins := coords[:w*nnz], coords[w*nnz:]
	both := make([]int, major+1+nnz)
	ptr, idx := both[:major+1:major+1], both[major+1:]
	prev := -1
	for k := range idx {
		line, c := coordAt(lines, k, w), coordAt(mins, k, w)
		if line >= major || c >= minor || line<<16|c <= prev {
			return nil, fmt.Errorf("%w: coordinate (%d,%d) outside %dx%d or out of order", ErrBadFormat, line, c, major, minor)
		}
		prev = line<<16 | c
		ptr[line+1]++
		idx[k] = c
	}
	sum := 0
	for i, n := range ptr {
		sum += n
		ptr[i] = sum
	}
	val, err := src.floats(nnz)
	if err != nil {
		return nil, err
	}
	if tag == TagCSRCoord {
		return &matrix.CSR{RowsN: major, ColsN: minor, RowPtr: ptr, ColIdx: idx, Val: val}, nil
	}
	return &matrix.CSC{RowsN: minor, ColsN: major, ColPtr: ptr, RowIdx: idx, Val: val}, nil
}

// coordAt reads the k-th coordinate of a w-byte-wide little-endian array.
func coordAt(b []byte, k, w int) int {
	if w == 1 {
		return int(b[k])
	}
	return int(binary.LittleEndian.Uint16(b[2*k:]))
}

func checkSparseDims(major, minor, nnz int) error {
	if major < 0 || minor < 0 || major > MaxBlockSide || minor > MaxBlockSide {
		return fmt.Errorf("%w: implausible sparse dimensions %dx%d", ErrBadFormat, major, minor)
	}
	if nnz < 0 || (major > 0 && minor > 0 && nnz > major*minor) || (major*minor == 0 && nnz != 0) {
		return fmt.Errorf("%w: implausible entry count %d for %dx%d", ErrBadFormat, nnz, major, minor)
	}
	return nil
}

// checkSparseStructure rejects well-framed but hand-crafted payloads whose
// indices would panic later kernel reads.
func checkSparseStructure(major, minor, nnz int, ptr, idx []int) error {
	if ptr[0] != 0 || ptr[major] != nnz {
		return fmt.Errorf("%w: pointers do not span the entries", ErrBadFormat)
	}
	for i := 0; i < major; i++ {
		if ptr[i] > ptr[i+1] {
			return fmt.Errorf("%w: pointers not monotone", ErrBadFormat)
		}
	}
	for _, c := range idx {
		if c < 0 || c >= minor {
			return fmt.Errorf("%w: index %d outside %d", ErrBadFormat, c, minor)
		}
	}
	return nil
}
