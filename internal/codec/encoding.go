// Opt-in wire encodings. The default wire form (EncodingFP64) ships raw
// little-endian float64 values and is bit-exact; two cheaper modes trade
// bytes for either precision or encode time:
//
//   - EncodingFP32 stores values as float32 (tags TagDenseF32, TagCSRF32,
//     TagCSCF32). It is lossy: each value is rounded to the nearest float32
//     on encode and widened back on decode, so round-tripped values carry a
//     relative error of at most 2^-24 (≈6e-8) per element, and values
//     outside float32 range overflow to ±Inf. Callers must opt in
//     explicitly; sparse blocks whose dimensions or entry counts do not fit
//     32 bits fall back to the lossless 64-bit form.
//   - EncodingCompress is lossless: values travel as a varint stream of
//     XOR-ed consecutive float64 bit patterns (the Gorilla trick — repeated
//     or structured values compress hard, white noise does not), with
//     delta+varint indices on sparse blocks (tags TagDenseXor, TagCSRXor,
//     TagCSCXor). Per block, the encoder compares against the raw plan and
//     keeps whichever is smaller, so a compressed send is never larger
//     than the default one.
//
// Both directions of the RPC path accept every tag unconditionally; the
// mode only steers the encoder, so mixed-mode traffic decodes fine.

package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"distme/internal/matrix"
)

// Opt-in encoding tags (continuing the wire tag space of codec.go).
const (
	// TagDenseF32 is a dense payload with float32 values: u64 rows, u64
	// cols, raw float32 values.
	TagDenseF32 uint8 = 6
	// TagCSRF32 is the 32-bit CSR layout of TagCSR32 with float32 values.
	TagCSRF32 uint8 = 7
	// TagCSCF32 is the CSC mirror of TagCSRF32.
	TagCSCF32 uint8 = 8
	// TagDenseXor is a dense payload with XOR+varint-compressed values:
	// u64 rows, u64 cols, then rows·cols uvarints, each the XOR of one
	// value's float64 bits with the previous value's (first value XOR 0).
	TagDenseXor uint8 = 9
	// TagCSRXor is the delta+varint index layout of TagCSRDelta with
	// XOR+varint-compressed values.
	TagCSRXor uint8 = 10
	// TagCSCXor is the CSC mirror of TagCSRXor.
	TagCSCXor uint8 = 11
)

// Encoding selects the wire value encoding for a job's block payloads.
// The zero value is the bit-exact default.
type Encoding uint8

const (
	// EncodingFP64 is the default: raw little-endian float64 values,
	// bit-identical round trip.
	EncodingFP64 Encoding = 0
	// EncodingFP32 halves value bytes by rounding to float32 — lossy,
	// explicit opt-in only (see the package comment for error semantics).
	EncodingFP32 Encoding = 1
	// EncodingCompress XOR+varint-compresses values losslessly, falling
	// back to the raw form per block when compression does not win.
	EncodingCompress Encoding = 2
)

// Valid reports whether e is a known encoding.
func (e Encoding) Valid() bool { return e <= EncodingCompress }

// String names the encoding for options, logs, and bench rows.
func (e Encoding) String() string {
	switch e {
	case EncodingFP64:
		return "fp64"
	case EncodingFP32:
		return "fp32"
	case EncodingCompress:
		return "compress"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

// PlanRatio is the nominal repartition-bytes ratio of the encoding
// relative to EncodingFP64, for Eq.(4) pricing before any block has been
// encoded: fp32 halves value bytes (values dominate every form), and the
// compressed mode is credited a conservative 15% — its per-block fallback
// guarantees the true ratio never exceeds 1.
func (e Encoding) PlanRatio() float64 {
	switch e {
	case EncodingFP32:
		return 0.5
	case EncodingCompress:
		return 0.85
	default:
		return 1.0
	}
}

// wirePlanEnc extends wirePlan with the opt-in encodings: it decides the
// tag and exact payload size AppendWireEnc would produce for b under enc.
func wirePlanEnc(b matrix.Block, enc Encoding) (tag uint8, size int, err error) {
	switch enc {
	case EncodingFP32:
		return planF32(b)
	case EncodingCompress:
		return planCompress(b)
	default:
		return wirePlan(b)
	}
}

func planF32(b matrix.Block) (uint8, int, error) {
	switch v := b.(type) {
	case *matrix.Dense:
		return TagDenseF32, 16 + 4*len(v.Data), nil
	case *matrix.CSR:
		if sparseOverflows32(v.RowsN, v.ColsN, v.RowPtr, len(v.Val)) {
			// Indices too large for the 32-bit layout: stay lossless.
			return wirePlan(b)
		}
		return TagCSRF32, 12 + 4*(v.RowsN+1) + 4*len(v.Val) + 4*len(v.Val), nil
	case *matrix.CSC:
		if sparseOverflows32(v.ColsN, v.RowsN, v.ColPtr, len(v.Val)) {
			return wirePlan(b)
		}
		return TagCSCF32, 12 + 4*(v.ColsN+1) + 4*len(v.Val) + 4*len(v.Val), nil
	default:
		return 0, 0, fmt.Errorf("codec: unsupported block type %T", b)
	}
}

func sparseOverflows32(major, minor int, ptr []int, nnz int) bool {
	return major > math.MaxUint32-1 || minor > math.MaxUint32 || nnz > math.MaxUint32 ||
		pointersOverflow32(ptr)
}

func planCompress(b matrix.Block) (uint8, int, error) {
	rawTag, rawSize, err := wirePlan(b)
	if err != nil {
		return 0, 0, err
	}
	switch v := b.(type) {
	case *matrix.Dense:
		if size := 16 + xorFloatsSize(v.Data); size < rawSize {
			return TagDenseXor, size, nil
		}
	case *matrix.CSR:
		if structural, ok := deltaSize(v.RowsN, v.ColsN, v.RowPtr, v.ColIdx, len(v.Val)); ok {
			if size := structural - 8*len(v.Val) + xorFloatsSize(v.Val); size < rawSize {
				return TagCSRXor, size, nil
			}
		}
	case *matrix.CSC:
		if structural, ok := deltaSize(v.ColsN, v.RowsN, v.ColPtr, v.RowIdx, len(v.Val)); ok {
			if size := structural - 8*len(v.Val) + xorFloatsSize(v.Val); size < rawSize {
				return TagCSCXor, size, nil
			}
		}
	}
	return rawTag, rawSize, nil
}

// xorFloatsSize sizes the XOR+varint value stream of vals.
func xorFloatsSize(vals []float64) int {
	n := 0
	var prev uint64
	for _, v := range vals {
		bits := math.Float64bits(v)
		n += uvarintLen(bits ^ prev)
		prev = bits
	}
	return n
}

// appendXorFloats appends vals as uvarints of consecutive-bit XORs.
func appendXorFloats(dst []byte, vals []float64) []byte {
	var prev uint64
	for _, v := range vals {
		bits := math.Float64bits(v)
		dst = binary.AppendUvarint(dst, bits^prev)
		prev = bits
	}
	return dst
}

func appendF32(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	return dst
}

// valueBytes reinterprets raw float64 storage as bytes without copying —
// to send values from where they lie, or to land a socket read in the slice
// a block keeps. The bytes are the little-endian wire form only on
// little-endian hosts (readers call fixFloatEndian afterwards), and the view
// must not outlive the backing slice.
func valueBytes(vals []float64) []byte {
	if len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), 8*len(vals))
}

// AppendWireSG is the scatter-gather encoder: it appends the structural
// part of b's encoding under enc to dst and, when the chosen wire form
// ends in raw float64 bytes on a little-endian host, returns the value
// bytes as a zero-copy tail view of the block's own storage instead of
// copying them into dst. The frame writer ships (out, tail) as separate
// writev segments; out followed by tail is byte-identical to
// AppendWireEnc's contiguous payload. A nil tail means everything landed
// in out (non-raw value encodings, big-endian hosts, empty blocks). The
// tail aliases the block until the write completes.
func AppendWireSG(dst []byte, b matrix.Block, enc Encoding) (out []byte, tag uint8, tail []byte, err error) {
	if enc != EncodingFP64 {
		var size int
		if tag, size, err = wirePlanEnc(b, enc); err != nil {
			return dst, 0, nil, err
		}
		// A raw tag here is the per-block fallback (compression did not win,
		// or the indices do not fit the fp32 layout): the raw encoder below
		// makes the same choice wirePlan did.
		if tag > TagCSCDelta {
			return appendEncoded(slices.Grow(dst, size), b, tag), tag, nil, nil
		}
	}
	var rawVals []float64
	switch v := b.(type) {
	case *matrix.Dense:
		dst = slices.Grow(dst, 16)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.RowsN))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.ColsN))
		tag, rawVals = TagDense, v.Data
	case *matrix.CSR:
		if dst, tag, err = appendSparseStruct(dst, v.RowsN, v.ColsN, v.RowPtr, v.ColIdx, len(v.Val), TagCSR32, TagCSRDelta, TagCSR); err != nil {
			return dst, 0, nil, err
		}
		rawVals = v.Val
	case *matrix.CSC:
		if dst, tag, err = appendSparseStruct(dst, v.ColsN, v.RowsN, v.ColPtr, v.RowIdx, len(v.Val), TagCSC32, TagCSCDelta, TagCSC32); err != nil {
			return dst, 0, nil, err
		}
		rawVals = v.Val
	default:
		return dst, 0, nil, fmt.Errorf("codec: unsupported block type %T", b)
	}
	if nativeLittleEndian && len(rawVals) > 0 {
		return dst, tag, valueBytes(rawVals), nil
	}
	return appendFloats(dst, rawVals), tag, nil, nil
}

// appendSparseStruct appends the structural bytes of the raw-valued sparse
// form sparsePlan would choose, deciding in one pass over the indices: the
// delta+varint form is encoded speculatively under the 32-bit form's size as
// a budget, and abandoned for the 32-bit form when the structure is not
// delta-eligible or the budget runs out — the same "delta only when strictly
// smaller" rule, without sizing the block first.
func appendSparseStruct(dst []byte, major, minor int, ptr, idx []int, nnz int, tag32, tagDelta, fallback64 uint8) ([]byte, uint8, error) {
	// A delta-eligible structure has every pointer in [0, nnz], so the
	// pointer scan of sparseOverflows32 only runs when delta was abandoned.
	if fits := major <= math.MaxUint32-1 && minor <= math.MaxUint32 && nnz <= math.MaxUint32; fits {
		struct32 := 12 + 4*(major+1) + 4*nnz
		dst = slices.Grow(dst, struct32)
		if out, ok := appendSparseDeltaStruct(dst, major, minor, ptr, idx, nnz, struct32-1); ok {
			return out, tagDelta, nil
		}
		if !pointersOverflow32(ptr) {
			return appendSparse32Struct(dst, major, minor, ptr, idx, nnz), tag32, nil
		}
	}
	if fallback64 != TagCSR {
		return dst, 0, fmt.Errorf("codec: CSC block %dx%d too large for the wire", major, minor)
	}
	dst = slices.Grow(dst, 24+8*(len(ptr)+nnz))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(major))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(minor))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(nnz))
	for _, p := range ptr {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p))
	}
	for _, c := range idx {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c))
	}
	return dst, TagCSR, nil
}

// appendEncoded appends the whole payload of one opt-in (fp32 or XOR) tag.
func appendEncoded(dst []byte, b matrix.Block, tag uint8) []byte {
	switch tag {
	case TagDenseF32, TagDenseXor:
		v := b.(*matrix.Dense)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.RowsN))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.ColsN))
		if tag == TagDenseF32 {
			return appendF32(dst, v.Data)
		}
		return appendXorFloats(dst, v.Data)
	case TagCSRF32:
		v := b.(*matrix.CSR)
		return appendF32(appendSparse32Struct(dst, v.RowsN, v.ColsN, v.RowPtr, v.ColIdx, len(v.Val)), v.Val)
	case TagCSCF32:
		v := b.(*matrix.CSC)
		return appendF32(appendSparse32Struct(dst, v.ColsN, v.RowsN, v.ColPtr, v.RowIdx, len(v.Val)), v.Val)
	case TagCSRXor:
		v := b.(*matrix.CSR)
		dst, _ = appendSparseDeltaStruct(dst, v.RowsN, v.ColsN, v.RowPtr, v.ColIdx, len(v.Val), math.MaxInt)
		return appendXorFloats(dst, v.Val)
	default: // TagCSCXor
		v := b.(*matrix.CSC)
		dst, _ = appendSparseDeltaStruct(dst, v.ColsN, v.RowsN, v.ColPtr, v.RowIdx, len(v.Val), math.MaxInt)
		return appendXorFloats(dst, v.Val)
	}
}

// appendSparse32Struct appends the 32-bit header, pointers and indices.
func appendSparse32Struct(dst []byte, major, minor int, ptr, idx []int, nnz int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(major))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(minor))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(nnz))
	for _, p := range ptr {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p))
	}
	for _, c := range idx {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c))
	}
	return dst
}

// appendSparseDeltaStruct appends the delta+varint header and index stream,
// and is the one place the form's eligibility is decided (deltaSize sizes
// blocks through it): monotone pointers spanning the entries, strictly
// increasing non-negative indices per line. It reports false, with dst
// unchanged, when the structure is not eligible or the stream outgrows budget
// bytes.
func appendSparseDeltaStruct(dst []byte, major, minor int, ptr, idx []int, nnz int, budget int) ([]byte, bool) {
	if len(ptr) != major+1 || ptr[0] != 0 || ptr[major] != nnz {
		return dst, false
	}
	mark := len(dst)
	out := binary.AppendUvarint(dst, uint64(major))
	out = binary.AppendUvarint(out, uint64(minor))
	out = binary.AppendUvarint(out, uint64(nnz))
	for i := 0; i < major; i++ {
		lo, hi := ptr[i], ptr[i+1]
		if hi < lo || hi > nnz || len(out)-mark > budget {
			return dst, false
		}
		out = binary.AppendUvarint(out, uint64(hi-lo))
		prev := -1
		for k := lo; k < hi; k++ {
			c := idx[k]
			if c <= prev {
				return dst, false
			}
			if prev < 0 {
				out = binary.AppendUvarint(out, uint64(c))
			} else {
				out = binary.AppendUvarint(out, uint64(c-prev))
			}
			prev = c
		}
	}
	if len(out)-mark > budget {
		return dst, false
	}
	return out, true
}

// AppendWireEnc appends the contiguous wire encoding of b under enc —
// AppendWire generalized over the opt-in encodings. EncodingFP64 produces
// exactly AppendWire's bytes.
func AppendWireEnc(dst []byte, b matrix.Block, enc Encoding) ([]byte, uint8, error) {
	out, tag, tail, err := AppendWireSG(dst, b, enc)
	if err != nil {
		return dst, 0, err
	}
	return append(out, tail...), tag, nil
}

// EncodedBytesEnc is EncodedBytes under an explicit encoding: the exact
// payload size AppendWireEnc would produce. Unsupported block types
// report 0.
func EncodedBytesEnc(b matrix.Block, enc Encoding) int64 {
	_, size, err := wirePlanEnc(b, enc)
	if err != nil {
		return 0
	}
	return int64(size)
}

// ---------------------------------------------------------------------------
// Decoders for the opt-in tags (wired into decodeFrom's switch).

// decodeEncoded decodes one fp32 or XOR payload held in memory.
func decodeEncoded(tag uint8, payload []byte) (matrix.Block, error) {
	src := &memSource{buf: payload}
	switch tag {
	case TagDenseF32, TagDenseXor:
		return decodeDenseEncoded(tag, src)
	case TagCSRF32, TagCSCF32:
		return decodeSparseF32(tag, src)
	default: // TagCSRXor, TagCSCXor
		return decodeSparseXor(tag, src)
	}
}

func decodeDenseEncoded(tag uint8, src *memSource) (matrix.Block, error) {
	hdr, err := src.take(16)
	if err != nil {
		return nil, fmt.Errorf("%w: short dense payload", ErrBadFormat)
	}
	rows := int(binary.LittleEndian.Uint64(hdr[0:]))
	cols := int(binary.LittleEndian.Uint64(hdr[8:]))
	if rows < 0 || cols < 0 || rows > MaxBlockSide || cols > MaxBlockSide {
		return nil, fmt.Errorf("%w: implausible dense dimensions %dx%d", ErrBadFormat, rows, cols)
	}
	n := rows * cols
	if tag == TagDenseF32 {
		if len(src.buf) != 4*n {
			return nil, fmt.Errorf("%w: dense-f32 payload size mismatch", ErrBadFormat)
		}
		return matrix.NewDenseData(rows, cols, decodeF32(src.buf, n)), nil
	}
	// Every value costs at least one varint byte, so the allocation is
	// bounded by the bytes actually present.
	if len(src.buf) < n {
		return nil, fmt.Errorf("%w: dense-xor payload shorter than its header promises", ErrBadFormat)
	}
	vals, err := decodeXorFloats(src.buf, n)
	if err != nil {
		return nil, err
	}
	return matrix.NewDenseData(rows, cols, vals), nil
}

func decodeF32(payload []byte, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:])))
	}
	return out
}

func decodeSparseF32(tag uint8, src *memSource) (matrix.Block, error) {
	major, minor, nnz, ptr, idx, err := decodeSparse32Struct(src, 4)
	if err != nil {
		return nil, err
	}
	val := decodeF32(src.buf, nnz)
	if tag == TagCSRF32 {
		return &matrix.CSR{RowsN: major, ColsN: minor, RowPtr: ptr, ColIdx: idx, Val: val}, nil
	}
	return &matrix.CSC{RowsN: minor, ColsN: major, ColPtr: ptr, RowIdx: idx, Val: val}, nil
}

// decodeXorFloats parses exactly n XOR+varint values, which must be the
// whole of payload.
func decodeXorFloats(payload []byte, n int) ([]float64, error) {
	out := make([]float64, n)
	var prev uint64
	off := 0
	for i := range out {
		x, k := binary.Uvarint(payload[off:])
		if k <= 0 {
			return nil, fmt.Errorf("%w: truncated xor value stream", ErrBadFormat)
		}
		off += k
		prev ^= x
		out[i] = math.Float64frombits(prev)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: xor payload size mismatch", ErrBadFormat)
	}
	return out, nil
}

func decodeSparseXor(tag uint8, src *memSource) (matrix.Block, error) {
	// One count byte per major line, one index byte and one value byte per
	// entry at minimum: allocations stay bounded by the input.
	major, minor, nnz, err := decodeDeltaHeader(src, 1)
	if err != nil {
		return nil, err
	}
	ptr, idx, used, err := decodeDeltaIndex(src.buf, major, minor, nnz)
	if err != nil {
		return nil, err
	}
	vals, err := decodeXorFloats(src.buf[used:], nnz)
	if err != nil {
		return nil, err
	}
	if tag == TagCSRXor {
		return &matrix.CSR{RowsN: major, ColsN: minor, RowPtr: ptr, ColIdx: idx, Val: vals}, nil
	}
	return &matrix.CSC{RowsN: minor, ColsN: major, ColPtr: ptr, RowIdx: idx, Val: vals}, nil
}
