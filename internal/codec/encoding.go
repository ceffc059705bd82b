// The wire encoder: one block to its compact wire form, written
// scatter-gather so raw float64 values leave from the block's own storage.

package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"distme/internal/matrix"
)

// Encoding names the wire value form of a block payload. EncodingFP64 is the
// only one; the type stays as the last argument of AppendWireSG and
// AppendWireEnc, which the repository benchmark calls with it.
type Encoding uint8

// EncodingFP64 is raw little-endian float64 values: a bit-identical round
// trip.
const EncodingFP64 Encoding = 0

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
// part of b's wire encoding to dst and, on a little-endian host, returns the
// value bytes as a zero-copy tail view of the block's own storage instead of
// copying them into dst. The frame writer ships (out, tail) as separate
// writev segments; out followed by tail is byte-identical to AppendWire's
// contiguous payload. A nil tail means everything landed in out (big-endian
// hosts, empty blocks). The tail aliases the block until the write
// completes. The Encoding argument can only be EncodingFP64.
func AppendWireSG(dst []byte, b matrix.Block, _ Encoding) (out []byte, tag uint8, tail []byte, err error) {
	var rawVals []float64
	switch v := b.(type) {
	case *matrix.Dense:
		dst = slices.Grow(dst, 16)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.RowsN))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.ColsN))
		tag, rawVals = TagDense, v.Data
	case *matrix.CSR:
		if dst, tag, err = appendSparseStruct(dst, v.RowsN, v.ColsN, v.RowPtr, v.ColIdx, len(v.Val), csrTags); err != nil {
			return dst, 0, nil, err
		}
		rawVals = v.Val
	case *matrix.CSC:
		if dst, tag, err = appendSparseStruct(dst, v.ColsN, v.RowsN, v.ColPtr, v.RowIdx, len(v.Val), cscTags); err != nil {
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

// sparseTags names one orientation's sparse forms; CSC has no 64-bit form,
// so a CSC block the 32-bit form cannot hold is refused.
type sparseTags struct {
	t32, delta, coord uint8
	has64             bool
}

var (
	csrTags = sparseTags{TagCSR32, TagCSRDelta, TagCSRCoord, true}
	cscTags = sparseTags{TagCSC32, TagCSCDelta, TagCSCCoord, false}
)

// appendSparseStruct appends the structural bytes of the smallest
// raw-valued sparse form; the values are the same in every form. The
// coordinate form, where it is taken (coordSize), is sized in closed form
// and is always smaller than the 32-bit form. The delta form spends at least
// a byte on every line and every entry: when the coordinate form is no
// larger than that it wins outright, and otherwise the delta form is encoded
// speculatively under the smaller of the other two sizes as a budget and
// abandoned when the structure is not eligible or the budget runs out — the
// delta form only when strictly smaller, without sizing the block first.
func appendSparseStruct(dst []byte, major, minor int, ptr, idx []int, nnz int, tags sparseTags) ([]byte, uint8, error) {
	// A delta-eligible structure has every pointer in [0, nnz], so the
	// pointer scan for the 32-bit form only runs when delta was abandoned.
	if fits := major <= math.MaxUint32-1 && minor <= math.MaxUint32 && nnz <= math.MaxUint32; fits {
		struct32 := 12 + 4*(major+1) + 4*nnz
		coord, w := coordSize(major, minor, nnz)
		// Beside the header both share, delta's floor is major+nnz bytes
		// and the coordinate form's structure 2w·nnz.
		if w == 0 || major+nnz < 2*w*nnz {
			budget := struct32
			if w > 0 {
				budget = coord
			}
			dst = slices.Grow(dst, budget)
			if out, ok := appendSparseDeltaStruct(dst, major, minor, ptr, idx, nnz, budget-1); ok {
				return out, tags.delta, nil
			}
		}
		if w > 0 {
			if out, ok := appendSparseCoordStruct(dst, major, minor, ptr, idx, nnz, w); ok {
				return out, tags.coord, nil
			}
		}
		if !pointersOverflow32(ptr) {
			return appendSparse32Struct(slices.Grow(dst, struct32), major, minor, ptr, idx, nnz), tags.t32, nil
		}
	}
	if !tags.has64 {
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

// appendSparseCoordStruct appends the coordinate form's header and its line
// and index coordinates, w bytes each. Every line after the first marks the
// entry it begins at with its number, the last of several empty lines
// winning, and a running maximum of the marks gives each entry its line, so
// no loop walks the lines' entries. It reports false, with dst unchanged,
// when the structure is not canonical: monotone pointers spanning the
// entries, indices inside minor and strictly increasing along each line.
func appendSparseCoordStruct(dst []byte, major, minor int, ptr, idx []int, nnz, w int) ([]byte, bool) {
	if len(ptr) != major+1 || ptr[0] != 0 || ptr[major] != nnz || len(idx) < nnz {
		return dst, false
	}
	out := binary.AppendUvarint(dst, uint64(major))
	out = binary.AppendUvarint(out, uint64(minor))
	out = binary.AppendUvarint(out, uint64(nnz))
	base := len(out)
	out = slices.Grow(out, 2*w*nnz)[:base+2*w*nnz]
	lines, mins := out[base:base+w*nnz], out[base+w*nnz:]
	clear(lines)
	for i, last := 1, 0; i <= major; i++ {
		p := ptr[i]
		if p < last {
			return dst, false
		}
		if last = p; p < nnz {
			setCoord(lines, p, w, i)
		}
	}
	prev, line := -1, 0
	for k, c := range idx[:nnz] {
		line = max(line, coordAt(lines, k, w))
		if c < 0 || c >= minor || line<<16|c <= prev {
			return dst, false
		}
		prev = line<<16 | c
		setCoord(lines, k, w, line)
		setCoord(mins, k, w, c)
	}
	return out, true
}

// setCoord writes v as the k-th coordinate of a w-byte-wide little-endian
// array.
func setCoord(b []byte, k, w, v int) {
	if w == 1 {
		b[k] = byte(v)
	} else {
		binary.LittleEndian.PutUint16(b[2*k:], uint16(v))
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
// and is the one place the form's eligibility is decided: monotone pointers
// spanning the entries, strictly increasing non-negative indices per line.
// It reports false, with dst unchanged, when the structure is not eligible
// or the stream outgrows budget bytes.
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

// AppendWireEnc is AppendWire with the Encoding argument AppendWireSG takes,
// which can only be EncodingFP64.
func AppendWireEnc(dst []byte, b matrix.Block, _ Encoding) ([]byte, uint8, error) {
	return AppendWire(dst, b)
}
