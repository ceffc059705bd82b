package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"distme/internal/matrix"
)

func randDense(rng *rand.Rand, rows, cols int) *matrix.Dense {
	d := matrix.NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func randSparseDense(rng *rand.Rand, rows, cols int, density float64) *matrix.Dense {
	d := matrix.NewDense(rows, cols)
	for i := range d.Data {
		if rng.Float64() < density {
			d.Data[i] = rng.NormFloat64()
		}
	}
	return d
}

// testBlocks is a menagerie of shapes: all three representations, empty,
// single-element, ragged, denser and sparser structure (exercising both the
// 32-bit and the delta sparse wire forms).
func testBlocks(t testing.TB) []matrix.Block {
	rng := rand.New(rand.NewSource(7))
	sp := randSparseDense(rng, 64, 48, 0.05)
	dn := randSparseDense(rng, 32, 32, 0.6)
	return []matrix.Block{
		randDense(rng, 16, 16),
		randDense(rng, 1, 1),
		matrix.NewDense(3, 5), // all zeros
		matrix.NewCSRFromDense(sp),
		matrix.NewCSRFromDense(dn),
		matrix.NewCSRFromDense(matrix.NewDense(7, 9)), // empty CSR
		matrix.NewCSCFromDense(sp),
		matrix.NewCSCFromDense(dn),
		matrix.NewCSCFromDense(matrix.NewDense(9, 7)), // empty CSC
		randDense(rng, 2, 37),
	}
}

func blocksEqualExact(t *testing.T, want, got matrix.Block) {
	t.Helper()
	wr, wc := want.Dims()
	gr, gc := got.Dims()
	if wr != gr || wc != gc {
		t.Fatalf("dims %dx%d, want %dx%d", gr, gc, wr, wc)
	}
	wd, gd := want.Dense(), got.Dense()
	for i := range wd.Data {
		if math.Float64bits(wd.Data[i]) != math.Float64bits(gd.Data[i]) {
			t.Fatalf("value %d: %v != %v", i, gd.Data[i], wd.Data[i])
		}
	}
}

// TestWireRoundTrip: every block must decode back bit-identical AND with
// the same concrete representation — the multiply kernels dispatch on the
// concrete type, so a CSC that came back as CSR could change the result
// bits of a distributed multiply.
func TestWireRoundTrip(t *testing.T) {
	for i, b := range testBlocks(t) {
		payload, tag, err := AppendWire(nil, b)
		if err != nil {
			t.Fatalf("block %d: AppendWire: %v", i, err)
		}
		if int64(len(payload)) != EncodedBytes(b) {
			t.Fatalf("block %d: EncodedBytes %d != actual %d", i, EncodedBytes(b), len(payload))
		}
		got, err := Decode(tag, payload)
		if err != nil {
			t.Fatalf("block %d: Decode(tag %d): %v", i, tag, err)
		}
		switch b.(type) {
		case *matrix.Dense:
			if _, ok := got.(*matrix.Dense); !ok {
				t.Fatalf("block %d: Dense came back as %T", i, got)
			}
		case *matrix.CSR:
			if _, ok := got.(*matrix.CSR); !ok {
				t.Fatalf("block %d: CSR came back as %T", i, got)
			}
		case *matrix.CSC:
			if _, ok := got.(*matrix.CSC); !ok {
				t.Fatalf("block %d: CSC came back as %T", i, got)
			}
		}
		blocksEqualExact(t, b, got)
	}
}

// TestPortableRoundTrip: the portable form must decode losslessly too (CSC
// legitimately returns as CSR there — the on-disk format predates CSC).
func TestPortableRoundTrip(t *testing.T) {
	for i, b := range testBlocks(t) {
		payload, tag, err := AppendPortable(nil, b)
		if err != nil {
			t.Fatalf("block %d: AppendPortable: %v", i, err)
		}
		if tag != TagDense && tag != TagCSR {
			t.Fatalf("block %d: portable tag %d outside the on-disk set", i, tag)
		}
		got, err := Decode(tag, payload)
		if err != nil {
			t.Fatalf("block %d: Decode: %v", i, err)
		}
		blocksEqualExact(t, b, got)
	}
}

// TestPortableMatchesLegacyLayout hand-encodes the legacy storage layout
// for a dense and a CSR block and checks AppendPortable reproduces it
// byte-for-byte (the storage golden-file test pins the full-file version of
// this; here the layout itself is the contract).
func TestPortableMatchesLegacyLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := randDense(rng, 3, 4)
	want := make([]byte, 0, 16+8*12)
	want = binary.LittleEndian.AppendUint64(want, 3)
	want = binary.LittleEndian.AppendUint64(want, 4)
	for _, x := range d.Data {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(x))
	}
	got, tag, err := AppendPortable(nil, d)
	if err != nil || tag != TagDense || !bytes.Equal(got, want) {
		t.Fatalf("dense portable layout drifted (tag %d, err %v)", tag, err)
	}

	s := matrix.NewCSRFromDense(randSparseDense(rng, 4, 5, 0.3))
	want = want[:0]
	want = binary.LittleEndian.AppendUint64(want, uint64(s.RowsN))
	want = binary.LittleEndian.AppendUint64(want, uint64(s.ColsN))
	want = binary.LittleEndian.AppendUint64(want, uint64(len(s.Val)))
	for _, p := range s.RowPtr {
		want = binary.LittleEndian.AppendUint64(want, uint64(p))
	}
	for _, c := range s.ColIdx {
		want = binary.LittleEndian.AppendUint64(want, uint64(c))
	}
	for _, x := range s.Val {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(x))
	}
	got, tag, err = AppendPortable(nil, s)
	if err != nil || tag != TagCSR || !bytes.Equal(got, want) {
		t.Fatalf("CSR portable layout drifted (tag %d, err %v)", tag, err)
	}
}

// TestWirePicksCompactForm: a very sparse wide block should take the delta
// form and beat both the 32-bit and the portable 64-bit encodings, and a
// hypersparse one the coordinate form.
func TestWirePicksCompactForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := matrix.NewCSRFromDense(randSparseDense(rng, 128, 128, 0.02))
	payload, tag, err := AppendWire(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if tag != TagCSRDelta {
		t.Fatalf("2%% dense CSR picked tag %d, want delta", tag)
	}
	portable, _, _ := AppendPortable(nil, s)
	size32 := 12 + 4*(s.RowsN+1) + 4*len(s.Val) + 8*len(s.Val)
	if len(payload) >= size32 || len(payload) >= len(portable) {
		t.Fatalf("delta form (%d bytes) not smaller than 32-bit (%d) and portable (%d)", len(payload), size32, len(portable))
	}

	// A hypersparse block — far fewer entries than rows — takes the
	// coordinate form, smaller still.
	hyper := matrix.RandomSparse(rng, 256, 256, 0.001)
	payload, tag, err = AppendWire(nil, hyper)
	if err != nil {
		t.Fatal(err)
	}
	delta, _ := appendSparseDeltaStruct(nil, 256, 256, hyper.RowPtr, hyper.ColIdx, len(hyper.Val), math.MaxInt)
	if tag != TagCSRCoord || len(payload) >= len(delta)+8*len(hyper.Val) {
		t.Fatalf("0.1%% dense 256² CSR picked tag %d (%d bytes), want the coordinate form under delta's %d", tag, len(payload), len(delta)+8*len(hyper.Val))
	}

	// Unsorted or repeated column indices are neither delta- nor
	// coordinate-eligible: the encoder must fall back to the fixed 32-bit
	// form and still round-trip the exact index order. Neither form takes
	// pointers that go backwards either.
	for _, odd := range []*matrix.CSR{
		{RowsN: 2, ColsN: 8, RowPtr: []int{0, 2, 3}, ColIdx: []int{5, 1, 3}, Val: []float64{1, 2, 3}},
		{RowsN: 2, ColsN: 8, RowPtr: []int{0, 2, 3}, ColIdx: []int{1, 1, 3}, Val: []float64{1, 2, 3}},
	} {
		payload, tag, err = AppendWire(nil, odd)
		if err != nil {
			t.Fatal(err)
		}
		if tag != TagCSR32 {
			t.Fatalf("row 0 %v picked tag %d, want CSR32 fallback", odd.ColIdx[:2], tag)
		}
		back, err := Decode(tag, payload)
		if err != nil {
			t.Fatal(err)
		}
		if bc := back.(*matrix.CSR); !slices.Equal(bc.ColIdx, odd.ColIdx) {
			t.Fatalf("index order not preserved: %v != %v", bc.ColIdx, odd.ColIdx)
		}
	}
	backwards := &matrix.CSR{RowsN: 3, ColsN: 8, RowPtr: []int{0, 2, 1, 3}, ColIdx: []int{1, 4, 6}, Val: []float64{1, 2, 3}}
	if _, tag, _ := AppendWire(nil, backwards); tag != TagCSR32 {
		t.Fatalf("pointers going backwards picked tag %d, want CSR32", tag)
	}
}

// TestDecodeHostileInput spot-checks the hardening: truncation, implausible
// dimensions, structural lies, all surfacing as ErrBadFormat.
func TestDecodeHostileInput(t *testing.T) {
	huge := binary.LittleEndian.AppendUint64(nil, 1<<40)
	huge = binary.LittleEndian.AppendUint64(huge, 4)
	// A 1×8 delta block whose line holds index 5, then a gap of 2⁶⁴−3: as
	// an int that gap is −3, which would land on index 2 — backwards.
	wrapped := []byte{1, 8, 2, 2, 5}
	wrapped = binary.AppendUvarint(wrapped, 1<<64-3)
	wrapped = append(wrapped, make([]byte, 16)...)
	cases := []struct {
		name    string
		tag     uint8
		payload []byte
	}{
		{"unknown tag", 99, nil},
		{"dense short", TagDense, []byte{1, 2, 3}},
		{"dense huge dims", TagDense, huge},
		{"csr short", TagCSR, make([]byte, 8)},
		{"csr32 short", TagCSR32, make([]byte, 4)},
		{"csc32 short", TagCSC32, make([]byte, 11)},
		{"delta empty", TagCSRDelta, nil},
		{"delta truncated counts", TagCSRDelta, []byte{4, 4, 2}},
		{"delta nnz lie", TagCSCDelta, []byte{2, 2, 200, 1, 0}},
		{"delta gap wraps backwards", TagCSRDelta, wrapped},
		{"delta gap past the line", TagCSRDelta, append([]byte{1, 8, 2, 2, 0, 8}, make([]byte, 16)...)},
	}
	for _, c := range cases {
		if _, err := Decode(c.tag, c.payload); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		} else if !errorsIsBadFormat(err) {
			t.Errorf("%s: error %v is not ErrBadFormat", c.name, err)
		}
	}

	// Well-framed but structurally hostile: out-of-range column index.
	bad := binary.LittleEndian.AppendUint32(nil, 1) // rows
	bad = binary.LittleEndian.AppendUint32(bad, 2)  // cols
	bad = binary.LittleEndian.AppendUint32(bad, 1)  // nnz
	bad = binary.LittleEndian.AppendUint32(bad, 0)  // rowptr[0]
	bad = binary.LittleEndian.AppendUint32(bad, 1)  // rowptr[1]
	bad = binary.LittleEndian.AppendUint32(bad, 7)  // colidx out of range
	bad = binary.LittleEndian.AppendUint64(bad, math.Float64bits(1.0))
	if _, err := Decode(TagCSR32, bad); err == nil || !errorsIsBadFormat(err) {
		t.Errorf("out-of-range index: got %v, want ErrBadFormat", err)
	}
}

func errorsIsBadFormat(err error) bool {
	for err != nil {
		if err == ErrBadFormat {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestDigestContentAddressed: equal content (even via different buffers)
// hashes equal; different content or different representation hashes
// differently.
func TestDigestContentAddressed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d1 := randDense(rng, 8, 8)
	d2 := matrix.NewDenseData(8, 8, append([]float64(nil), d1.Data...))
	g1, err := DigestOf(d1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := DigestOf(d2)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("identical content produced different digests")
	}
	d2.Data[0] += 1
	g3, _ := DigestOf(d2)
	if g3 == g1 {
		t.Fatal("different content produced the same digest")
	}
	// Same logical values, different representation: must differ, because
	// the kernels dispatch on representation.
	sp := randSparseDense(rng, 8, 8, 0.2)
	gc, _ := DigestOf(matrix.NewCSRFromDense(sp))
	gg, _ := DigestOf(matrix.NewCSCFromDense(sp))
	if gc == gg {
		t.Fatal("CSR and CSC of the same values share a digest")
	}
	if s := g1.Short(); len(s) != 12 {
		t.Fatalf("Short() = %q, want 12 hex chars", s)
	}
}

// TestBufferPool: buffers round-trip through the pool and come back empty.
func TestBufferPool(t *testing.T) {
	buf := GetBuffer()
	if len(buf) != 0 {
		t.Fatalf("GetBuffer returned %d bytes", len(buf))
	}
	buf = append(buf, 1, 2, 3)
	PutBuffer(buf)
	if again := GetBuffer(); len(again) != 0 {
		t.Fatalf("recycled buffer not reset: %d bytes", len(again))
	}
	PutBuffer(nil) // must not panic
}

// coordBlock is a rows×cols block with an entry at each of the given
// (row, col) positions, values drawn from rng.
func coordBlock(rng *rand.Rand, rows, cols int, at [][2]int) *matrix.Dense {
	d := matrix.NewDense(rows, cols)
	for _, rc := range at {
		d.Data[rc[0]*cols+rc[1]] = rng.NormFloat64()
	}
	return d
}

// scattered is n distinct positions of a rows×cols block, in no order.
func scattered(rng *rand.Rand, rows, cols, n int) [][2]int {
	var at [][2]int
	for _, p := range rng.Perm(rows * cols)[:n] {
		at = append(at, [2]int{p / cols, p % cols})
	}
	return at
}

// namedBlock is a test block and the name its failures report.
type namedBlock struct {
	name string
	b    matrix.Block
}

// coordCases are the shapes the coordinate form must carry, each in both
// orientations: empty and full lines, no entries, one entry in the last
// row and column, one row, one column, and the sides either side of the
// switch from one-byte to two-byte coordinates.
func coordCases() []namedBlock {
	rng := rand.New(rand.NewSource(46))
	var fullRows [][2]int
	for j := 0; j < 16; j++ {
		fullRows = append(fullRows, [2]int{0, j}, [2]int{15, j})
	}
	var out []namedBlock
	for _, s := range []struct {
		name string
		d    *matrix.Dense
	}{
		{"empty rows", coordBlock(rng, 16, 16, [][2]int{{3, 1}, {3, 9}, {3, 15}, {11, 0}, {11, 2}, {11, 14}})},
		{"full rows", coordBlock(rng, 16, 16, fullRows)},
		{"no entries", matrix.NewDense(3, 3)},
		{"last row and column", coordBlock(rng, 8, 8, [][2]int{{7, 7}})},
		{"1x300", coordBlock(rng, 1, 300, scattered(rng, 1, 300, 40))},
		{"300x1", coordBlock(rng, 300, 1, scattered(rng, 300, 1, 40))},
		{"256x256", coordBlock(rng, 256, 256, scattered(rng, 256, 256, 40))},
		{"257x257", coordBlock(rng, 257, 257, scattered(rng, 257, 257, 40))},
		{"256x257", coordBlock(rng, 256, 257, scattered(rng, 256, 257, 40))},
	} {
		out = append(out, namedBlock{s.name + " csr", matrix.NewCSRFromDense(s.d)}, namedBlock{s.name + " csc", matrix.NewCSCFromDense(s.d)})
	}
	return out
}

// sparseParts is a sparse block's pointer/index/value triple and the
// coordinate tag of its orientation.
func sparseParts(b matrix.Block) (major, minor int, ptr, idx []int, val []float64, coordTag uint8) {
	switch v := b.(type) {
	case *matrix.CSR:
		return v.RowsN, v.ColsN, v.RowPtr, v.ColIdx, v.Val, TagCSRCoord
	case *matrix.CSC:
		return v.ColsN, v.RowsN, v.ColPtr, v.RowIdx, v.Val, TagCSCCoord
	}
	panic(fmt.Sprintf("not sparse: %T", b))
}

// coordPayload encodes a sparse block in the coordinate form whichever form
// the wire would pick, and reports false where the form is not taken.
func coordPayload(b matrix.Block) ([]byte, uint8, bool) {
	major, minor, ptr, idx, val, tag := sparseParts(b)
	_, w := coordSize(major, minor, len(val))
	if w == 0 {
		return nil, 0, false
	}
	out, ok := appendSparseCoordStruct(nil, major, minor, ptr, idx, len(val), w)
	return appendFloats(out, val), tag, ok
}

// sameSparse fails unless got has want's concrete type and exactly its
// dimensions, pointers, indices and value bits.
func sameSparse(t *testing.T, name string, want, got matrix.Block) {
	t.Helper()
	if reflect.TypeOf(got) != reflect.TypeOf(want) {
		t.Fatalf("%s: %T came back as %T", name, want, got)
	}
	wm, wn, wp, wi, wv, _ := sparseParts(want)
	gm, gn, gp, gi, gv, _ := sparseParts(got)
	if wm != gm || wn != gn || !slices.Equal(wp, gp) || !slices.Equal(wi, gi) || len(wv) != len(gv) {
		t.Fatalf("%s: structure differs: %dx%d %v %v, want %dx%d %v %v", name, gm, gn, gp, gi, wm, wn, wp, wi)
	}
	for k := range wv {
		if math.Float64bits(wv[k]) != math.Float64bits(gv[k]) {
			t.Fatalf("%s: value %d is %v, want %v", name, k, gv[k], wv[k])
		}
	}
}

// TestCoordRoundTrip: every case decodes from the coordinate form, and from
// whatever form the wire picks, with its type, pointers, indices and value
// bits, and EncodedBytes is the wire payload's length. The sweep reaches
// both orientations at both widths through AppendWire.
func TestCoordRoundTrip(t *testing.T) {
	picked := map[string]bool{}
	for _, tc := range coordCases() {
		payload, tag, ok := coordPayload(tc.b)
		if !ok {
			t.Fatalf("%s: the coordinate form refused the block", tc.name)
		}
		got, err := Decode(tag, payload)
		if err != nil {
			t.Fatalf("%s: coordinate form: %v", tc.name, err)
		}
		sameSparse(t, tc.name+" (coordinate form)", tc.b, got)

		wire, wtag, err := AppendWire(nil, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(wire)) != EncodedBytes(tc.b) {
			t.Fatalf("%s: EncodedBytes %d, AppendWire %d bytes", tc.name, EncodedBytes(tc.b), len(wire))
		}
		if got, err = Decode(wtag, wire); err != nil {
			t.Fatalf("%s: tag %d: %v", tc.name, wtag, err)
		}
		sameSparse(t, tc.name, tc.b, got)
		if major, minor, _, _, _, _ := sparseParts(tc.b); wtag == tag {
			picked[fmt.Sprintf("tag %d, width %d", tag, coordWidth(uint64(major), uint64(minor)))] = true
		}
	}
	if len(picked) != 4 {
		t.Fatalf("AppendWire took the coordinate form only as %v; want both tags at both widths", picked)
	}
}

// TestCoordHostileInput: forged coordinate payloads come back as
// ErrBadFormat, from a byte slice and from a frame.
func TestCoordHostileInput(t *testing.T) {
	val := make([]byte, 8)
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	u16 := func(vs ...uint16) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint16(out, v)
		}
		return out
	}
	side := binary.AppendUvarint(nil, 1<<16)
	cases := []struct {
		name    string
		tag     uint8
		payload []byte
	}{
		{"line outside the block", TagCSRCoord, cat([]byte{2, 4, 1, 2, 0}, val)},
		{"index outside the block", TagCSCCoord, cat([]byte{4, 2, 1, 0, 2}, val)},
		{"two-byte index outside the block", TagCSRCoord, cat([]byte{1}, binary.AppendUvarint(nil, 300), []byte{1}, u16(0, 300), val)},
		{"repeated pair", TagCSRCoord, cat([]byte{2, 4, 2, 1, 1, 3, 3}, val, val)},
		{"decreasing pair", TagCSRCoord, cat([]byte{2, 4, 2, 1, 1, 3, 2}, val, val)},
		{"decreasing line", TagCSCCoord, cat([]byte{2, 4, 2, 1, 0, 0, 1}, val, val)},
		{"nnz past the payload", TagCSRCoord, cat([]byte{2, 4, 3, 0, 1, 0, 1}, val, val)},
		{"huge nnz", TagCSRCoord, cat([]byte{2, 4}, binary.AppendUvarint(nil, 1<<62), val)},
		{"trailing bytes", TagCSRCoord, cat([]byte{2, 4, 1, 1, 3}, val, []byte{0})},
		{"truncated header", TagCSCCoord, []byte{2, 0x80}},
		{"more lines than payload bytes", TagCSRCoord, cat([]byte{20, 4, 1, 1, 3}, val)},
		{"side over 65,536", TagCSRCoord, cat(binary.AppendUvarint(nil, 1<<16+1), []byte{1, 1}, u16(0, 0), val)},
		{"minor over 65,536", TagCSCCoord, cat([]byte{1}, binary.AppendUvarint(nil, 1<<16+1), []byte{1}, u16(0, 0), val)},
		{"65,536 lines, no entries", TagCSRCoord, cat(side, side, []byte{0})},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.tag, tc.payload); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: Decode: %v, want ErrBadFormat", tc.name, err)
		}
		w := BeginFrame()
		w.Byte(tc.tag)
		w.Bytes(binary.LittleEndian.AppendUint32(nil, uint32(len(tc.payload))))
		w.Bytes(tc.payload)
		var buf bytes.Buffer
		if err := w.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		w.Release()
		fr := NewFrameReader(&buf)
		if err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fr.ReadBlock(); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: ReadBlock: %v, want ErrBadFormat", tc.name, err)
		}
	}
}

// TestCoordPointerArrayCapped: a coordinate header decodes to at most 65,536
// lines — a pointer array of 512 KiB and one pointer — and only with a
// payload of at least as many bytes; a header claiming more lines than that,
// or than its payload has bytes, is refused before anything is sized from
// it.
func TestCoordPointerArrayCapped(t *testing.T) {
	const lines = 1 << 16
	ptrBytes := uint64(8 * (lines + 1))
	rng := rand.New(rand.NewSource(5))
	d := coordBlock(rng, lines, 2, scattered(rng, lines, 2, lines/12))
	for _, b := range []matrix.Block{matrix.NewCSRFromDense(d), matrix.NewCSCFromDense(d.Transpose())} {
		payload, tag, err := AppendWire(nil, b)
		if err != nil || (tag != TagCSRCoord && tag != TagCSCCoord) {
			t.Fatalf("%T of %d lines: tag %d, %v; want the coordinate form", b, lines, tag, err)
		}
		nnz := uint64(lines / 12)
		var got matrix.Block
		// Pointers, indices and values, each rounded up to whole 8 KiB pages.
		if alloc := allocDuring(func() { got, err = Decode(tag, payload) }); err != nil || alloc > ptrBytes+16*nnz+24<<10 {
			t.Fatalf("%T: %v, allocating %d bytes for a %d-byte payload", b, err, alloc, len(payload))
		}
		sameSparse(t, "widest block", b, got)
	}
	for _, major := range []uint64{lines + 1, 1 << 20, MaxBlockSide, 1 << 62} {
		forged := append(binary.AppendUvarint(nil, major), 1, 0)
		forged = append(forged, make([]byte, 1<<10)...)
		var err error
		if alloc := allocDuring(func() { _, err = Decode(TagCSRCoord, forged) }); !errors.Is(err, ErrBadFormat) || alloc > 4<<10 {
			t.Fatalf("%d lines: %v, allocating %d bytes", major, err, alloc)
		}
	}
}
