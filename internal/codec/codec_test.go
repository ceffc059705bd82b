package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
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
// form and beat both the 32-bit and the portable 64-bit encodings.
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

	// Non-monotone column indices are delta-ineligible: the encoder must
	// fall back to the fixed 32-bit form and still round-trip the exact
	// index order.
	odd := &matrix.CSR{
		RowsN: 2, ColsN: 8,
		RowPtr: []int{0, 2, 3},
		ColIdx: []int{5, 1, 3}, // row 0 unsorted
		Val:    []float64{1, 2, 3},
	}
	payload, tag, err = AppendWire(nil, odd)
	if err != nil {
		t.Fatal(err)
	}
	if tag != TagCSR32 {
		t.Fatalf("non-monotone CSR picked tag %d, want CSR32 fallback", tag)
	}
	back, err := Decode(tag, payload)
	if err != nil {
		t.Fatal(err)
	}
	bc := back.(*matrix.CSR)
	for i, c := range odd.ColIdx {
		if bc.ColIdx[i] != c {
			t.Fatalf("index order not preserved: %v != %v", bc.ColIdx, odd.ColIdx)
		}
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
