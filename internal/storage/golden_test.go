package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// goldenMatrix rebuilds the exact matrix behind testdata/golden-v1.dmeb: a
// 10x11 element grid with block size 4 (ragged on both axes) holding a
// dense block, a CSR block, a CSC block (which the portable format stores
// as CSR) and a ragged dense corner, with values drawn from a fixed seed.
func goldenMatrix() *bmat.BlockMatrix {
	rng := rand.New(rand.NewSource(424242))
	m := bmat.New(10, 11, 4)
	d := matrix.NewDense(4, 4)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	m.SetBlock(0, 0, d)
	csrd := matrix.NewDense(4, 4)
	for i := range csrd.Data {
		if rng.Float64() < 0.4 {
			csrd.Data[i] = rng.NormFloat64()
		}
	}
	m.SetBlock(1, 1, matrix.NewCSRFromDense(csrd))
	cscd := matrix.NewDense(2, 4)
	for i := range cscd.Data {
		if rng.Float64() < 0.5 {
			cscd.Data[i] = rng.NormFloat64()
		}
	}
	m.SetBlock(2, 0, matrix.NewCSCFromDense(cscd))
	corner := matrix.NewDense(2, 3)
	for i := range corner.Data {
		corner.Data[i] = rng.NormFloat64()
	}
	m.SetBlock(2, 2, corner)
	return m
}

// TestGoldenFileByteIdentical pins the on-disk matrix format: Write must
// keep producing the byte-for-byte output of the pre-codec encoder, captured
// in testdata/golden-v1.dmeb, or LoadMatrixFile would stop reading files
// SaveMatrixFile wrote in earlier builds.
func TestGoldenFileByteIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden-v1.dmeb"))
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	var got bytes.Buffer
	if err := Write(&got, goldenMatrix()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("on-disk format drifted from golden-v1.dmeb: got %d bytes, want %d (first divergence at offset %d)",
			got.Len(), len(want), firstDiff(got.Bytes(), want))
	}
}

// TestGoldenFileReadsBack guards the decode side: the checked-in bytes must
// parse into the generating matrix, with the CSC block coming back as CSR
// (the documented portable-format behavior).
func TestGoldenFileReadsBack(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "golden-v1.dmeb"))
	if err != nil {
		t.Fatalf("open golden file: %v", err)
	}
	defer f.Close()
	got, err := Read(f)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := goldenMatrix()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.BlockSize != want.BlockSize {
		t.Fatalf("geometry %dx%d/%d, want %dx%d/%d", got.Rows, got.Cols, got.BlockSize, want.Rows, want.Cols, want.BlockSize)
	}
	if got.NumBlocks() != want.NumBlocks() {
		t.Fatalf("got %d blocks, want %d", got.NumBlocks(), want.NumBlocks())
	}
	for _, k := range want.Keys() {
		wb, gb := want.Block(k.I, k.J), got.Block(k.I, k.J)
		if gb == nil {
			t.Fatalf("block %v missing after read", k)
		}
		wr, wc := wb.Dims()
		gr, gc := gb.Dims()
		if wr != gr || wc != gc {
			t.Fatalf("block %v dims %dx%d, want %dx%d", k, gr, gc, wr, wc)
		}
		if _, isCSC := wb.(*matrix.CSC); isCSC {
			if _, nowCSR := gb.(*matrix.CSR); !nowCSR {
				t.Fatalf("block %v: CSC should read back as CSR in the portable format, got %T", k, gb)
			}
		}
		wd, gd := wb.Dense(), gb.Dense()
		for i := range wd.Data {
			if wd.Data[i] != gd.Data[i] {
				t.Fatalf("block %v value %d: %v != %v", k, i, gd.Data[i], wd.Data[i])
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
