package codec

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"distme/internal/matrix"
)

// FuzzDecodeBlock drives hostile bytes through every tag the wire accepts.
// The contract mirrors storage's reader: a malformed payload must come back
// as ErrBadFormat — never a panic, never an allocation unbounded by the
// input size — and a payload that does decode must re-encode/decode
// bit-stably (no value smuggling through "lenient" parses).
func FuzzDecodeBlock(f *testing.F) {
	// Seed with valid encodings of each wire form so the fuzzer starts on
	// the happy paths and mutates outward.
	rng := rand.New(rand.NewSource(99))
	seeds := []matrix.Block{
		matrix.NewDense(2, 3),
		matrix.NewCSRFromDense(sparseSeed(rng, 6, 5, 0.3)),
		matrix.NewCSCFromDense(sparseSeed(rng, 5, 6, 0.3)),
		matrix.NewCSRFromDense(sparseSeed(rng, 40, 40, 0.02)), // delta form
		matrix.NewCSCFromDense(sparseSeed(rng, 40, 40, 0.02)),
	}
	// The coordinate form, one- and two-byte wide.
	for _, tc := range coordCases() {
		seeds = append(seeds, tc.b)
	}
	for _, b := range seeds {
		payload, tag, err := AppendWire(nil, b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tag, payload)
		portable, ptag, err := AppendPortable(nil, b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ptag, portable)
		for _, rtag := range retiredTags(b) {
			f.Add(rtag, payload)
		}
	}
	f.Add(uint8(200), []byte{0, 1, 2})

	f.Fuzz(func(t *testing.T, tag uint8, payload []byte) {
		blk, err := Decode(tag, payload)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("decode error %v does not wrap ErrBadFormat", err)
			}
			return
		}
		// Accepted input must be internally consistent and re-encodable.
		rows, cols := blk.Dims()
		if rows < 0 || cols < 0 || rows > MaxBlockSide || cols > MaxBlockSide {
			t.Fatalf("accepted implausible dims %dx%d", rows, cols)
		}
		re, retag, err := AppendWire(nil, blk)
		if err != nil {
			t.Fatalf("re-encode of accepted block failed: %v", err)
		}
		back, err := Decode(retag, re)
		if err != nil {
			t.Fatalf("re-decode of accepted block failed: %v", err)
		}
		br, bc := back.Dims()
		if br != rows || bc != cols {
			t.Fatalf("round-trip changed dims %dx%d -> %dx%d", rows, cols, br, bc)
		}
		a, b := blk.Dense(), back.Dense()
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				t.Fatalf("round-trip changed value %d", i)
			}
		}
	})
}

// retiredTags are the tags of b's representation that carried fp32 and
// XOR+varint values: no peer sends them, so every decoder refuses them. The
// fuzz targets seed them to keep hostile bytes under those tag bytes covered.
func retiredTags(b matrix.Block) []uint8 {
	switch b.(type) {
	case *matrix.Dense:
		return []uint8{6, 9}
	case *matrix.CSR:
		return []uint8{7, 10}
	default:
		return []uint8{8, 11}
	}
}

func sparseSeed(rng *rand.Rand, rows, cols int, density float64) *matrix.Dense {
	d := matrix.NewDense(rows, cols)
	for i := range d.Data {
		if rng.Float64() < density {
			d.Data[i] = rng.NormFloat64()
		}
	}
	return d
}
