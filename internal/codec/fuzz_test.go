package codec

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
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

// FuzzDecodeManifest drives hostile bytes through the pull-plane manifest
// decoder under the same contract as the block decoders: malformed input is
// ErrBadFormat (never a panic, never an allocation unbounded by the input),
// and an accepted manifest must re-encode to exactly the bytes it consumed.
func FuzzDecodeManifest(f *testing.F) {
	seeds := []Manifest{
		{},
		{Handle: 7, Owners: []string{"127.0.0.1:4100"}, Entries: []ManifestEntry{{KeyI: 0, KeyJ: 1, Owner: 0}}},
		{Handle: 1 << 33, Owners: []string{"a:1", "b:2"}, Entries: []ManifestEntry{
			{KeyI: 3, KeyJ: 4, Owner: 1, HasDigest: true, Digest: Digest{9, 8, 7}},
			{KeyI: 5, KeyJ: 0, Owner: 0},
		}},
	}
	for i := range seeds {
		f.Add(AppendManifest(nil, &seeds[i]))
	}
	f.Add([]byte{0, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, rest, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("decode error %v does not wrap ErrBadFormat", err)
			}
			return
		}
		// Accepted input must be internally consistent…
		for _, e := range m.Entries {
			if e.Owner < 0 || e.Owner >= len(m.Owners) {
				t.Fatalf("accepted entry with owner %d outside table of %d", e.Owner, len(m.Owners))
			}
			if e.KeyI < 0 || e.KeyJ < 0 || e.KeyI > MaxBlockSide || e.KeyJ > MaxBlockSide {
				t.Fatalf("accepted implausible key (%d,%d)", e.KeyI, e.KeyJ)
			}
		}
		// …and re-encode/decode bit-stably (a non-canonical uvarint may
		// re-encode shorter, but the manifest itself must survive).
		if len(rest) > len(data) {
			t.Fatalf("decode returned more rest (%d) than input (%d)", len(rest), len(data))
		}
		re := AppendManifest(nil, &m)
		back, rest2, err := DecodeManifest(re)
		if err != nil {
			t.Fatalf("re-decode of accepted manifest failed: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest2))
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip changed the manifest:\n got %+v\nwant %+v", back, m)
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
