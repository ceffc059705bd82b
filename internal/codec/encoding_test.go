package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distme/internal/matrix"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestEncodingRoundTrip: AppendWireSG's (out, tail) split must concatenate
// to exactly AppendWireEnc's contiguous payload, whose length EncodedBytes
// predicted, and decode back bit-exact.
func TestEncodingRoundTrip(t *testing.T) {
	for i, b := range testBlocks(t) {
		payload, tag, err := AppendWireEnc(nil, b, EncodingFP64)
		if err != nil {
			t.Fatalf("block %d: AppendWireEnc: %v", i, err)
		}
		if int64(len(payload)) != EncodedBytes(b) {
			t.Fatalf("block %d: EncodedBytes %d != actual %d", i, EncodedBytes(b), len(payload))
		}
		prefix := []byte("prefix")
		out, sgTag, tail, err := AppendWireSG(prefix, b, EncodingFP64)
		if err != nil {
			t.Fatalf("block %d: AppendWireSG: %v", i, err)
		}
		if sgTag != tag {
			t.Fatalf("block %d: SG tag %d != contiguous tag %d", i, sgTag, tag)
		}
		if !bytes.HasPrefix(out, []byte("prefix")) {
			t.Fatalf("block %d: SG encoder clobbered the dst prefix", i)
		}
		joined := append(append([]byte{}, out[len("prefix"):]...), tail...)
		if !bytes.Equal(joined, payload) {
			t.Fatalf("block %d: SG segments differ from contiguous payload", i)
		}
		got, err := Decode(tag, payload)
		if err != nil {
			t.Fatalf("block %d: Decode(tag %d): %v", i, tag, err)
		}
		blocksEqualExact(t, b, got)
	}
}

// TestEncodingHostileInputs: tags 6–11 were fp32 and XOR+varint value
// forms; no peer may send them any more, so every payload under them —
// well-formed or malformed — must come back as ErrBadFormat, never a panic.
func TestEncodingHostileInputs(t *testing.T) {
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// A 1×2 dense block with float32 values, and a 6×8 CSC with delta
	// indices and XOR+varint values.
	retiredF32, _ := hex.DecodeString("010000000000000002000000000000000000c03f000080bf")
	retiredXor, _ := hex.DecodeString("08060500010000000101010101030105808080808080808640808080808080808780010080808080808080a9800180808080808080dc7f")
	cases := []struct {
		name    string
		tag     uint8
		payload []byte
	}{
		{"dense-f32 well-formed", 6, retiredF32},
		{"csc-xor well-formed", 11, retiredXor},
		{"dense-f32 short", 6, []byte{1, 2, 3}},
		{"dense-f32 size mismatch", 6, cat(u64(2), u64(2), u32(0))},
		{"dense-f32 huge dims", 6, cat(u64(1<<40), u64(1), u32(0))},
		{"csr-f32 short", 7, []byte{1}},
		{"csr-f32 size mismatch", 7, cat(u32(2), u32(2), u32(9))},
		{"csc-f32 bad structure", 8, cat(u32(1), u32(1), u32(1), u32(1), u32(0), u32(0), u32(0))},
		{"dense-xor short", 9, []byte{0}},
		{"dense-xor truncated values", 9, cat(u64(2), u64(2), []byte{1, 2})},
		{"dense-xor trailing junk", 9, cat(u64(1), u64(1), []byte{0, 0, 0})},
		{"csr-xor truncated header", 10, []byte{5}},
		{"csr-xor counts exceed nnz", 10, cat([]byte{2, 3, 1}, []byte{2, 0, 1, 0, 0, 0})},
		{"csc-xor zero gap", 11, cat([]byte{1, 4, 2}, []byte{2, 1, 0, 0, 0})},
		{"csr-xor index outside", 10, cat([]byte{1, 2, 1}, []byte{1, 7, 0})},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.tag, tc.payload); !errorsIsBadFormat(err) {
			t.Errorf("%s: error %v does not wrap ErrBadFormat", tc.name, err)
		}
	}
}

// goldenEncodingBlocks are hand-built deterministic blocks, one per wire
// form but the 32-bit one (csr and csc take the coordinate form), whose bytes are identical on any platform — the fixtures the golden
// file pins.
func goldenEncodingBlocks() []struct {
	name string
	b    matrix.Block
} {
	dense := matrix.NewDenseData(3, 4, []float64{
		0, 1, -1, 0.5,
		2, 1024.25, -3.75, 8,
		0.125, -0.0625, 6, 7,
	})
	spd := matrix.NewDense(6, 8)
	spd.Data[1] = 3.5
	spd.Data[12] = -2.25
	spd.Data[13] = -2.25
	spd.Data[30] = 64
	spd.Data[47] = 0.75
	return []struct {
		name string
		b    matrix.Block
	}{
		{"dense", dense},
		{"csr", matrix.NewCSRFromDense(spd)},
		{"csc", matrix.NewCSCFromDense(spd)},
		// Eleven entries in three rows (four columns): the delta form wins.
		{"csr-delta", matrix.NewCSRFromDense(dense)},
		{"csc-delta", matrix.NewCSCFromDense(dense)},
	}
}

// TestEncodingGolden pins the exact fp64 wire bytes of every fixture against
// testdata/encodings.golden; run with -update to regenerate after a
// deliberate format change. A diff here means old peers can no longer
// decode new frames.
func TestEncodingGolden(t *testing.T) {
	path := filepath.Join("testdata", "encodings.golden")
	var sb strings.Builder
	for _, tc := range goldenEncodingBlocks() {
		payload, tag, err := AppendWire(nil, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&sb, "%s fp64 %d %s\n", tc.name, tag, hex.EncodeToString(payload))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if string(want) != sb.String() {
		t.Fatalf("wire bytes diverged from %s — a format change breaks decode compatibility; "+
			"if deliberate, regenerate with -update.\ngot:\n%s\nwant:\n%s", path, sb.String(), want)
	}
}

// TestEncodingGoldenDecodes proves every pinned payload still decodes to
// the fixture it was built from, bit for bit.
func TestEncodingGoldenDecodes(t *testing.T) {
	for _, tc := range goldenEncodingBlocks() {
		payload, tag, err := AppendWire(nil, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(tag, payload)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		blocksEqualExact(t, tc.b, got)
	}
}
