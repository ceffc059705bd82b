package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"distme/internal/bmat"
)

// fuzzSeedFile builds a small valid file to seed the corpus.
func fuzzSeedFile(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(99))
	m := bmat.RandomDense(rng, 6, 6, 3)
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRead drives Read with arbitrary bytes. LoadMatrix reads files a
// process may have crashed while writing, or that some other program wrote,
// so they are hostile input: corrupt, truncated, or foreign data must come
// back as ErrBadFormat or ErrChecksum — never a panic, a raw io error, or an
// attacker-sized allocation.
func FuzzRead(f *testing.F) {
	valid := fuzzSeedFile(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])          // truncated mid-chunk
	f.Add(valid[:len(magic)+3])          // truncated header
	f.Add([]byte{})                      // empty
	f.Add([]byte("PAR1 not our format")) // foreign magic

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-5] ^= 0xff // corrupt a payload/CRC byte
	f.Add(flipped)

	// A forged header declaring a huge chunk: must be rejected by the size
	// bound, not allocated.
	forged := append([]byte(nil), valid[:len(magic)+5*8]...)
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint64(huge, 1<<60)
	forged = append(forged, huge...)
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err == nil {
			// Accepted input must be internally consistent enough to walk.
			if m == nil {
				t.Fatal("nil matrix with nil error")
			}
			for _, k := range m.Keys() {
				if blk := m.Block(k.I, k.J); blk != nil {
					blk.Dims()
				}
			}
			return
		}
		if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("Read returned an untyped error: %v", err)
		}
	})
}

// TestReadTruncatedChunkIsBadFormat pins the classification the fuzz target
// relies on: a file cut off between or inside chunks is ErrBadFormat, not a
// bare io.EOF.
func TestReadTruncatedChunkIsBadFormat(t *testing.T) {
	valid := fuzzSeedFile(t)
	for cut := len(magic) + 5*8; cut < len(valid); cut += 7 {
		_, err := Read(bytes.NewReader(valid[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
}
