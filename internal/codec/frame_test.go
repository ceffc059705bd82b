package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"distme/internal/matrix"
)

// frameBytes flushes w into memory.
func frameBytes(t testing.TB, w *FrameWriter) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameBlocks is testBlocks plus blocks big enough to leave the frame as
// zero-copy cuts and to make the streaming reader take more than one fill.
func frameBlocks(t testing.TB) []matrix.Block {
	rng := rand.New(rand.NewSource(11))
	return append(testBlocks(t),
		randDense(rng, 64, 64), // 32 KiB tail: a cut
		matrix.NewCSRFromDense(randSparseDense(rng, 96, 96, 0.2)),
		matrix.NewCSCFromDense(randSparseDense(rng, 96, 96, 0.2)),
	)
}

// TestFrameBlockRoundTrip: every block, written as a plain, a prepared and
// a checksummed record, streams back bit-identical with its concrete type —
// from a contiguous reader and from one that yields a byte at a time — and a
// prepared record's bytes, size and digest are exactly what encoding the
// block at send time gives.
func TestFrameBlockRoundTrip(t *testing.T) {
	for i, blk := range frameBlocks(t) {
		plain := BeginFrame()
		if _, err := plain.AppendBlock(blk); err != nil {
			t.Fatal(err)
		}
		p, err := Prepare(blk)
		if err != nil {
			t.Fatal(err)
		}
		p.Hash()
		prepared := BeginFrame()
		prepared.AppendPrepared(p)
		raw := frameBytes(t, &plain)
		if !bytes.Equal(raw, frameBytes(t, &prepared)) {
			t.Fatalf("block %d: prepared record differs from the one encoded at send", i)
		}
		if want := EncodedBytes(blk); p.Size() != want {
			t.Fatalf("block %d: prepared size %d, EncodedBytes %d", i, p.Size(), want)
		}
		if want, _ := DigestOf(blk); p.Digest != want {
			t.Fatalf("block %d: prepared digest differs from DigestOf", i)
		}
		payload, tag, err := AppendWire(nil, blk)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Decode(tag, payload)
		if err != nil {
			t.Fatal(err)
		}

		summed := BeginFrame()
		if err := summed.AppendBlockCRC(blk); err != nil {
			t.Fatal(err)
		}
		rawCRC := frameBytes(t, &summed)
		for name, r := range map[string]io.Reader{
			"contiguous": bytes.NewReader(raw),
			"dribbled":   iotest.OneByteReader(bytes.NewReader(raw)),
		} {
			fr := NewFrameReader(r)
			if _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
			got, n, err := fr.ReadBlock()
			if err != nil {
				t.Fatalf("block %d, %s: %v", i, name, err)
			}
			if n != int64(len(payload)) || fr.Remaining() != 0 {
				t.Fatalf("block %d, %s: payload %d bytes (want %d), %d left", i, name, n, len(payload), fr.Remaining())
			}
			if reflect.TypeOf(got) != reflect.TypeOf(want) {
				t.Fatalf("block %d, %s: decoded %T, Decode gives %T", i, name, got, want)
			}
			blocksEqualExact(t, want, got)
		}
		fr := NewFrameReader(iotest.OneByteReader(bytes.NewReader(rawCRC)))
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		got, err := fr.ReadBlockCRC()
		if err != nil || fr.Remaining() != 0 {
			t.Fatalf("block %d, checksummed: %v (%d left)", i, err, fr.Remaining())
		}
		blocksEqualExact(t, want, got)

		plain.Release()
		prepared.Release()
		summed.Release()
	}
}

// TestFrameTruncationAndCorruption: a checksummed record cut at every
// offset is an error; so is one with any single payload or trailer byte
// flipped (ErrChecksum unless the flip broke the structure first).
func TestFrameTruncationAndCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, blk := range []matrix.Block{
		randDense(rng, 24, 24), // cut tail
		matrix.NewCSRFromDense(randSparseDense(rng, 40, 40, 0.05)),
	} {
		w := BeginFrame()
		if err := w.AppendBlockCRC(blk); err != nil {
			t.Fatal(err)
		}
		raw := frameBytes(t, &w)
		w.Release()
		read := func(b []byte) error {
			fr := NewFrameReader(iotest.OneByteReader(bytes.NewReader(b)))
			if _, err := fr.Next(); err != nil {
				return err
			}
			_, err := fr.ReadBlockCRC()
			return err
		}
		if err := read(raw); err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(raw); cut++ {
			if err := read(raw[:cut]); err == nil {
				t.Fatalf("record truncated at %d/%d bytes read", cut, len(raw))
			}
			// The same cut with an honest prefix: the frame ends early.
			if cut >= 4 {
				short := append([]byte(nil), raw[:cut]...)
				binary.LittleEndian.PutUint32(short, uint32(cut-4))
				if err := read(short); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("frame shortened to %d bytes: %v", cut-4, err)
				}
			}
		}
		// Byte 4 is the tag, 5..8 the length; everything after is payload
		// and trailer.
		for at := 9; at < len(raw); at++ {
			bad := append([]byte(nil), raw...)
			bad[at] ^= 0x10
			err := read(bad)
			if err == nil {
				t.Fatalf("flip at %d/%d went unnoticed", at, len(raw))
			}
			if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("flip at %d: untyped error %v", at, err)
			}
		}
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)-6] ^= 0x01 // a value byte: structure intact
		if err := read(flipped); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flipped value byte: %v, want ErrChecksum", err)
		}
	}
}

// allocDuring reports the bytes f allocated.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFrameForgedLengthsBoundedAllocation: headers that promise gigabytes
// over a stream holding a few bytes fail after allocating at most one
// readStep or two beyond the input — for a dense tail and a sparse structure
// alike.
func TestFrameForgedLengthsBoundedAllocation(t *testing.T) {
	const side = 1 << 13 // 8192² doubles: 512 MiB promised
	dense := binary.LittleEndian.AppendUint64(nil, side)
	dense = binary.LittleEndian.AppendUint64(dense, side)
	sparse := binary.LittleEndian.AppendUint32(nil, 1<<24)
	sparse = binary.LittleEndian.AppendUint32(sparse, 1<<24)
	sparse = binary.LittleEndian.AppendUint32(sparse, 1<<26)
	for name, rec := range map[string]struct {
		tag    uint8
		length uint32
		head   []byte
	}{
		"dense tail":       {TagDense, 16 + 8*side*side, dense},
		"sparse structure": {TagCSR32, 12 + 4*(1<<24+1) + 12*(1<<26), sparse},
	} {
		body := append([]byte{rec.tag}, binary.LittleEndian.AppendUint32(nil, rec.length)...)
		body = append(body, rec.head...)
		body = append(body, make([]byte, 64)...) // all that ever arrives
		// The frame prefix is forged to match the record's promise.
		raw := binary.LittleEndian.AppendUint32(nil, uint32(5+int64(rec.length)))
		raw = append(raw, body...)
		var err error
		alloc := allocDuring(func() {
			fr := NewFrameReader(bytes.NewReader(raw))
			if _, err = fr.Next(); err == nil {
				_, _, err = fr.ReadBlock()
			}
		})
		if err == nil {
			t.Fatalf("%s: forged record decoded", name)
		}
		// One step, plus the temporary the race detector's unoptimized
		// append makes of it, plus the reader's own buffer.
		if limit := uint64(len(raw) + 2*readStep + 64<<10); alloc > limit {
			t.Fatalf("%s: allocated %d bytes for %d bytes of input (limit %d)", name, alloc, len(raw), limit)
		}
	}
}

// forgedFrame is body behind a length prefix that promises the largest frame
// there is: what a hostile peer sends to make counts look affordable.
func forgedFrame(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, MaxFrameBytes), body...)
}

// TestForgedPrefixCountsBoundedAllocation: a forged frame length makes any
// element count pass the bytes-left check, so the count must not size an
// allocation. ReadSlice and both manifest tables are fed a hundred million
// elements in a dozen bytes; each fails at the stream's end having allocated
// next to nothing.
func TestForgedPrefixCountsBoundedAllocation(t *testing.T) {
	huge := binary.AppendUvarint(nil, 100e6)
	for name, tc := range map[string]struct {
		body []byte
		read func(fr *FrameReader) error
	}{
		"ReadSlice": {huge, func(fr *FrameReader) error {
			_, err := ReadSlice(fr, "ids", 1, func(v *uint64) (err error) {
				*v, err = fr.Uvarint()
				return err
			})
			return err
		}},
		"manifest owners": {append([]byte{9}, huge...), func(fr *FrameReader) error {
			_, err := fr.ReadManifest()
			return err
		}},
		"manifest entries": {append([]byte{9, 1, 1, 'a'}, huge...), func(fr *FrameReader) error {
			_, err := fr.ReadManifest()
			return err
		}},
	} {
		raw := forgedFrame(tc.body)
		var err error
		alloc := allocDuring(func() {
			fr := NewFrameReader(bytes.NewReader(raw))
			if _, err = fr.Next(); err == nil {
				err = tc.read(fr)
			}
		})
		if err == nil {
			t.Fatalf("%s: forged count decoded", name)
		}
		// One countStep (and the race detector's temporary of it) plus the
		// reader's own buffer.
		if limit := uint64(len(raw) + 2*countStep + 64<<10); alloc > limit {
			t.Fatalf("%s: allocated %d bytes for %d bytes of input (limit %d)", name, alloc, len(raw), limit)
		}
	}
}

// TestFrameBoundBothSides: the writer refuses a frame above MaxFrameBytes
// before writing a byte, and the reader refuses a length prefix above it.
func TestFrameBoundBothSides(t *testing.T) {
	// One 32 MiB block referenced 65 times: a frame over 2 GiB that
	// allocates nothing, since the tails alias the block.
	big := matrix.NewDense(2048, 2048)
	w := BeginFrame()
	defer w.Release()
	for i := 0; i < 65; i++ {
		if _, err := w.AppendBlock(big); err != nil {
			t.Fatal(err)
		}
	}
	if w.Size() <= MaxFrameBytes {
		t.Fatalf("test frame is only %d bytes", w.Size())
	}
	var sink bytes.Buffer
	if err := w.Flush(&sink); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("%d bytes written before the refusal", sink.Len())
	}

	prefix := binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+1)
	if _, err := NewFrameReader(bytes.NewReader(prefix)).Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("length prefix above the bound: %v, want ErrBadFrame", err)
	}
	prefix = binary.LittleEndian.AppendUint32(nil, MaxFrameBytes)
	if n, err := NewFrameReader(bytes.NewReader(prefix)).Next(); err != nil || n != MaxFrameBytes {
		t.Fatalf("length prefix at the bound: %d, %v", n, err)
	}
}

// TestFrameDrainKeepsStreamInSync: a body abandoned anywhere — unread,
// half-read, failed — costs exactly its own frame; the next one parses.
func TestFrameDrainKeepsStreamInSync(t *testing.T) {
	var stream bytes.Buffer
	first := BeginFrame()
	first.Str("abandoned")
	if _, err := first.AppendBlock(randDense(rand.New(rand.NewSource(13)), 40, 40)); err != nil {
		t.Fatal(err)
	}
	bad := BeginFrame()
	bad.Byte(TagDense)
	bad.Bytes([]byte{200, 0, 0, 0, 1, 2, 3}) // record promises 200 bytes, frame has 3
	second := BeginFrame()
	second.Uvarint(42)
	second.Str("intact")
	for _, w := range []*FrameWriter{&first, &bad, &second} {
		if err := w.Flush(&stream); err != nil {
			t.Fatal(err)
		}
		w.Release()
	}
	fr := NewFrameReader(iotest.OneByteReader(&stream))
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if s, err := fr.Str(); err != nil || s != "abandoned" {
		t.Fatalf("first frame: %q, %v", s, err)
	}
	if _, err := fr.Next(); err != nil { // drains the unread block
		t.Fatal(err)
	}
	if _, _, err := fr.ReadBlock(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short record: %v, want ErrBadFrame", err)
	}
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	v, err1 := fr.Uvarint()
	s, err2 := fr.Str()
	if err1 != nil || err2 != nil || v != 42 || s != "intact" || fr.Remaining() != 0 {
		t.Fatalf("frame after a failed body: %d %q (%v, %v), %d left", v, s, err1, err2, fr.Remaining())
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestSinglePassFormMatchesPlan: the speculative one-pass sparse encoder
// picks exactly the form, and produces exactly the size, that sizing the
// block first (wirePlan) does — across densities that straddle the
// delta-vs-32-bit boundary, and for structures delta cannot express.
func TestSinglePassFormMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var blocks []matrix.Block
	for _, density := range []float64{0, 0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1} {
		for _, dims := range [][2]int{{1, 1}, {7, 300}, {300, 7}, {64, 64}, {200, 130}} {
			d := randSparseDense(rng, dims[0], dims[1], density)
			blocks = append(blocks, matrix.NewCSRFromDense(d), matrix.NewCSCFromDense(d))
		}
	}
	// Unsorted indices within a row: valid CSR, not delta-eligible.
	blocks = append(blocks, &matrix.CSR{RowsN: 2, ColsN: 4, RowPtr: []int{0, 2, 3}, ColIdx: []int{3, 1, 0}, Val: []float64{1, 2, 3}})
	sawDelta, saw32 := false, false
	for i, blk := range blocks {
		wantTag, wantSize, err := wirePlan(blk)
		if err != nil {
			t.Fatal(err)
		}
		head, tag, tail, err := AppendWireSG(nil, blk, EncodingFP64)
		if err != nil {
			t.Fatal(err)
		}
		if tag != wantTag || len(head)+len(tail) != wantSize {
			t.Fatalf("block %d: encoded as tag %d, %d bytes; the plan says tag %d, %d bytes", i, tag, len(head)+len(tail), wantTag, wantSize)
		}
		sawDelta = sawDelta || tag == TagCSRDelta
		saw32 = saw32 || tag == TagCSR32
	}
	if !sawDelta || !saw32 {
		t.Fatalf("the sweep must reach both forms (delta %v, 32-bit %v)", sawDelta, saw32)
	}
}

// TestPoolDropsOutsizedBuffers: a buffer grown past the cap is not recycled
// into the pool that also hands out 64 KiB arenas.
func TestPoolDropsOutsizedBuffers(t *testing.T) {
	PutBuffer(make([]byte, 0, maxPooledBuffer+1))
	for i := 0; i < 64; i++ {
		buf := GetBuffer()
		if cap(buf) > maxPooledBuffer {
			t.Fatalf("pool handed out a %d-byte buffer", cap(buf))
		}
		defer PutBuffer(buf)
	}
	kept := make([]byte, 0, maxPooledBuffer)
	PutBuffer(kept) // at the cap: still recycled (must not panic either way)
}

// FuzzFrameBlocks drives arbitrary bytes through the streaming block
// readers every socket-facing body decoder is built from. A malformed record
// is a typed error (or the stream's own end), never a panic; what arrives
// bounds what is allocated; and an accepted block re-encodes. Each block's
// record is also seeded under its retired fp32 and XOR tags.
func FuzzFrameBlocks(f *testing.F) {
	for _, blk := range frameBlocks(f) {
		w := BeginFrame()
		if err := w.AppendBlockCRC(blk); err != nil {
			f.Fatal(err)
		}
		raw := frameBytes(f, &w)
		w.Release()
		for _, tag := range append([]uint8{raw[4]}, retiredTags(blk)...) {
			body := append([]byte{tag}, raw[5:]...)
			f.Add(body, true, uint32(0))
			f.Add(body[:len(body)-4], false, uint32(0))
		}
	}
	f.Add([]byte{TagDense, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}, false, uint32(0))
	f.Add([]byte{TagDense, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}, false, uint32(MaxFrameBytes))
	f.Fuzz(func(t *testing.T, body []byte, summed bool, claim uint32) {
		// The prefix promises claim bytes more than ever arrive.
		promised := min(uint64(len(body))+uint64(claim), MaxFrameBytes)
		raw := append(binary.LittleEndian.AppendUint32(nil, uint32(promised)), body...)
		var blk matrix.Block
		var err error
		alloc := allocDuring(func() {
			fr := NewFrameReader(bytes.NewReader(raw))
			if _, err = fr.Next(); err != nil {
				return
			}
			if summed {
				blk, err = fr.ReadBlockCRC()
			} else {
				blk, _, err = fr.ReadBlock()
			}
		})
		// Decoded index arrays are 8-byte ints for 1-byte varints at worst.
		if limit := uint64(16*len(raw) + readStep + 64<<10); alloc > limit {
			t.Fatalf("allocated %d bytes for %d bytes of input", alloc, len(raw))
		}
		if err != nil {
			short := promised > uint64(len(body)) && errors.Is(err, io.ErrUnexpectedEOF)
			if !short && !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if _, _, err := AppendWire(nil, blk); err != nil {
			t.Fatalf("accepted block does not re-encode: %v", err)
		}
	})
}
