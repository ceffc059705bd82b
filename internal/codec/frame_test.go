package codec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
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

// chunked is body as one frame of chunks of size bytes (one chunk when size
// is 0) whose last chunk's prefix promises claim bytes more than follow;
// with abort set, every byte goes out in non-final chunks and the abort
// marker ends the frame instead of a last chunk.
func chunked(body []byte, size int, claim uint32, abort bool) []byte {
	if size <= 0 {
		size = max(len(body), 1)
	}
	var raw []byte
	var sent uint64
	for len(body) > size || abort && len(body) > 0 {
		n := min(size, len(body))
		raw = binary.LittleEndian.AppendUint32(raw, chunkMore|uint32(n))
		raw = append(raw, body[:n]...)
		body, sent = body[n:], sent+uint64(n)
	}
	if abort {
		return binary.LittleEndian.AppendUint32(raw, abortPrefix)
	}
	promised := min(uint64(len(body))+uint64(claim), MaxFrameBytes-sent)
	raw = binary.LittleEndian.AppendUint32(raw, uint32(promised))
	return append(raw, body...)
}

// unread drains the rest of fr's frame and returns how many bytes that was.
func unread(fr *FrameReader) int64 {
	at := fr.Offset()
	if err := fr.Drain(); err != nil {
		return -1
	}
	return fr.Offset() - at
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
			"chunked":    bytes.NewReader(chunked(raw[4:], 7, 0, false)),
		} {
			fr := NewFrameReader(r)
			if err := fr.Next(); err != nil {
				t.Fatal(err)
			}
			got, n, err := fr.ReadBlock()
			if err != nil {
				t.Fatalf("block %d, %s: %v", i, name, err)
			}
			if n != int64(len(payload)) || unread(fr) != 0 {
				t.Fatalf("block %d, %s: payload %d bytes (want %d), %d of %d read", i, name, n, len(payload), fr.Offset(), len(raw)-4)
			}
			if reflect.TypeOf(got) != reflect.TypeOf(want) {
				t.Fatalf("block %d, %s: decoded %T, Decode gives %T", i, name, got, want)
			}
			blocksEqualExact(t, want, got)
		}
		for _, raw := range [][]byte{rawCRC, chunked(rawCRC[4:], 5, 0, false)} {
			fr := NewFrameReader(iotest.OneByteReader(bytes.NewReader(raw)))
			if err := fr.Next(); err != nil {
				t.Fatal(err)
			}
			got, err := fr.ReadBlockCRC()
			if left := unread(fr); err != nil || left != 0 {
				t.Fatalf("block %d, checksummed: %v (%d left)", i, err, left)
			}
			blocksEqualExact(t, want, got)
		}

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
		readFrom := func(r io.Reader) error {
			fr := NewFrameReader(r)
			if err := fr.Next(); err != nil {
				return err
			}
			_, err := fr.ReadBlockCRC()
			return err
		}
		read := func(b []byte) error { return readFrom(iotest.OneByteReader(bytes.NewReader(b))) }
		if err := read(raw); err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(raw); cut++ {
			if err := read(raw[:cut]); err == nil {
				t.Fatalf("record truncated at %d/%d bytes read", cut, len(raw))
			}
			// The same cut with honest prefixes, in one chunk and in
			// three-byte ones: the frame ends early.
			if cut >= 4 {
				if err := read(chunked(raw[4:cut], 0, 0, false)); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("frame shortened to %d bytes: %v", cut-4, err)
				}
				if err := readFrom(bytes.NewReader(chunked(raw[4:cut], 3, 0, false))); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("frame shortened to %d bytes in chunks: %v", cut-4, err)
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
			if err = fr.Next(); err == nil {
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
// allocation. ReadSlice is fed a hundred million elements in a dozen bytes;
// it fails at the stream's end having allocated next to nothing.
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
	} {
		raw := forgedFrame(tc.body)
		var err error
		alloc := allocDuring(func() {
			fr := NewFrameReader(bytes.NewReader(raw))
			if err = fr.Next(); err == nil {
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

// tailSink counts what is written to it and keeps the last four bytes.
type tailSink struct {
	n    int64
	last []byte
}

func (s *tailSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	s.last = append(s.last, p[max(0, len(p)-4):]...)
	s.last = s.last[max(0, len(s.last)-4):]
	return len(p), nil
}

// TestFrameBoundBothSides: MaxFrameBytes caps a frame across all its
// chunks. A writer flushing whole refuses a frame above it before writing a
// byte; one streaming refuses the chunk that would cross it and ends what
// has left with the abort marker. A reader accepts a prefix with bit 31 set
// — a chunk with more to follow, even of MaxFrameBytes — and refuses the
// chunk that takes a frame past the bound, after which the stream is lost.
func TestFrameBoundBothSides(t *testing.T) {
	// One 32 MiB block referenced 65 times: a frame over 2 GiB that
	// allocates nothing, since the tails alias the block.
	big := matrix.NewDense(2048, 2048)
	fill := func(w *FrameWriter) {
		for i := 0; i < 65; i++ {
			if _, err := w.AppendBlock(big); err != nil {
				t.Fatal(err)
			}
		}
		if w.Size() <= MaxFrameBytes {
			t.Fatalf("test frame is only %d bytes", w.Size())
		}
	}
	whole := BeginFrame()
	defer whole.Release()
	fill(&whole)
	var sink bytes.Buffer
	if err := whole.Flush(&sink); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("%d bytes written before the refusal", sink.Len())
	}

	streamed := BeginFrame()
	defer streamed.Release()
	var tail tailSink
	streamed.conn = &tail
	fill(&streamed)
	broken, err := streamed.finish(nil)
	if !errors.Is(err, ErrFrameTooLarge) || broken {
		t.Fatalf("oversized streamed frame: %v (broken %v), want ErrFrameTooLarge", err, broken)
	}
	if tail.n == 0 || tail.n > MaxFrameBytes+4*65+4 {
		t.Fatalf("%d bytes streamed before the refusal", tail.n)
	}
	if got := binary.LittleEndian.Uint32(tail.last); got != abortPrefix {
		t.Fatalf("streamed frame ends with %#x, want the abort marker", got)
	}

	prefix := binary.LittleEndian.AppendUint32(nil, chunkMore|MaxFrameBytes)
	fr := NewFrameReader(bytes.NewReader(prefix))
	if err := fr.Next(); err != nil || fr.bound() != MaxFrameBytes {
		t.Fatalf("a first chunk of MaxFrameBytes with more to follow: %v, bound %d", err, fr.bound())
	}
	prefix = binary.LittleEndian.AppendUint32(nil, MaxFrameBytes)
	if err := NewFrameReader(bytes.NewReader(prefix)).Next(); err != nil {
		t.Fatalf("length prefix at the bound: %v", err)
	}
	// Five bytes, then a chunk promising the frame's last 2³¹−5 and one more.
	crossing := binary.LittleEndian.AppendUint32(nil, chunkMore|5)
	crossing = append(crossing, 1, 2, 3, 4, 5)
	crossing = binary.LittleEndian.AppendUint32(crossing, chunkMore|(MaxFrameBytes-4))
	fr = NewFrameReader(bytes.NewReader(crossing))
	if err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if err := fr.ReadFull(make([]byte, 6)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("a chunk crossing the bound: %v, want ErrBadFrame", err)
	}
	if err := fr.Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("next frame after a crossing chunk: %v, want ErrBadFrame", err)
	}
}

// TestFrameDrainKeepsStreamInSync: a body abandoned anywhere — unread,
// half-read, failed, or given up by its sender after a chunk had left —
// costs exactly its own frame; the next one parses.
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
	for _, w := range []*FrameWriter{&first, &bad} {
		if err := w.Flush(&stream); err != nil {
			t.Fatal(err)
		}
		w.Release()
	}
	aborted := BeginFrame()
	aborted.conn = &stream
	aborted.Str("aborted")
	big := randDense(rand.New(rand.NewSource(14)), 200, 200) // 320 KB: leaves as a chunk
	if _, err := aborted.AppendBlock(big); err != nil {
		t.Fatal(err)
	}
	if broken, err := aborted.finish(errTest); err != errTest || broken || aborted.sent == 0 {
		t.Fatalf("aborting a streamed frame: %v (broken %v, %d bytes sent)", err, broken, aborted.sent)
	}
	aborted.Release()
	second := BeginFrame()
	second.Uvarint(42)
	second.Str("intact")
	if err := second.Flush(&stream); err != nil {
		t.Fatal(err)
	}
	second.Release()
	fr := NewFrameReader(iotest.OneByteReader(&stream))
	if err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if s, err := fr.Str(); err != nil || s != "abandoned" {
		t.Fatalf("first frame: %q, %v", s, err)
	}
	if err := fr.Next(); err != nil { // drains the unread block
		t.Fatal(err)
	}
	if _, _, err := fr.ReadBlock(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short record: %v, want ErrBadFrame", err)
	}
	if err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if s, err := fr.Str(); err != nil || s != "aborted" {
		t.Fatalf("aborted frame: %q, %v", s, err)
	}
	if got, _, err := fr.ReadBlock(); err != nil {
		t.Fatalf("the record that left before the abort: %v", err)
	} else {
		blocksEqualExact(t, big, got)
	}
	if _, err := fr.U8(); !errors.Is(err, ErrFrameAborted) || !errors.Is(err, ErrBadFrame) {
		t.Fatalf("read past the abort marker: %v, want ErrFrameAborted", err)
	}
	if err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	v, err1 := fr.Uvarint()
	s, err2 := fr.Str()
	if left := unread(fr); err1 != nil || err2 != nil || v != 42 || s != "intact" || left != 0 {
		t.Fatalf("frame after a failed body: %d %q (%v, %v), %d left", v, s, err1, err2, left)
	}
	if err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestFrameStreamsInChunks: a writer given its connection sends a large
// frame as non-final chunks cut at record boundaries past chunkBytes and a
// last chunk, Size counting every chunk; a reader takes the blocks back
// bit-identical across the chunk boundaries, its Offset ending on the same
// total.
func TestFrameStreamsInChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var blocks []matrix.Block
	for i := 0; i < 24; i++ {
		blocks = append(blocks, randDense(rng, 64, 64), matrix.NewCSRFromDense(randSparseDense(rng, 96, 96, 0.2)))
	}
	var stream bytes.Buffer
	w := BeginFrame()
	defer w.Release()
	w.conn = &stream
	w.Uvarint(7)
	for _, blk := range blocks {
		if err := w.AppendBlockCRC(blk); err != nil {
			t.Fatal(err)
		}
	}
	total := w.Size()
	if _, err := w.finish(nil); err != nil {
		t.Fatal(err)
	}
	raw := stream.Bytes()
	var chunks []uint32
	var body int64
	for at := 0; at < len(raw); {
		p := binary.LittleEndian.Uint32(raw[at:])
		chunks = append(chunks, p)
		body += int64(p &^ chunkMore)
		at += 4 + int(p&^chunkMore)
	}
	if len(chunks) < 3 || body != total || int64(len(raw)) != total+4*int64(len(chunks)) {
		t.Fatalf("%d chunks carrying %d bytes in %d, Size says %d", len(chunks), body, len(raw), total)
	}
	for i, p := range chunks {
		if last := i == len(chunks)-1; last == (p&chunkMore != 0) || !last && p&^chunkMore < chunkBytes {
			t.Fatalf("chunk %d of %d has prefix %#x", i, len(chunks), p)
		}
	}
	fr := NewFrameReader(iotest.HalfReader(bytes.NewReader(raw)))
	if err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if v, err := fr.Uvarint(); err != nil || v != 7 {
		t.Fatalf("header: %d, %v", v, err)
	}
	for i, want := range blocks {
		got, err := fr.ReadBlockCRC()
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		blocksEqualExact(t, want, got)
	}
	if fr.Offset() != total || unread(fr) != 0 {
		t.Fatalf("read %d bytes of %d", fr.Offset(), total)
	}
}

// TestSmallFrameGolden: a call whose frame stays under chunkBytes goes out
// as one length-prefixed frame, byte for byte what the unchunked frame
// format sent for it.
func TestSmallFrameGolden(t *testing.T) {
	near, far := net.Pipe()
	c := NewClient(near, testErrors)
	defer c.Close()
	go c.Call(context.Background(), 3, func(w *FrameWriter) error {
		w.Str("golden")
		for _, blk := range frameBlocks(t) {
			if err := w.AppendBlockCRC(blk); err != nil {
				return err
			}
			if _, err := w.AppendBlock(blk); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	var prefix [4]byte
	if _, err := io.ReadFull(far, prefix[:]); err != nil {
		t.Fatal(err)
	}
	frame := append(prefix[:], make([]byte, binary.LittleEndian.Uint32(prefix[:]))...)
	if _, err := io.ReadFull(far, frame[4:]); err != nil {
		t.Fatal(err)
	}
	const want = "165599 bytes, sha256 d793a2ac5de4a93a6e644563b6b0e9b5abdb9c72ec51844c4f25e720f14de014"
	if got := fmt.Sprintf("%d bytes, sha256 %x", len(frame), sha256.Sum256(frame)); got != want {
		t.Fatalf("frame is %s, want %s", got, want)
	}
}

// TestSinglePassFormMatchesPlan: the one-pass sparse encoder picks exactly
// the form, and produces exactly the size, that sizing every form on its own
// and keeping the smallest does (the delta form only when strictly smaller)
// — across densities and sides that straddle every boundary between the
// coordinate, delta and 32-bit forms, and for structures only the 32-bit
// form can express. wirePlan, which EncodedBytes reports, agrees too.
func TestSinglePassFormMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var blocks []matrix.Block
	for _, density := range []float64{0, 0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1} {
		for _, dims := range [][2]int{{1, 1}, {7, 300}, {300, 7}, {64, 64}, {200, 130}, {256, 256}, {300, 300}} {
			d := randSparseDense(rng, dims[0], dims[1], density)
			blocks = append(blocks, matrix.NewCSRFromDense(d), matrix.NewCSCFromDense(d))
		}
	}
	// Unsorted indices within a line: valid CSR and CSC, neither delta nor
	// coordinate eligible.
	blocks = append(blocks,
		&matrix.CSR{RowsN: 2, ColsN: 4, RowPtr: []int{0, 2, 3}, ColIdx: []int{3, 1, 0}, Val: []float64{1, 2, 3}},
		&matrix.CSC{RowsN: 4, ColsN: 2, ColPtr: []int{0, 2, 3}, RowIdx: []int{3, 1, 0}, Val: []float64{1, 2, 3}})
	seen := map[uint8]bool{}
	for i, blk := range blocks {
		wantTag, wantSize := smallestForm(blk)
		planTag, planSize, err := wirePlan(blk)
		if err != nil {
			t.Fatal(err)
		}
		head, tag, tail, err := AppendWireSG(nil, blk, EncodingFP64)
		if err != nil {
			t.Fatal(err)
		}
		if tag != wantTag || len(head)+len(tail) != wantSize || planTag != wantTag || planSize != wantSize {
			t.Fatalf("block %d: encoded as tag %d, %d bytes, planned as tag %d, %d bytes; the smallest form is tag %d, %d bytes",
				i, tag, len(head)+len(tail), planTag, planSize, wantTag, wantSize)
		}
		seen[tag] = true
	}
	for _, tag := range []uint8{TagCSR32, TagCSC32, TagCSRDelta, TagCSCDelta, TagCSRCoord, TagCSCCoord} {
		if !seen[tag] {
			t.Fatalf("the sweep never reached tag %d (reached %v)", tag, seen)
		}
	}
}

// smallestForm sizes each sparse form of b by its own encoder and returns
// the tag and payload size of the smallest: the coordinate form where it is
// taken (it is never larger than the 32-bit form), the delta form only where
// strictly smaller than both.
func smallestForm(b matrix.Block) (uint8, int) {
	major, minor, ptr, idx, val, coordTag := sparseParts(b)
	nnz := len(val)
	tag, size, deltaTag := TagCSR32, 12+4*(major+1)+4*nnz, TagCSRDelta
	if coordTag == TagCSCCoord {
		tag, deltaTag = TagCSC32, TagCSCDelta
	}
	if coord, _, ok := coordPayload(b); ok {
		tag, size = coordTag, len(coord)-8*nnz
	}
	if delta, ok := appendSparseDeltaStruct(nil, major, minor, ptr, idx, nnz, math.MaxInt); ok && len(delta) < size {
		tag, size = deltaTag, len(delta)
	}
	return tag, size + 8*nnz
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
// readers every socket-facing body decoder is built from, in one chunk or
// cut into chunks of chunk bytes, ended by a last chunk or by the abort
// marker. A malformed record is a typed error (or the stream's own end),
// never a panic; what arrives bounds what is allocated; and an accepted
// block re-encodes. The seeds add coordCases' blocks to frameBlocks', and
// each block's record is also seeded under its retired fp32 and XOR tags.
func FuzzFrameBlocks(f *testing.F) {
	blocks := frameBlocks(f)
	for _, tc := range coordCases() {
		blocks = append(blocks, tc.b)
	}
	for _, blk := range blocks {
		w := BeginFrame()
		if err := w.AppendBlockCRC(blk); err != nil {
			f.Fatal(err)
		}
		raw := frameBytes(f, &w)
		w.Release()
		for _, tag := range append([]uint8{raw[4]}, retiredTags(blk)...) {
			body := append([]byte{tag}, raw[5:]...)
			f.Add(body, true, uint32(0), uint16(0), false)
			f.Add(body[:len(body)-4], false, uint32(0), uint16(0), false)
		}
		f.Add(raw[4:], true, uint32(0), uint16(len(raw)/3), false)
		f.Add(raw[4:], true, uint32(0), uint16(len(raw)/3), true)
	}
	f.Add([]byte{TagDense, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}, false, uint32(0), uint16(0), false)
	f.Add([]byte{TagDense, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}, false, uint32(MaxFrameBytes), uint16(0), false)
	f.Add([]byte{TagDense, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}, false, uint32(MaxFrameBytes), uint16(3), false)
	f.Fuzz(func(t *testing.T, body []byte, summed bool, claim uint32, chunk uint16, abort bool) {
		// The last prefix promises claim bytes more than ever arrive.
		raw := chunked(body, int(chunk), claim, abort)
		var blk matrix.Block
		var err error
		alloc := allocDuring(func() {
			fr := NewFrameReader(bytes.NewReader(raw))
			if err = fr.Next(); err != nil {
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
			short := claim > 0 && errors.Is(err, io.ErrUnexpectedEOF)
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
