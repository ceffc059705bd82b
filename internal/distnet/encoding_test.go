package distnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/iotest"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
)

// ---------------------------------------------------------------------------
// Opt-in block encodings over a real socket

// TestEncodingCompressBitIdentical: the compressed encoding is lossless, so
// a compressed run must produce the float64-bit-identical product of the
// default fp64 run — it only changes bytes on the wire.
func TestEncodingCompressBitIdentical(t *testing.T) {
	a, b := cacheTestMatrices(8101)
	params := core.Params{P: 2, Q: 2, R: 2}

	plainAddr, _ := startCacheWorker(t, 0)
	plain, err := DialOptions([]string{plainAddr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want, err := execute(plain, a, b, params)
	if err != nil {
		t.Fatal(err)
	}

	encAddr, _ := startCacheWorker(t, 0)
	opts := fastOpts()
	opts.Encoding = codec.EncodingCompress
	enc, err := DialOptions([]string{encAddr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	got, err := execute(enc, a, b, params)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
	if stats := enc.NetStats(); stats.EncodedBlocks == 0 {
		t.Fatalf("no encoded blocks counted: %+v", stats)
	}
}

// TestEncodingFP32OverTheWire: fp32 projects only the input payloads — the
// workers then compute in fp64 and return bit-exact partials — so the
// product equals the local product of the fp32-projected inputs to the
// usual local-vs-remote tolerance, and the wire saved real bytes.
func TestEncodingFP32OverTheWire(t *testing.T) {
	a, b := cacheTestMatrices(8102)
	params := core.Params{P: 2, Q: 2, R: 2}

	addr, _ := startCacheWorker(t, 0)
	opts := fastOpts()
	opts.Encoding = codec.EncodingFP32
	d, err := DialOptions([]string{addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got, err := execute(d, a, b, params)
	if err != nil {
		t.Fatal(err)
	}

	proj := func(m *bmat.BlockMatrix) *matrix.Dense {
		d := m.ToDense()
		for i := range d.Data {
			d.Data[i] = float64(float32(d.Data[i]))
		}
		return d
	}
	want := matrix.Mul(proj(a), proj(b)).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("fp32 product differs from fp64 compute on fp32-projected inputs")
	}
	stats := d.NetStats()
	if stats.EncodedBlocks == 0 || stats.EncodedBytesSaved == 0 {
		t.Fatalf("fp32 saved nothing: %+v", stats)
	}
}

// TestEncodingInvalidRejected: an unknown encoding is a dial-time error,
// not a silent fallback to lossy or lossless behavior the caller did not
// pick.
func TestEncodingInvalidRejected(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	opts := fastOpts()
	opts.Encoding = codec.Encoding(99)
	if _, err := DialOptions(addrs, opts); err == nil {
		t.Fatal("unknown encoding accepted")
	}
}

// ---------------------------------------------------------------------------
// Fragmented reads (satellite: robustness against dribbling sockets)

// encodeRequestFrame serializes one multiply request exactly as the driver
// does — including a payload large enough to take the scatter-gather
// (writev) path — and returns the raw frame bytes.
func encodeRequestFrame(t *testing.T) ([]byte, *multiplyArgs) {
	t.Helper()
	rng := rand.New(rand.NewSource(8105))
	aBlk := matrix.NewDense(32, 32) // 8 KiB of values: above minZeroCopyTail
	bBlk := matrix.NewDense(32, 32)
	for i := range aBlk.Data {
		aBlk.Data[i] = rng.NormFloat64()
		bBlk.Data[i] = rng.NormFloat64()
	}
	args := &multiplyArgs{
		IHi: 1, JHi: 1, KHi: 1, slabs: 1,
		ABlocks: []blockRec{{Key: bmat.BlockKey{I: 0, J: 0}, Block: aBlk}},
		BBlocks: []blockRec{{Key: bmat.BlockKey{I: 0, J: 0}, Block: bBlk}},
	}
	prepareRecs(t, args.ABlocks, args.BBlocks)
	return requestFrame(t, methodMultiply, codec.Writes(blockSender{}.appendMultiplyArgs, args)), args
}

// decodeRequestFrame parses one framed Multiply request from r the way the
// worker's codec does: header, then the streaming body decode.
func decodeRequestFrame(r io.Reader) (seq uint64, method byte, args multiplyArgs, left int64, err error) {
	fr := codec.NewFrameReader(r)
	if _, err = fr.Next(); err != nil {
		return
	}
	if seq, err = fr.Uvarint(); err != nil {
		return
	}
	if method, err = fr.U8(); err != nil {
		return
	}
	err = decodeMultiplyArgs(fr, &args, newBlockCache(-1))
	return seq, method, args, fr.Remaining(), err
}

// TestFragmentedFrameReads drives a whole request frame through a
// one-byte-at-a-time reader: the streaming decode must be identical to the
// contiguous read, and truncating the stream at every single byte offset
// must fail cleanly — never a panic, never a bogus success.
func TestFragmentedFrameReads(t *testing.T) {
	full, args := encodeRequestFrame(t)

	for name, r := range map[string]io.Reader{
		"contiguous": bytes.NewReader(full),
		"dribbled":   iotest.OneByteReader(bytes.NewReader(full)),
	} {
		seq, method, dec, left, err := decodeRequestFrame(r)
		if err != nil {
			t.Fatalf("%s read failed: %v", name, err)
		}
		if seq != 1 || method != methodMultiply {
			t.Fatalf("%s: header (%d, %d)", name, seq, method)
		}
		if left != 0 {
			t.Fatalf("%s: decode left %d trailing bytes", name, left)
		}
		if dec.IHi != 1 || len(dec.ABlocks) != 1 || len(dec.BBlocks) != 1 {
			t.Fatalf("%s: decoded args %+v", name, dec)
		}
		assertBlockBits(t, args.ABlocks[0].Block, dec.ABlocks[0].Block)
		assertBlockBits(t, args.BBlocks[0].Block, dec.BBlocks[0].Block)
	}

	// A stream cut anywhere — inside the prefix, the header, a block's
	// structure or its value tail — is an error.
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, _, err := decodeRequestFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded a request", cut, len(full))
		}
	}
	// So is a frame whose prefix promises less than the body needs: the
	// decoder stops at the frame's end, it does not read into the next one.
	for cut := 4; cut < len(full); cut += 97 {
		short := append([]byte(nil), full[:cut]...)
		binary.LittleEndian.PutUint32(short, uint32(cut-4))
		_, _, _, _, err := decodeRequestFrame(bytes.NewReader(append(short, full...)))
		if !errors.Is(err, errWire) {
			t.Fatalf("frame shortened to %d bytes: %v", cut-4, err)
		}
	}
}

func assertBlockBits(t *testing.T, want, got matrix.Block) {
	t.Helper()
	w, g := want.Dense(), got.Dense()
	wr, wc := w.Dims()
	gr, gc := g.Dims()
	if wr != gr || wc != gc {
		t.Fatalf("dims %dx%d != %dx%d", gr, gc, wr, wc)
	}
	for i := range w.Data {
		if w.Data[i] != g.Data[i] {
			t.Fatalf("value %d differs: %v != %v", i, g.Data[i], w.Data[i])
		}
	}
}

// ---------------------------------------------------------------------------
// sendTracker under concurrency (satellite: race coverage)

// TestSendTrackerConcurrentEpochs hammers seen/forget from many goroutines
// across epoch bumps — run under -race this pins the tracker's locking —
// then checks the sequential semantics still hold.
func TestSendTrackerConcurrentEpochs(t *testing.T) {
	tr := &sendTracker{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(8106 + g)))
			var dg codec.Digest
			for i := 0; i < 3000; i++ {
				rng.Read(dg[:8]) // small space: plenty of cross-goroutine hits
				tr.seen(uint64(i/200), dg)
				if i%311 == 0 {
					tr.forget()
				}
			}
		}(g)
	}
	wg.Wait()

	var dg codec.Digest
	dg[0] = 0xAB
	tr.forget()
	base := tr.epoch + 1
	if tr.seen(base, dg) {
		t.Fatal("fresh digest reported as already sent")
	}
	if !tr.seen(base, dg) {
		t.Fatal("repeat digest not deduplicated")
	}
	// Dedup persists across epochs inside the lifecycle window — that is
	// what lets concurrent jobs share tracker state...
	if !tr.seen(base+1, dg) {
		t.Fatal("epoch bump inside the window dropped the sent set")
	}
	// ...and ages out beyond it, mirroring the worker cache's expiry. The
	// repeat at base+1 refreshed the entry to the then-newest epoch, so
	// jumping a full window past that must expire it.
	var other codec.Digest
	other[0] = 0xCD
	if tr.seen(base+1+DefaultCacheEpochWindow+1, other) {
		t.Fatal("fresh digest reported as already sent after window jump")
	}
	if tr.seen(base+1+DefaultCacheEpochWindow+1, dg) {
		t.Fatal("entry outside the epoch window was not aged out")
	}
	tr.forget()
	if tr.seen(base+1+DefaultCacheEpochWindow+1, dg) {
		t.Fatal("forget did not clear the sent set")
	}
}
