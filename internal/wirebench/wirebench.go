// Package wirebench packages the wire-format regression benchmarks behind
// a library API so `distme-bench -wire` can emit a machine-readable
// artifact (BENCH_wire.json). Each entry pits gob — the repo's original
// RPC encoding, exercised through a persistent encoder/decoder pair the
// way a long-lived connection would — against internal/codec's binary
// framing on the same blocks, and every decoded block is re-verified
// bit-for-bit against the original before any number is reported: a
// decode mismatch fails the run, which is what the CI smoke step keys on.
//
// A second section measures what the content-addressed block cache buys
// end-to-end: one replicated cuboid multiply against a loopback worker,
// cold (cache disabled) versus warm, in real socket bytes.
package wirebench

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/distnet"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// CodecResult is one gob-vs-codec comparison on a single block shape. The
// speedup is throughput-based over the full encode+decode round trip.
type CodecResult struct {
	Name       string  `json:"name"`
	GobBytes   int     `json:"gob_bytes"`
	CodecBytes int     `json:"codec_bytes"`
	GobEncUs   float64 `json:"gob_encode_us_per_op"`
	CodecEncUs float64 `json:"codec_encode_us_per_op"`
	GobDecUs   float64 `json:"gob_decode_us_per_op"`
	CodecDecUs float64 `json:"codec_decode_us_per_op"`
	EncSpeedup float64 `json:"encode_speedup"`
	DecSpeedup float64 `json:"decode_speedup"`
	RoundTripX float64 `json:"roundtrip_speedup"`
}

// CacheResult is the cold-vs-warm socket comparison for one replicated
// multiply: identical plan, identical product, different bytes.
type CacheResult struct {
	Params        string `json:"params"`
	ColdSentBytes int64  `json:"cold_sent_bytes"`
	WarmSentBytes int64  `json:"warm_sent_bytes"`
	CacheRefsSent int64  `json:"cache_refs_sent"`
	BytesSaved    int64  `json:"cache_bytes_saved"`
}

// WritevResult compares frame assembly with a payload copy (append the
// value bytes into the contiguous frame buffer, the pre-scatter-gather
// wire) against the scatter-gather assembly the codecs now use (structural
// prefix only; the value bytes ride as a zero-copy segment).
type WritevResult struct {
	Name    string  `json:"name"`
	Bytes   int     `json:"frame_bytes"`
	CopyUs  float64 `json:"copy_assemble_us_per_op"`
	SGUs    float64 `json:"sg_assemble_us_per_op"`
	Speedup float64 `json:"assemble_speedup"`
}

// EncodingResult reports one opt-in encoding on one block: the byte ratio
// versus the fp64 wire form plus encode/decode timings. Every decode is
// verified before timing — bit-exact for the lossless compressor, exact
// float32 projection for fp32.
type EncodingResult struct {
	Name     string  `json:"name"`
	Encoding string  `json:"encoding"`
	RawBytes int     `json:"fp64_bytes"`
	EncBytes int     `json:"encoded_bytes"`
	Ratio    float64 `json:"byte_ratio"`
	EncUs    float64 `json:"encode_us_per_op"`
	DecUs    float64 `json:"decode_us_per_op"`
}

// BatchResult is the many-tiny-cuboids comparison: the same plan over the
// same loopback worker, one RPC per cuboid versus MultiplyBatch groups,
// with bit-identical products required before any number is reported.
type BatchResult struct {
	Params      string  `json:"params"`
	Items       int64   `json:"items"`
	UnbatchedMs float64 `json:"unbatched_ms"`
	BatchedMs   float64 `json:"batched_ms"`
	BatchRPCs   int64   `json:"batch_rpcs"`
	ThroughputX float64 `json:"throughput_speedup"`
}

// PullResult is the push-vs-pull data-plane comparison over warm operands:
// the same multiply on the same four loopback workers, once with the driver
// shipping every cuboid slice and once shipping only placement manifests.
// Driver bytes are the first (cold-tracker) run's socket delta; wall clock
// is the best of three. The products must be bit-identical, and the pull
// run must move at least 5× fewer driver bytes, or the whole bench fails.
type PullResult struct {
	Params          string  `json:"params"`
	Workers         int     `json:"workers"`
	PushDriverBytes int64   `json:"push_driver_bytes"`
	PullDriverBytes int64   `json:"pull_driver_bytes"`
	PullPeerBytes   int64   `json:"pull_peer_bytes"`
	PushWallMs      float64 `json:"push_wall_ms"`
	PullWallMs      float64 `json:"pull_wall_ms"`
	DriverByteX     float64 `json:"driver_byte_reduction"`
}

// Report is the full wire benchmark run.
type Report struct {
	Date       string           `json:"date"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Codec      []CodecResult    `json:"codec"`
	Cache      CacheResult      `json:"cache"`
	Writev     []WritevResult   `json:"writev"`
	Encodings  []EncodingResult `json:"encodings"`
	Batch      BatchResult      `json:"batch"`
	Pull       PullResult       `json:"pull"`
}

// benchBlocks is the shape menagerie: the dense entries are the ones the
// ≥3× acceptance bar applies to; the sparse entries keep the compact
// forms honest.
func benchBlocks() []struct {
	name string
	blk  matrix.Block
} {
	rng := rand.New(rand.NewSource(8080))
	dense := func(r, c int) *matrix.Dense {
		d := matrix.NewDense(r, c)
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64()
		}
		return d
	}
	sparse := func(r, c int, density float64) *matrix.Dense {
		d := matrix.NewDense(r, c)
		for i := range d.Data {
			if rng.Float64() < density {
				d.Data[i] = rng.NormFloat64()
			}
		}
		return d
	}
	return []struct {
		name string
		blk  matrix.Block
	}{
		{"dense-64x64", dense(64, 64)},
		{"dense-256x256", dense(256, 256)},
		{"csr-256x256-5pct", matrix.NewCSRFromDense(sparse(256, 256, 0.05))},
		{"csc-256x256-20pct", matrix.NewCSCFromDense(sparse(256, 256, 0.20))},
	}
}

func init() {
	// The gob side needs the concrete block types registered, exactly as
	// the old wire protocol did before the binary codec replaced it.
	gob.Register(&matrix.Dense{})
	gob.Register(&matrix.CSR{})
	gob.Register(&matrix.CSC{})
}

// replayReader serves the descriptor-bearing first gob message once (the
// caller primes buf with it), then replays the steady-state message
// forever — a synthetic long-lived connection, so the decoder is
// benchmarked without per-message descriptor costs.
type replayReader struct {
	steady []byte
	buf    bytes.Reader
}

func (r *replayReader) Read(p []byte) (int, error) {
	n, err := r.buf.Read(p)
	if err == io.EOF {
		r.buf.Reset(r.steady)
		n, err = r.buf.Read(p)
	}
	return n, err
}

// wireEncoding returns codec's exact frame payload for b (tag + body).
func wireEncoding(b matrix.Block) ([]byte, uint8, error) {
	payload, tag, err := codec.AppendWire(nil, b)
	if err != nil {
		return nil, 0, err
	}
	return payload, tag, nil
}

// verifyBlock re-encodes got with the codec and compares against the
// original's encoding — one mechanism that catches any value, structure,
// or concrete-type drift bit-for-bit.
func verifyBlock(name, path string, want []byte, wantTag uint8, got matrix.Block) error {
	enc, tag, err := codec.AppendWire(nil, got)
	if err != nil {
		return fmt.Errorf("wirebench: %s: %s decode re-encode: %w", name, path, err)
	}
	if tag != wantTag || !bytes.Equal(enc, want) {
		return fmt.Errorf("wirebench: %s: %s decode is not bit-identical to the original", name, path)
	}
	return nil
}

func usPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.NsPerOp()) / 1e3
}

// codecResults benchmarks every block shape and hard-fails on any decode
// that is not bit-identical.
func codecResults() ([]CodecResult, error) {
	var out []CodecResult
	for _, tc := range benchBlocks() {
		wantPayload, wantTag, err := wireEncoding(tc.blk)
		if err != nil {
			return nil, err
		}

		// gob steady state: one warmup message carries the descriptors,
		// every later message is the per-block cost a connection pays.
		var gobBuf bytes.Buffer
		genc := gob.NewEncoder(&gobBuf)
		if err := genc.Encode(&tc.blk); err != nil {
			return nil, fmt.Errorf("wirebench: %s: gob warmup: %w", tc.name, err)
		}
		first := append([]byte(nil), gobBuf.Bytes()...)
		gobBuf.Reset()
		if err := genc.Encode(&tc.blk); err != nil {
			return nil, err
		}
		steady := append([]byte(nil), gobBuf.Bytes()...)

		rr := &replayReader{steady: steady}
		rr.buf.Reset(first)
		gdec := gob.NewDecoder(rr)
		var warm matrix.Block
		if err := gdec.Decode(&warm); err != nil {
			return nil, fmt.Errorf("wirebench: %s: gob warmup decode: %w", tc.name, err)
		}
		var gobGot matrix.Block
		if err := gdec.Decode(&gobGot); err != nil {
			return nil, fmt.Errorf("wirebench: %s: gob decode: %w", tc.name, err)
		}
		if err := verifyBlock(tc.name, "gob", wantPayload, wantTag, gobGot); err != nil {
			return nil, err
		}

		codecGot, err := codec.Decode(wantTag, wantPayload)
		if err != nil {
			return nil, fmt.Errorf("wirebench: %s: codec decode: %w", tc.name, err)
		}
		if err := verifyBlock(tc.name, "codec", wantPayload, wantTag, codecGot); err != nil {
			return nil, err
		}

		blk := tc.blk
		gobEnc := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gobBuf.Reset()
				if err := genc.Encode(&blk); err != nil {
					b.Fatal(err)
				}
			}
		})
		gobDec := testing.Benchmark(func(b *testing.B) {
			var v matrix.Block
			for i := 0; i < b.N; i++ {
				if err := gdec.Decode(&v); err != nil {
					b.Fatal(err)
				}
			}
		})
		scratch := codec.GetBuffer()
		codecEnc := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				scratch, _, err = codec.AppendWire(scratch[:0], blk)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		codecDec := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(wantTag, wantPayload); err != nil {
					b.Fatal(err)
				}
			}
		})
		codec.PutBuffer(scratch)

		res := CodecResult{
			Name:       tc.name,
			GobBytes:   len(steady),
			CodecBytes: len(wantPayload),
			GobEncUs:   usPerOp(gobEnc),
			CodecEncUs: usPerOp(codecEnc),
			GobDecUs:   usPerOp(gobDec),
			CodecDecUs: usPerOp(codecDec),
		}
		if res.CodecEncUs > 0 {
			res.EncSpeedup = res.GobEncUs / res.CodecEncUs
		}
		if res.CodecDecUs > 0 {
			res.DecSpeedup = res.GobDecUs / res.CodecDecUs
		}
		if rt := res.CodecEncUs + res.CodecDecUs; rt > 0 {
			res.RoundTripX = (res.GobEncUs + res.GobDecUs) / rt
		}
		out = append(out, res)
	}
	return out, nil
}

// cacheResult runs the replicated multiply cold and warm over real
// loopback sockets and verifies the two products are bit-identical.
func cacheResult() (CacheResult, error) {
	rng := rand.New(rand.NewSource(8081))
	a := bmat.RandomDense(rng, 256, 256, 32)
	b := bmat.RandomDense(rng, 256, 256, 32)
	params := core.Params{P: 2, Q: 2, R: 2}
	res := CacheResult{Params: params.String()}

	run := func(disable bool) (int64, int64, int64, *bmat.BlockMatrix, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, 0, nil, err
		}
		defer l.Close()
		if _, err := distnet.Serve(l); err != nil {
			return 0, 0, 0, nil, err
		}
		d, err := distnet.DialOptions([]string{l.Addr().String()}, distnet.Options{DisableBlockCache: disable})
		if err != nil {
			return 0, 0, 0, nil, err
		}
		defer d.Close()
		c, _, err := d.Execute(context.Background(), a, b, distnet.MultiplyOptions{Params: &params})
		if err != nil {
			return 0, 0, 0, nil, err
		}
		sent, _ := d.WireBytes()
		stats := d.NetStats()
		return sent, stats.CacheRefsSent, stats.CacheBytesSaved, c, nil
	}

	coldSent, _, _, coldC, err := run(true)
	if err != nil {
		return res, err
	}
	warmSent, refs, saved, warmC, err := run(false)
	if err != nil {
		return res, err
	}
	cd, wd := coldC.ToDense(), warmC.ToDense()
	if len(cd.Data) != len(wd.Data) {
		return res, fmt.Errorf("wirebench: cold/warm product shapes differ")
	}
	for i := range cd.Data {
		if cd.Data[i] != wd.Data[i] {
			return res, fmt.Errorf("wirebench: warm-cache product differs from cold at element %d", i)
		}
	}
	res.ColdSentBytes = coldSent
	res.WarmSentBytes = warmSent
	res.CacheRefsSent = refs
	res.BytesSaved = saved
	return res, nil
}

// writevResults benchmarks frame assembly on large dense blocks: the
// contiguous build (structural prefix plus a copy of the value bytes, what
// every send paid before scatter-gather framing) against the scatter-gather
// build (structural prefix only; the raw fp64 value bytes ride to writev as
// a zero-copy segment). Both assemblies are first verified to describe the
// identical wire bytes.
func writevResults() ([]WritevResult, error) {
	rng := rand.New(rand.NewSource(8082))
	dense := func(n int) *matrix.Dense {
		d := matrix.NewDense(n, n)
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64()
		}
		return d
	}
	cases := []struct {
		name string
		blk  matrix.Block
	}{
		{"dense-256x256", dense(256)},
		{"dense-512x512", dense(512)},
	}
	var out []WritevResult
	for _, tc := range cases {
		blk := tc.blk
		contig, tag, err := codec.AppendWireEnc(nil, blk, codec.EncodingFP64)
		if err != nil {
			return nil, err
		}
		pre, sgTag, tail, err := codec.AppendWireSG(nil, blk, codec.EncodingFP64)
		if err != nil {
			return nil, err
		}
		joined := append(append([]byte(nil), pre...), tail...)
		if sgTag != tag || !bytes.Equal(joined, contig) {
			return nil, fmt.Errorf("wirebench: %s: scatter-gather assembly is not byte-identical to contiguous", tc.name)
		}

		scratch := codec.GetBuffer()
		copyBench := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				scratch, _, err = codec.AppendWireEnc(scratch[:0], blk, codec.EncodingFP64)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		sgBench := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				scratch, _, _, err = codec.AppendWireSG(scratch[:0], blk, codec.EncodingFP64)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		codec.PutBuffer(scratch)

		res := WritevResult{Name: tc.name, Bytes: len(contig), CopyUs: usPerOp(copyBench), SGUs: usPerOp(sgBench)}
		if res.SGUs > 0 {
			res.Speedup = res.CopyUs / res.SGUs
		}
		out = append(out, res)
	}
	return out, nil
}

// encodingResults reports every opt-in encoding against the fp64 wire form.
// Decodes are verified before timing: the compressor must round-trip
// bit-exactly, fp32 must land exactly on the float32 projection of the
// original values.
func encodingResults() ([]EncodingResult, error) {
	rng := rand.New(rand.NewSource(8083))
	dense := func(n int, gen func() float64) *matrix.Dense {
		d := matrix.NewDense(n, n)
		for i := range d.Data {
			d.Data[i] = gen()
		}
		return d
	}
	var smoothCounter float64
	cases := []struct {
		name string
		blk  matrix.Block
	}{
		{"dense-256x256", dense(256, rng.NormFloat64)},
		{"dense-256x256-smooth", dense(256, func() (v float64) {
			// Slowly varying values (constant 64-long runs): the XOR
			// compressor's best case, standing in for iterative workloads
			// whose blocks converge.
			v = smoothCounter
			smoothCounter += 1.0 / 64
			return math.Floor(v)
		})},
		{"csr-256x256-5pct", matrix.NewCSRFromDense(dense(256, func() float64 {
			if rng.Float64() < 0.05 {
				return rng.NormFloat64()
			}
			return 0
		}))},
	}
	var out []EncodingResult
	for _, tc := range cases {
		raw := int(codec.EncodedBytesEnc(tc.blk, codec.EncodingFP64))
		for _, enc := range []codec.Encoding{codec.EncodingFP32, codec.EncodingCompress} {
			payload, tag, err := codec.AppendWireEnc(nil, tc.blk, enc)
			if err != nil {
				return nil, fmt.Errorf("wirebench: %s/%v encode: %w", tc.name, enc, err)
			}
			got, err := codec.Decode(tag, payload)
			if err != nil {
				return nil, fmt.Errorf("wirebench: %s/%v decode: %w", tc.name, enc, err)
			}
			want, have := tc.blk.Dense(), got.Dense()
			for i := range want.Data {
				w := want.Data[i]
				if enc == codec.EncodingFP32 {
					w = float64(float32(w))
				}
				if w != have.Data[i] {
					return nil, fmt.Errorf("wirebench: %s/%v: decode diverges at element %d", tc.name, enc, i)
				}
			}

			blk := tc.blk
			scratch := codec.GetBuffer()
			encBench := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var err error
					scratch, _, err = codec.AppendWireEnc(scratch[:0], blk, enc)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			decBench := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := codec.Decode(tag, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
			codec.PutBuffer(scratch)

			res := EncodingResult{
				Name:     tc.name,
				Encoding: enc.String(),
				RawBytes: raw,
				EncBytes: len(payload),
				EncUs:    usPerOp(encBench),
				DecUs:    usPerOp(decBench),
			}
			if raw > 0 {
				res.Ratio = float64(len(payload)) / float64(raw)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// batchResult runs a many-tiny-cuboids plan against one loopback worker,
// one RPC per cuboid versus MultiplyBatch groups. Each side takes the best
// of three runs; the products must be bit-identical before any time is
// reported.
func batchResult() (BatchResult, error) {
	rng := rand.New(rand.NewSource(8084))
	a := bmat.RandomDense(rng, 32, 32, 2) // 16×16 grid of 2×2 blocks
	b := bmat.RandomDense(rng, 32, 32, 2)
	params := core.Params{P: 16, Q: 16, R: 1} // 256 tiny cuboids
	res := BatchResult{Params: params.String()}

	run := func(batch bool) (time.Duration, int64, int64, *bmat.BlockMatrix, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, 0, nil, err
		}
		defer l.Close()
		if _, err := distnet.Serve(l); err != nil {
			return 0, 0, 0, nil, err
		}
		opts := distnet.Options{}
		if batch {
			opts.BatchBytes = 1 << 20
		}
		d, err := distnet.DialOptions([]string{l.Addr().String()}, opts)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		defer d.Close()
		best := time.Duration(0)
		var c *bmat.BlockMatrix
		for i := 0; i < 3; i++ {
			start := time.Now()
			c, _, err = d.Execute(context.Background(), a, b, distnet.MultiplyOptions{Params: &params})
			el := time.Since(start)
			if err != nil {
				return 0, 0, 0, nil, err
			}
			if best == 0 || el < best {
				best = el
			}
		}
		stats := d.NetStats()
		return best, stats.BatchRPCs, stats.BatchItems, c, nil
	}

	plainT, _, _, plainC, err := run(false)
	if err != nil {
		return res, err
	}
	batchT, rpcs, items, batchC, err := run(true)
	if err != nil {
		return res, err
	}
	pd, bd := plainC.ToDense(), batchC.ToDense()
	if len(pd.Data) != len(bd.Data) {
		return res, fmt.Errorf("wirebench: batched product shape differs")
	}
	for i := range pd.Data {
		if pd.Data[i] != bd.Data[i] {
			return res, fmt.Errorf("wirebench: batched product differs from unbatched at element %d", i)
		}
	}
	res.Items = items / 3 // three timed runs; report one plan's worth
	res.UnbatchedMs = float64(plainT.Microseconds()) / 1e3
	res.BatchedMs = float64(batchT.Microseconds()) / 1e3
	res.BatchRPCs = rpcs / 3
	if batchT > 0 {
		res.ThroughputX = float64(plainT) / float64(batchT)
	}
	return res, nil
}

// pullResult measures the warm-operand push-vs-pull comparison: a fresh
// four-worker cluster per mode, operands Put once into a session (resident
// on the workers), then the same explicit-params multiply through each data
// plane. The byte delta of the first multiply is the driver's data-path
// cost — push re-ships every cuboid slice, pull ships manifests and lets
// the workers fetch slices from each other.
func pullResult() (PullResult, error) {
	rng := rand.New(rand.NewSource(8085))
	a := bmat.RandomDense(rng, 256, 192, 32)
	b := bmat.RandomDense(rng, 192, 256, 32)
	params := core.Params{P: 2, Q: 2, R: 1}
	const workers = 4
	res := PullResult{Params: params.String(), Workers: workers}
	ctx := context.Background()

	run := func(mode core.Transfer) (driverBytes, peerBytes int64, wall time.Duration, c *bmat.BlockMatrix, err error) {
		addrs := make([]string, 0, workers)
		for i := 0; i < workers; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return 0, 0, 0, nil, err
			}
			defer l.Close()
			if _, err := distnet.Serve(l); err != nil {
				return 0, 0, 0, nil, err
			}
			addrs = append(addrs, l.Addr().String())
		}
		d, err := distnet.Dial(addrs)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		defer d.Close()
		s, err := d.NewSession(ctx)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		defer s.Close(ctx)
		ha, err := s.Put(ctx, a)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		hb, err := s.Put(ctx, b)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		sent0, _ := d.WireBytes()
		for i := 0; i < 3; i++ {
			start := time.Now()
			c, _, err = s.Multiply(ctx, ha, hb, distnet.MultiplyOptions{Params: &params, Transfer: mode})
			el := time.Since(start)
			if err != nil {
				return 0, 0, 0, nil, err
			}
			if i == 0 {
				sent1, _ := d.WireBytes()
				driverBytes = sent1 - sent0
			}
			if wall == 0 || el < wall {
				wall = el
			}
		}
		return driverBytes, d.NetStats().PullPeerBytes, wall, c, nil
	}

	pushBytes, _, pushWall, pushC, err := run(core.TransferPush)
	if err != nil {
		return res, err
	}
	pullBytes, peerBytes, pullWall, pullC, err := run(core.TransferPull)
	if err != nil {
		return res, err
	}
	pd, ld := pushC.ToDense(), pullC.ToDense()
	if len(pd.Data) != len(ld.Data) {
		return res, fmt.Errorf("wirebench: pull product shape differs from push")
	}
	for i := range pd.Data {
		if math.Float64bits(pd.Data[i]) != math.Float64bits(ld.Data[i]) {
			return res, fmt.Errorf("wirebench: pull product differs from push at element %d", i)
		}
	}
	res.PushDriverBytes = pushBytes
	res.PullDriverBytes = pullBytes
	res.PullPeerBytes = peerBytes
	res.PushWallMs = float64(pushWall.Microseconds()) / 1e3
	res.PullWallMs = float64(pullWall.Microseconds()) / 1e3
	if pullBytes > 0 {
		res.DriverByteX = float64(pushBytes) / float64(pullBytes)
	}
	if pullBytes*5 >= pushBytes {
		return res, fmt.Errorf("wirebench: pull moved %d driver bytes against push's %d — less than the required 5x reduction",
			pullBytes, pushBytes)
	}
	return res, nil
}

// Run executes the full wire benchmark. Any decode that is not
// bit-identical to its input — gob or codec, block or whole product —
// returns an error, which distme-bench turns into a nonzero exit.
func Run() (*Report, error) { return RunTraced(nil) }

// RunTraced is Run with the codec and cache stages recorded as KindBench
// spans on tr (nil traces nothing), so `distme-bench -wire -trace-out`
// leaves an inspectable timeline of the run alongside the numbers.
func RunTraced(tr *obs.Tracer) (*Report, error) {
	r := &Report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	root := tr.Start(0, "wirebench", obs.KindBench)
	defer root.End()

	csp := tr.Start(root.ID(), "codec", obs.KindBench)
	cres, err := codecResults()
	if err != nil {
		endBenchErr(csp, err)
		return nil, err
	}
	if csp.Active() {
		for _, b := range cres {
			csp.SetAttr(b.Name, fmt.Sprintf("gob %d B, codec %d B", b.GobBytes, b.CodecBytes))
		}
	}
	csp.End()
	r.Codec = cres

	ksp := tr.Start(root.ID(), "cache", obs.KindBench)
	cache, err := cacheResult()
	if err != nil {
		endBenchErr(ksp, err)
		return nil, err
	}
	if ksp.Active() {
		ksp.SetAttr("cold-sent", fmt.Sprintf("%d B", cache.ColdSentBytes))
		ksp.SetAttr("warm-sent", fmt.Sprintf("%d B", cache.WarmSentBytes))
	}
	ksp.End()
	r.Cache = cache

	wsp := tr.Start(root.ID(), "writev", obs.KindBench)
	wres, err := writevResults()
	if err != nil {
		endBenchErr(wsp, err)
		return nil, err
	}
	if wsp.Active() {
		for _, b := range wres {
			wsp.SetAttr(b.Name, fmt.Sprintf("copy %.1fus, sg %.1fus", b.CopyUs, b.SGUs))
		}
	}
	wsp.End()
	r.Writev = wres

	esp := tr.Start(root.ID(), "encodings", obs.KindBench)
	eres, err := encodingResults()
	if err != nil {
		endBenchErr(esp, err)
		return nil, err
	}
	if esp.Active() {
		for _, b := range eres {
			esp.SetAttr(b.Name+"/"+b.Encoding, fmt.Sprintf("%d B of %d B", b.EncBytes, b.RawBytes))
		}
	}
	esp.End()
	r.Encodings = eres

	bsp := tr.Start(root.ID(), "batch", obs.KindBench)
	bres, err := batchResult()
	if err != nil {
		endBenchErr(bsp, err)
		return nil, err
	}
	if bsp.Active() {
		bsp.SetAttr("items", fmt.Sprintf("%d", bres.Items))
		bsp.SetAttr("speedup", fmt.Sprintf("%.2fx", bres.ThroughputX))
	}
	bsp.End()
	r.Batch = bres

	psp := tr.Start(root.ID(), "pull", obs.KindBench)
	pres, err := pullResult()
	if err != nil {
		endBenchErr(psp, err)
		return nil, err
	}
	if psp.Active() {
		psp.SetAttr("push-driver", fmt.Sprintf("%d B", pres.PushDriverBytes))
		psp.SetAttr("pull-driver", fmt.Sprintf("%d B", pres.PullDriverBytes))
		psp.SetAttr("reduction", fmt.Sprintf("%.1fx", pres.DriverByteX))
	}
	psp.End()
	r.Pull = pres
	return r, nil
}

func endBenchErr(sp obs.Span, err error) {
	if sp.Active() {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Fprint renders the report as aligned text tables.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "wire benchmarks  %s  %s/%s  %d CPU (GOMAXPROCS=%d)  %s\n",
		r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU, r.GOMAXPROCS, r.Date)
	fmt.Fprintf(w, "%-20s %10s %10s %10s %10s %10s %10s %8s\n",
		"block", "gob B", "codec B", "gob enc", "codec enc", "gob dec", "codec dec", "rt x")
	for _, c := range r.Codec {
		fmt.Fprintf(w, "%-20s %10d %10d %9.1fu %9.1fu %9.1fu %9.1fu %7.2fx\n",
			c.Name, c.GobBytes, c.CodecBytes,
			c.GobEncUs, c.CodecEncUs, c.GobDecUs, c.CodecDecUs, c.RoundTripX)
	}
	fmt.Fprintf(w, "block cache %s: cold sent %d B, warm sent %d B (%.0f%%), %d refs, %d B saved\n",
		r.Cache.Params, r.Cache.ColdSentBytes, r.Cache.WarmSentBytes,
		100*float64(r.Cache.WarmSentBytes)/float64(r.Cache.ColdSentBytes),
		r.Cache.CacheRefsSent, r.Cache.BytesSaved)
	if len(r.Writev) > 0 {
		fmt.Fprintf(w, "%-20s %10s %12s %12s %8s\n", "frame assembly", "bytes", "copy", "scatter", "x")
		for _, v := range r.Writev {
			fmt.Fprintf(w, "%-20s %10d %11.1fu %11.1fu %7.2fx\n", v.Name, v.Bytes, v.CopyUs, v.SGUs, v.Speedup)
		}
	}
	if len(r.Encodings) > 0 {
		fmt.Fprintf(w, "%-32s %10s %10s %7s %10s %10s\n", "encoding", "fp64 B", "enc B", "ratio", "enc", "dec")
		for _, e := range r.Encodings {
			fmt.Fprintf(w, "%-32s %10d %10d %7.2f %9.1fu %9.1fu\n",
				e.Name+"/"+e.Encoding, e.RawBytes, e.EncBytes, e.Ratio, e.EncUs, e.DecUs)
		}
	}
	if r.Batch.Items > 0 {
		fmt.Fprintf(w, "batched small multiplies %s: %d items, unbatched %.1f ms, batched %.1f ms over %d RPCs (%.2fx)\n",
			r.Batch.Params, r.Batch.Items, r.Batch.UnbatchedMs, r.Batch.BatchedMs, r.Batch.BatchRPCs, r.Batch.ThroughputX)
	}
	if r.Pull.Workers > 0 {
		fmt.Fprintf(w, "pull plane %s over %d workers: driver push %d B vs pull %d B (%.1fx fewer), peers moved %d B; wall push %.1f ms vs pull %.1f ms\n",
			r.Pull.Params, r.Pull.Workers, r.Pull.PushDriverBytes, r.Pull.PullDriverBytes,
			r.Pull.DriverByteX, r.Pull.PullPeerBytes, r.Pull.PushWallMs, r.Pull.PullWallMs)
	}
}
