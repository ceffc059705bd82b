package codec

import (
	"math/rand"
	"testing"

	"distme/internal/matrix"
)

// BenchmarkSparseWire encodes and decodes the sparse blocks of two of the
// repository benchmark's workloads, 64 of each, and reports the time and the
// payload bytes per block: a block of sparse_tall's A (256², 0.1 %, about 65
// entries and 200 empty rows, the coordinate form) and one of
// gnmf_resident's V (256², 1 %, the delta form). Run it with
//
//	go test -run '^$' -bench SparseWire -cpu 1 ./internal/codec
func BenchmarkSparseWire(b *testing.B) {
	for _, w := range []struct {
		name    string
		density float64
		tag     uint8
	}{
		{"sparse_tall_A", 0.001, TagCSRCoord},
		{"gnmf_resident_V", 0.01, TagCSRDelta},
	} {
		rng := rand.New(rand.NewSource(46))
		blocks := make([]matrix.Block, 64)
		payloads := make([][]byte, len(blocks))
		var bytes int
		for i := range blocks {
			blocks[i] = matrix.RandomSparse(rng, 256, 256, w.density)
			payload, tag, err := AppendWire(nil, blocks[i])
			if err != nil || tag != w.tag {
				b.Fatalf("%s block %d: tag %d, %v; want tag %d", w.name, i, tag, err, w.tag)
			}
			payloads[i] = payload
			bytes += len(payload)
		}
		perBlock := float64(bytes) / float64(len(blocks))
		b.Run(w.name+"/encode", func(b *testing.B) {
			buf := make([]byte, 0, 64<<10)
			for i := 0; i < b.N; i++ {
				// The frame writer's path: structure into the arena, values
				// left where they lie.
				if _, _, _, err := AppendWireSG(buf, blocks[i%len(blocks)], EncodingFP64); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perBlock, "B/block")
		})
		b.Run(w.name+"/decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Decode(w.tag, payloads[i%len(payloads)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perBlock, "B/block")
		})
	}
}
