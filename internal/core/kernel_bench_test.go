package core

import (
	"math/rand"
	"testing"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

var benchTiles []*matrix.Dense

// BenchmarkOneTileChain is GNMF's Wᵀ·W at the repository benchmark's size:
// 128×8192 · 8192×128 in 256-blocks, one C tile under a 32-pair chain.
func BenchmarkOneTileChain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := bmat.RandomDense(rng, 128, 8192, 256)
	y := bmat.RandomDense(rng, 8192, 128, 256)
	box := Box{IHi: 1, JHi: 1, KHi: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTiles, _ = MultiplyBox(box, x.Block, y.Block, nil)
	}
}

// BenchmarkSparseBandBox is one band of GNMF's V·Hᵀ: a 16×1×16 box of
// CSR 256² blocks at 1 % against dense 256×128 blocks.
func BenchmarkSparseBandBox(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := bmat.RandomSparse(rng, 4096, 4096, 256, 0.01)
	y := bmat.RandomDense(rng, 4096, 128, 256)
	box := Box{IHi: 16, JHi: 1, KHi: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTiles, _ = MultiplyBox(box, x.Block, y.Block, nil)
	}
}
