package matrix

import (
	"fmt"
	"math"
	"sync"
)

// The dense kernel — the stand-in for the cublasDgemm / LAPACK dgemm call
// of the paper's local-multiplication step — is a register-tiled product:
// C is cut into 8×24 tiles (8×8 for the last 8 or 16 columns) on AVX-512
// CPUs and 4×8 tiles on AVX2 ones, each held in registers over the whole k
// range by a micro-kernel (gemm_amd64.s), and the rows and columns left
// over run the portable loop below, which is also the whole kernel wherever
// the micro-kernels are not built or the CPU lacks AVX2 and FMA3. All of them take one fused
// multiply-add per step, c = a·b + c rounded once as IEEE 754 defines it,
// and walk k upwards, so a product has the same bits on every path, at any
// fan-out width, for any row grouping — and the bits of the naive i-k-j
// triple loop written with math.FMA, which is exact on every architecture,
// with or without a hardware FMA. Dense arithmetic is plain IEEE: a zero in
// A is multiplied like any other value (0·Inf = NaN); only the sparse
// kernels skip, and only structural zeros.

const (
	tileRows     = 4  // rows of the AVX2 tile, and of the portable loop's groups
	wideTileRows = 8  // rows of the AVX-512 tiles
	tileCols     = 8  // columns of a tile, and of a PackB panel
	wideTileCols = 24 // columns of the main AVX-512 tile: three panels
	// rowChunk is how many rows of C are finished before the next: the
	// chunk of A (rowChunk×k) stays in L2 while the panels of B stream past
	// it. Fixed; choosing it and a k panel per cache level with
	// core.OptimizeSub is left open (ROADMAP item 3a).
	rowChunk = 128
)

// gemmFlopsThreshold is the minimum multiply-add work (2·m·n·k) before a
// bare Gemm call fans its rows out across goroutines; below it — a 128³
// block is a quarter of it — the spawn and join cost more than the second
// core returns. A var so the equivalence tests can force the fan-out on
// small inputs.
var gemmFlopsThreshold = 1 << 24

// packMinRows is the fewest A rows worth repacking B for. Packing reads and
// writes B once; what it saves each row tile is the strided walk down B's
// rows. Measured under the 8×24 tile, PackB + GemmPacked on one thread
// against the same product read in place, GFLOP/s (rows × cols × k):
//
//	128 × 128 × 128   34–40 packed, 43–55 in place
//	256 × 128 × 128   39–41 packed, 42–48 in place
//	320 × 128 × 128   39–40 packed, 43–44 in place
//	384 × 128 × 128   40–54 packed, 42–48 in place (a wash)
//	128 × 768 × 768   18.4–18.6 packed, 17.2–17.4 in place
//	256 × 768 × 768   27–31 packed, 18–19 in place
//
// so 128-column blocks gain from the pack from about 384 rows, while wider
// blocks, whose row stride aliases in L1, gain from 128 and gain a lot from
// 256. 256 keeps GNMF's 128-row chains in place and gives up 7 % on
// 128-row products against 768-column blocks.
const packMinRows = 256

// KernelName names the dense kernel this process selected: "avx512",
// "avx2" or "go".
func KernelName() string {
	switch {
	case wide:
		return "avx512"
	case simd:
		return "avx2"
	}
	return "go"
}

// rowTile is the height of the selected dense tile: the unit in which rows
// of C are split between goroutines, so that no tile is cut in two.
func rowTile() int {
	if wide {
		return wideTileRows
	}
	return tileRows
}

// PackedB is a dense right-hand operand prepared for repeated products on
// one goroutine each (GemmPacked). When the micro-kernel is in use and
// enough rows will be multiplied against it, its full 8-column panels are
// copied out so that the kernel streams B contiguously instead of one cache
// line per row stride; otherwise B is read in place.
type PackedB struct {
	b      *Dense
	panels []float64 // panel j/8 is B[:, j:j+8] row-major at [j*k, (j+8)*k); nil: read b in place
}

// PackB prepares b for products against rows rows of A in total. Release
// the result once the last product has returned.
func PackB(b *Dense, rows int) PackedB {
	k, n := b.RowsN, b.ColsN
	n8 := n &^ (tileCols - 1)
	if !simd || rows < packMinRows || n8 == 0 || k == 0 {
		return PackedB{b: b}
	}
	panels, _ := getScratch(k * n8)
	for j := 0; j < n8; j += tileCols {
		dst := panels[j*k : (j+tileCols)*k]
		for p := 0; p < k; p++ {
			copy(dst[p*tileCols:(p+1)*tileCols], b.Data[p*n+j:p*n+j+tileCols])
		}
	}
	return PackedB{b: b, panels: panels}
}

// Release returns the panel copy to the scratch pool. The PackedB must not
// be used afterwards.
func (p PackedB) Release() { putScratch(p.panels) }

// Gemm computes C += A×B for dense blocks. Dimensions must agree: A is
// m×k, B is k×n, C is m×n. Large products fan their rows out up to
// KernelWorkers goroutines; each row of C is computed by exactly one of
// them in the same per-element order, so the result does not depend on the
// width.
func Gemm(c, a, b *Dense) {
	m, n, k := gemmDims("Gemm", c, a, b)
	if m == 0 || n == 0 || k == 0 {
		return
	}
	pb := PackB(b, m)
	defer pb.Release()
	if !GemmFansOut(m, n, k) {
		gemmRows(c, a, pb, 0, m)
		return
	}
	// Whole row tiles per goroutine, the last one taking the remainder rows.
	chunk := RowChunk(m, KernelWorkers())
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi+rowTile() > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			gemmRows(c, a, pb, lo, hi)
		}(lo, hi)
		if hi == m {
			break
		}
	}
	wg.Wait()
}

// GemmFansOut reports whether a bare Gemm of an m×k by k×n product spreads
// its rows over goroutines by itself: at least two row tiles of the
// selected height, two workers, and gemmFlopsThreshold of work.
func GemmFansOut(m, n, k int) bool {
	return KernelWorkers() >= 2 && m >= 2*rowTile() && 2*m*n*k >= gemmFlopsThreshold
}

// RowChunk is how many rows of an m-row product each of up to workers
// goroutines takes: whole row tiles of the selected height, so that only
// the last chunk meets the rows that do not fill one.
func RowChunk(m, workers int) int {
	h := rowTile()
	tiles := max(m/h, 1)
	workers = max(min(workers, tiles), 1)
	return (tiles + workers - 1) / workers * h
}

// GemmPacked computes C += A×B on the calling goroutine, against an
// operand prepared by PackB. It is what a cuboid's (i,j) tiles run: the
// cuboid packs each B block once and fans out over tiles, not inside them.
func GemmPacked(c, a *Dense, b PackedB) {
	GemmPackedRows(c, a, b, 0, a.RowsN)
}

// GemmPackedRows is GemmPacked over rows [lo, hi) of C only: a cuboid whose
// whole output is one tile fans the tile's row chunks out, each chunk
// running the k chain by itself. A row's bits do not depend on the chunk it
// falls in.
func GemmPackedRows(c, a *Dense, b PackedB, lo, hi int) {
	m, _, _ := gemmDims("GemmPacked", c, a, b.b)
	if lo < 0 || hi > m || lo > hi {
		panic(fmt.Sprintf("matrix: GemmPacked: rows [%d, %d) outside %d", lo, hi, m))
	}
	gemmRows(c, a, b, lo, hi)
}

func gemmDims(op string, c, a, b *Dense) (m, n, k int) {
	m, k = a.Dims()
	kb, n := b.Dims()
	cm, cn := c.Dims()
	if k != kb || cm != m || cn != n {
		panic(fmt.Sprintf("matrix: %s: dimension mismatch %dx%d × %dx%d -> %dx%d", op, m, k, kb, n, cm, cn))
	}
	return m, n, k
}

// gemmRows computes rows [lo, hi) of C += A×B: full tiles through the
// micro-kernels, a chunk of rows at a time and within it column group by
// column group, so the group's panels of B stay in L1 across the chunk's row
// tiles. Where the CPU has the AVX-512 tiles a group is 24 columns wide,
// three panels under the 8×24 tile, while whole groups last; the 8 or 16
// columns left over go one panel at a time under the 8×8 tile. Elsewhere
// every group is one panel. A chunk is a multiple of eight rows, so a 4-row
// tile, three abreast in a 24-column group, only ever ends the last one;
// then the columns and rows that do not fill a tile run the portable loop.
func gemmRows(c, a *Dense, pb PackedB, lo, hi int) {
	b := pb.b
	k, n := a.ColsN, b.ColsN
	tiledHi, tiledCols := lo, 0
	if simd && k > 0 {
		tiledHi = lo + (hi-lo)&^(tileRows-1)
		tiledCols = n &^ (tileCols - 1)
		for i0 := lo; i0 < tiledHi; i0 += rowChunk {
			i1 := min(i0+rowChunk, tiledHi)
			for j := 0; j < tiledCols; {
				w := tileCols
				if wide && j+wideTileCols <= tiledCols {
					w = wideTileCols
				}
				// Panel q of the group starts at bs[bo+q*bnext], rows ldb apart.
				bs, bo, ldb, bnext := b.Data, j, n, tileCols
				if pb.panels != nil {
					bs, bo, ldb, bnext = pb.panels, j*k, tileCols, tileCols*k
				}
				for i := i0; i < i1; {
					cp, ap := &c.Data[i*n+j], &a.Data[i*k]
					switch {
					case wide && i+wideTileRows <= i1 && w == wideTileCols:
						gemmTile8x24(cp, ap, &bs[bo], k, n, k, ldb, bnext)
						i += wideTileRows
					case wide && i+wideTileRows <= i1:
						gemmTile8x8(cp, ap, &bs[bo], k, n, k, ldb)
						i += wideTileRows
					default:
						for q := 0; q < w/tileCols; q++ {
							gemmTile4x8(&c.Data[i*n+j+q*tileCols], ap, &bs[bo+q*bnext], k, n, k, ldb)
						}
						i += tileRows
					}
				}
				j += w
			}
		}
	}
	gemmGo(c, a, b, lo, tiledHi, tiledCols, n)
	gemmGo(c, a, b, tiledHi, hi, 0, n)
}

// gemmGo is the portable kernel: rows [lo, hi), columns [jlo, jhi) of
// C += A×B, four C rows advanced together so each B row is read once per
// four output rows. Every step is math.FMA — a hardware FMA where the
// architecture has one, an exact software one elsewhere — so the bits are
// the micro-kernels' on every architecture.
func gemmGo(c, a, b *Dense, lo, hi, jlo, jhi int) {
	if lo >= hi || jlo >= jhi {
		return
	}
	k, n := a.ColsN, b.ColsN
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		a2 := a.Data[(i+2)*k : (i+3)*k]
		a3 := a.Data[(i+3)*k : (i+4)*k]
		w := jhi - jlo
		c0 := c.Data[i*n+jlo:][:w]
		c1 := c.Data[(i+1)*n+jlo:][:w]
		c2 := c.Data[(i+2)*n+jlo:][:w]
		c3 := c.Data[(i+3)*n+jlo:][:w]
		for p := 0; p < k; p++ {
			v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
			brow := b.Data[p*n+jlo:][:w]
			for j, bv := range brow {
				c0[j] = math.FMA(v0, bv, c0[j])
				c1[j] = math.FMA(v1, bv, c1[j])
				c2[j] = math.FMA(v2, bv, c2[j])
				c3[j] = math.FMA(v3, bv, c3[j])
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n+jlo : i*n+jhi]
		for p, av := range arow {
			brow := b.Data[p*n+jlo : p*n+jhi]
			for j, bv := range brow {
				crow[j] = math.FMA(av, bv, crow[j])
			}
		}
	}
}
