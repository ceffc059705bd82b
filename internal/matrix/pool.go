package matrix

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The dense-buffer pool recycles the float64 backing arrays of short-lived
// dense accumulators — the MulAdd accumulators and aggregation temporaries
// of the many-cuboid multiply path, which otherwise allocate one
// block-sized array per (i,j,k-range) and leave all of them to the GC.
// Arrays are pooled in power-of-two size classes so a buffer released by
// one block shape can serve any equal-or-smaller shape.
//
// Ownership protocol: GetDense hands out a zeroed block tagged as
// pool-origin; PutDense recycles the array only for pool-origin blocks and
// is a no-op (and therefore always safe) on blocks allocated any other
// way. A released block's Data is nilled so accidental use-after-release
// fails fast on a bounds check instead of silently aliasing a reused array.

const (
	// poolMinBits: arrays below 2^8 elements (2 KiB) are cheaper to
	// allocate than to round-trip through the pool.
	poolMinBits = 8
	// poolMaxBits: arrays above 2^26 elements (512 MiB) are too big to keep
	// cached; let the GC have them.
	poolMaxBits = 26
)

var densePools [poolMaxBits + 1]sync.Pool

// PoolStats counts dense-pool traffic; Hits/Gets is the reuse rate.
type PoolStats struct {
	Gets, Hits, Puts int64
}

var poolGets, poolHits, poolPuts atomic.Int64

// DensePoolStats returns cumulative pool counters (process lifetime).
func DensePoolStats() PoolStats {
	return PoolStats{Gets: poolGets.Load(), Hits: poolHits.Load(), Puts: poolPuts.Load()}
}

// GetDense returns a zeroed rows×cols dense block whose backing array may be
// recycled. Release it with PutDense once it provably has no more readers;
// blocks that escape into long-lived results are simply never released.
func GetDense(rows, cols int) *Dense {
	data, recycled := getScratch(rows * cols)
	if recycled {
		clear(data)
	}
	return &Dense{RowsN: rows, ColsN: cols, Data: data, fromPool: true}
}

// GetTranspose returns dᵀ in a block whose backing array may be recycled,
// as GetDense's are — without GetDense's zeroing, which the transpose
// overwrites. Release it with PutDense.
func GetTranspose(d *Dense) *Dense {
	data, _ := getScratch(d.RowsN * d.ColsN)
	t := &Dense{RowsN: d.ColsN, ColsN: d.RowsN, Data: data, fromPool: true}
	transpose(t.Data, d.Data, d.RowsN, d.ColsN)
	return t
}

// PutDense releases a block obtained from GetDense back to the pool. The
// caller must guarantee no other references to the block or its Data
// survive. Calling it on a non-pooled or already-released block is a no-op.
func PutDense(d *Dense) {
	if d == nil || !d.fromPool {
		return
	}
	d.fromPool = false
	putScratch(d.Data)
	d.Data = nil
}

// getScratch returns a float64 buffer of the given length, and whether it
// was recycled from the pool: a recycled buffer holds arbitrary contents, a
// fresh one zeros — callers that need zeros clear only a recycled one
// (GetDense does).
func getScratch(n int) (s []float64, recycled bool) {
	if n <= 0 {
		return nil, false
	}
	class := bits.Len(uint(n - 1)) // ceil(log2(n))
	if class < poolMinBits || class > poolMaxBits {
		return make([]float64, n), false
	}
	poolGets.Add(1)
	if v := densePools[class].Get(); v != nil {
		poolHits.Add(1)
		s := *(v.(*[]float64))
		return s[:n], true
	}
	return make([]float64, n, 1<<class), false
}

// putScratch recycles a buffer previously handed out by getScratch. Foreign
// buffers are accepted too: they are filed under the largest power-of-two
// class their capacity covers.
func putScratch(s []float64) {
	c := cap(s)
	if c == 0 {
		return
	}
	class := bits.Len(uint(c)) - 1 // floor(log2(c)): 1<<class <= cap
	if class < poolMinBits || class > poolMaxBits {
		return
	}
	poolPuts.Add(1)
	boxed := s[: 0 : 1<<class]
	densePools[class].Put(&boxed)
}
