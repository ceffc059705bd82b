package gpu

import (
	"fmt"

	"distme/internal/core"
	"distme/internal/matrix"
)

// Multiplier is the GPU-accelerated local multiplication of §4: it
// implements core.LocalMultiplier by partitioning each cuboid into
// subcuboids that fit θg (Eq. 5–6) and streaming them through the simulated
// device following Algorithm 1. Results are computed for real; the device
// timeline records PCI-E traffic, kernel overlap and utilization.
type Multiplier struct {
	// Device is the simulated device shared (via MPS) by this job's tasks.
	Device *Device
}

// NewMultiplier creates a Multiplier on a fresh device with the given spec.
func NewMultiplier(spec Spec) *Multiplier {
	return &Multiplier{Device: NewDevice(spec)}
}

var _ core.LocalMultiplier = (*Multiplier)(nil)

// AveragePlan is the subcuboid plan of Eq. (5) for the average cuboid of
// the (P,Q,R) partitioning p of s under the device budget θg: the cuboid's
// shape and its (P2,Q2,R2). It is the plan the cost model and EXPLAIN
// predict with; Multiply re-fits every real cuboid, whose ragged edges and
// sparsity skew the average hides.
func AveragePlan(s core.Shape, p core.Params, θg int64) (core.CuboidShape, core.SubParams, error) {
	cs := core.CuboidShape{
		IB:     (s.I + p.P - 1) / p.P,
		JB:     (s.J + p.Q - 1) / p.Q,
		KB:     (s.K + p.R - 1) / p.R,
		ABytes: s.ABytes / int64(p.P*p.R),
		BBytes: s.BBytes / int64(p.R*p.Q),
		CBytes: s.CBytes / int64(p.P*p.Q),
	}
	sub, err := core.OptimizeSub(cs, θg)
	return cs, sub, err
}

// Multiply implements Algorithm 1 for one cuboid: optimize (P2,Q2,R2),
// stream subcuboids in (p2,q2,r2) order keeping the C buffer resident
// across the k-axis, copying the smaller input side as a chunk and the
// bigger side block-by-block on per-j streams, and copy C back after the
// last k-subcuboid.
func (m *Multiplier) Multiply(c *core.Cuboid) ([]core.Partial, error) {
	if c.Voxels() == 0 {
		return nil, nil
	}
	shape := c.Shape()
	spec := m.Device.Spec()
	sub, err := core.OptimizeSub(shape, spec.MemPerTaskBytes)
	if err != nil {
		return nil, err
	}
	sub, err = m.fitSubParams(c, sub)
	if err != nil {
		return nil, err
	}

	tl := newTaskTimeline(spec, shape.JB)
	tl.device = m.Device
	var out []core.Partial

	for p2 := 0; p2 < sub.P2; p2++ {
		ilo, ihi := spanWithin(c.ILo, c.IHi, p2, sub.P2)
		for q2 := 0; q2 < sub.Q2; q2++ {
			jlo, jhi := spanWithin(c.JLo, c.JHi, q2, sub.Q2)

			// Allocate the resident C' buffer for this (p2, q2) column.
			cBytes := denseBytes(c, ilo, ihi, jlo, jhi)
			if err := tl.alloc(cBytes); err != nil {
				return nil, err
			}

			// The resident accumulators of C', row-major over the (i,j) tiles.
			var acc []*matrix.Dense
			box := core.Box{ILo: ilo, IHi: ihi, JLo: jlo, JHi: jhi}
			for r2 := 0; r2 < sub.R2; r2++ {
				box.KLo, box.KHi = spanWithin(c.KLo, c.KHi, r2, sub.R2)
				if err := m.streamSubcuboid(c, tl, box); err != nil {
					return nil, err
				}
				// The real arithmetic of the iteration's kernels, executed
				// on the CPU: ascending r2 keeps every C block's k order.
				acc, _ = core.MultiplyBox(box, c.A.Block, c.B.Block, acc)
				tl.iterations++
			}
			out = append(out, box.Partials(acc)...)

			// Last k-subcuboid done: copy C' back to host (Algorithm 1,
			// lines 19–21) and release it.
			tl.d2h(0, cBytes, fmt.Sprintf("C'(%d,%d)", p2, q2))
			tl.free(cBytes)
		}
	}

	m.Device.merge(tl)
	return out, nil
}

// streamSubcuboid puts one iteration on the device timeline: H2D of the
// smaller input side as a chunk, the bigger side block-by-block with
// per-stream kernel launches.
func (m *Multiplier) streamSubcuboid(c *core.Cuboid, tl *taskTimeline, box core.Box) error {
	ilo, ihi, jlo, jhi, klo, khi := box.ILo, box.IHi, box.JLo, box.JHi, box.KLo, box.KHi
	aBytes := storedBytesA(c, ilo, ihi, klo, khi)
	bBytes := storedBytesB(c, klo, khi, jlo, jhi)
	if err := tl.alloc(aBytes + bBytes); err != nil {
		return err
	}
	defer tl.free(aBytes + bBytes)

	// "copy the smaller one between A^{m,n} and B^{m,n} as a chunk (H2D)
	// and then copy the other bigger one in a block-by-block fashion" §4.3.
	streamA := aBytes > bBytes // A is bigger → A streamed block-by-block
	chunkLabel := "chunk A'"
	if streamA {
		chunkLabel = "chunk B'"
	}
	var chunkReady = tl.h2d(0, minInt64(aBytes, bBytes), chunkLabel)

	if streamA {
		// B is the chunk; stream A blocks on i-indexed streams.
		for i := ilo; i < ihi; i++ {
			for k := klo; k < khi; k++ {
				ab := c.A.Block(i, k)
				if ab == nil {
					continue
				}
				copyEnd := tl.h2d(chunkReady, ab.SizeBytes(), fmt.Sprintf("A(%d,%d)", i, k))
				for j := jlo; j < jhi; j++ {
					bb := c.B.Block(k, j)
					if bb == nil {
						continue
					}
					tl.kernel(i-ilo, copyEnd, core.PairFlops(ab, bb), fmt.Sprintf("K(%d,%d*%d,%d)", i, k, k, j))
				}
			}
		}
	} else {
		// A is the chunk; stream B blocks on j-indexed streams — the set of
		// B blocks updating the same C block shares a stream (§4.3).
		for k := klo; k < khi; k++ {
			for j := jlo; j < jhi; j++ {
				bb := c.B.Block(k, j)
				if bb == nil {
					continue
				}
				copyEnd := tl.h2d(chunkReady, bb.SizeBytes(), fmt.Sprintf("B(%d,%d)", k, j))
				for i := ilo; i < ihi; i++ {
					ab := c.A.Block(i, k)
					if ab == nil {
						continue
					}
					tl.kernel(j-jlo, copyEnd, core.PairFlops(ab, bb), fmt.Sprintf("K(%d,%d*%d,%d)", i, k, k, j))
				}
			}
		}
	}
	return nil
}

// fitSubParams verifies the optimizer's average-size parameters against the
// actual (possibly ragged, possibly skewed-sparsity) subcuboid sizes and
// grows the partitioning until every iteration's working set fits θg. This
// is the elastic adjustment a real implementation needs because Eq.(5) uses
// average sizes.
func (m *Multiplier) fitSubParams(c *core.Cuboid, sub core.SubParams) (core.SubParams, error) {
	θ := m.Device.Spec().MemPerTaskBytes
	shape := c.Shape()
	for {
		if m.fits(c, sub, θ) {
			return sub, nil
		}
		switch {
		case sub.R2 < shape.KB:
			sub.R2++
		case sub.Q2 < shape.JB:
			sub.Q2++
		case sub.P2 < shape.IB:
			sub.P2++
		default:
			return sub, fmt.Errorf("%w: cuboid %s even at voxel granularity", ErrDeviceOutOfMemory, c.Name())
		}
	}
}

// fits reports whether every iteration of the given subcuboid partitioning
// stays within the device budget.
func (m *Multiplier) fits(c *core.Cuboid, sub core.SubParams, θ int64) bool {
	if θ <= 0 {
		return true
	}
	for p2 := 0; p2 < sub.P2; p2++ {
		ilo, ihi := spanWithin(c.ILo, c.IHi, p2, sub.P2)
		for q2 := 0; q2 < sub.Q2; q2++ {
			jlo, jhi := spanWithin(c.JLo, c.JHi, q2, sub.Q2)
			cBytes := denseBytes(c, ilo, ihi, jlo, jhi)
			for r2 := 0; r2 < sub.R2; r2++ {
				klo, khi := spanWithin(c.KLo, c.KHi, r2, sub.R2)
				n := cBytes + storedBytesA(c, ilo, ihi, klo, khi) + storedBytesB(c, klo, khi, jlo, jhi)
				if n > θ {
					return false
				}
			}
		}
	}
	return true
}

// spanWithin splits the range [lo, hi) into parts balanced tiles and
// returns tile t, mirroring core.GridSpan's boundaries.
func spanWithin(lo, hi, t, parts int) (int, int) {
	n := hi - lo
	return lo + t*n/parts, lo + (t+1)*n/parts
}

func storedBytesA(c *core.Cuboid, ilo, ihi, klo, khi int) int64 {
	var n int64
	for i := ilo; i < ihi; i++ {
		for k := klo; k < khi; k++ {
			if b := c.A.Block(i, k); b != nil {
				n += b.SizeBytes()
			}
		}
	}
	return n
}

func storedBytesB(c *core.Cuboid, klo, khi, jlo, jhi int) int64 {
	var n int64
	for k := klo; k < khi; k++ {
		for j := jlo; j < jhi; j++ {
			if b := c.B.Block(k, j); b != nil {
				n += b.SizeBytes()
			}
		}
	}
	return n
}

func denseBytes(c *core.Cuboid, ilo, ihi, jlo, jhi int) int64 {
	var n int64
	for i := ilo; i < ihi; i++ {
		r, _ := c.A.BlockDims(i, 0)
		for j := jlo; j < jhi; j++ {
			_, cc := c.B.BlockDims(0, j)
			n += int64(r) * int64(cc) * 8
		}
	}
	return n
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// MultiplyPair multiplies one block pair through the device: the degraded
// per-voxel path available to RMM, which cannot batch consecutive voxels
// because its hash partitioning scatters them (§6.2). Every block pair pays
// its own H2D copies and D2H of the result, so there is no C residency and
// utilization is copy-bound.
func (m *Multiplier) MultiplyPair(a, b matrix.Block) (*matrix.Dense, error) {
	tl := newTaskTimeline(m.Device.Spec(), 1)
	tl.device = m.Device
	am, _ := a.Dims()
	_, bn := b.Dims()
	cBytes := int64(am) * int64(bn) * 8
	if err := tl.alloc(a.SizeBytes() + b.SizeBytes() + cBytes); err != nil {
		return nil, err
	}
	end := tl.h2d(0, a.SizeBytes(), "A")
	end = tl.h2d(end, b.SizeBytes(), "B")
	end = tl.kernel(0, end, core.PairFlops(a, b), "K")
	tl.d2h(end, cBytes, "C")
	tl.free(a.SizeBytes() + b.SizeBytes() + cBytes)
	tl.iterations++
	m.Device.merge(tl)
	return matrix.MulAdd(nil, a, b), nil
}
