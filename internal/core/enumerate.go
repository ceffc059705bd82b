package core

import "fmt"

// GridSpan returns the block-index range [lo, hi) of tile t along an axis of
// extent n split into parts contiguous tiles. Tiles are floor-balanced —
// sizes differ by at most one block and, for 1 ≤ parts ≤ n, none is empty —
// so every partition count materializes exactly and the Table 2 formulas
// hold for every (P,Q,R).
func GridSpan(t, n, parts int) (lo, hi int) {
	return t * n / parts, (t + 1) * n / parts
}

// Check reports parameters outside the feasible box of an I×J×K block grid:
// every axis needs at least one partition and at most one per block.
func (p Params) Check(I, J, K int) error {
	if p.P < 1 || p.P > I || p.Q < 1 || p.Q > J || p.R < 1 || p.R > K {
		return fmt.Errorf("core: params %v outside grid %dx%dx%d", p, I, J, K)
	}
	return nil
}

// ForEachCuboid enumerates the (P,Q,R)-cuboid partitioning of an I×J×K block
// grid (§3.1): fn is called once per cuboid with its index and voxel box, in
// (p,q,r) order — the plan order every executor folds partial products in,
// so r (and with it k) ascends within each output block. params must pass
// Check; the boxes are then non-empty, disjoint, and cover the grid.
func ForEachCuboid(params Params, I, J, K int, fn func(p, q, r int, box Box)) {
	for p := 0; p < params.P; p++ {
		ilo, ihi := GridSpan(p, I, params.P)
		for q := 0; q < params.Q; q++ {
			jlo, jhi := GridSpan(q, J, params.Q)
			for r := 0; r < params.R; r++ {
				klo, khi := GridSpan(r, K, params.R)
				fn(p, q, r, Box{ILo: ilo, IHi: ihi, JLo: jlo, JHi: jhi, KLo: klo, KHi: khi})
			}
		}
	}
}
