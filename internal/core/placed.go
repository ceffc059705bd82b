package core

import "fmt"

// Placement-aware pricing: Eq.(4) for a push job on the real plane, where
// what crosses the driver depends on which worker runs which slabs. Q·|A| +
// P·|B| counts every cuboid's slices as shipped; a worker's block cache
// sends a block it already received as a reference, so the driver's bytes
// are the distinct operand bytes each worker receives, and those are set by
// the placement.

// Placement is where a push job's (p,q) columns run on its n workers.
type Placement int

const (
	// PlaceHomes runs column g = p·Q+q on worker g mod n over its whole k
	// range and folds its R slabs there; the C blocks come back once.
	PlaceHomes Placement = iota
	// PlaceChain cuts the R slabs into h = min(R, n) contiguous groups
	// (ChainSlabs), one holder each: holder g receives only the operand
	// blocks of its slabs, for every column, folds them into the running sum
	// holder g−1 hands it and hands the sum on; the last holder returns C.
	PlaceChain
)

// String names the placement.
func (pl Placement) String() string {
	switch pl {
	case PlaceHomes:
		return "homes"
	case PlaceChain:
		return "chain"
	default:
		return fmt.Sprintf("placement(%d)", int(pl))
	}
}

// Faces are one push job's bytes cut by its (P,Q,R) plan: A[p][r] is the
// stored bytes of A's blocks in row band p and slab r, B[r][q] of B's in
// slab r and column band q, and C[p][q] the dense bytes of column (p,q)'s
// C blocks.
type Faces struct {
	A, B, C [][]int64
}

// PlacedBytes is Eq.(4) under one placement, by link.
type PlacedBytes struct {
	// Requests is the operand bytes the driver sends: over the workers, the
	// distinct operand bytes each receives.
	Requests int64
	// Replies is the C bytes the driver receives: each column's once.
	Replies int64
	// Peer is the running sums workers hand each other: (h−1)·|C| under
	// the chain, nothing under homes.
	Peer int64
}

// Driver is what crosses the driver's link: Requests + Replies.
func (b PlacedBytes) Driver() int64 { return b.Requests + b.Replies }

// ChainHolders is h, the holders of a chain over R slabs on n workers:
// min(R, n), and at least 1.
func ChainHolders(R, workers int) int { return max(min(R, workers), 1) }

// ChainSlabs is holder g's slabs [lo, hi) of R cut among h holders: the
// contiguous groups GridSpan makes, so holder order is slab order.
func ChainSlabs(g, h, R int) (lo, hi int) { return GridSpan(g, R, h) }

// CostBytesPlaced prices a push job's bytes under one placement on
// workers workers (below 1 means 1), as an assignment of each (p,q,r) slab
// to a worker: requests are the distinct faces each worker receives,
// replies |C| per column, and peer |C| per holder change along a column's
// slabs. A column cut into several calls on one holder moves nothing more,
// so the call bound is no input. f must be cut by p.
func CostBytesPlaced(p Params, f Faces, workers int, place Placement) (b PlacedBytes) {
	n := max(workers, 1)
	h := 1
	if place == PlaceChain {
		h = ChainHolders(p.R, n)
	}
	// holder[r] is the group of slab r: its holder under the chain, and the
	// column's home (group 0) under homes.
	holder := make([]int, p.R)
	for g := 0; g < h; g++ {
		lo, hi := ChainSlabs(g, h, p.R)
		for r := lo; r < hi; r++ {
			holder[r] = g
		}
	}
	// Mark each (band, slab) face on every worker it reaches; a worker
	// receives a face once however many of its calls name it.
	aSeen := make([]bool, n*p.P*p.R)
	bSeen := make([]bool, n*p.R*p.Q)
	for pp := 0; pp < p.P; pp++ {
		for q := 0; q < p.Q; q++ {
			for r := 0; r < p.R; r++ {
				w := (pp*p.Q + q) % n
				if place == PlaceChain {
					w = holder[r]
				}
				if i := (w*p.P+pp)*p.R + r; !aSeen[i] {
					aSeen[i] = true
					b.Requests += f.A[pp][r]
				}
				if i := (w*p.R+r)*p.Q + q; !bSeen[i] {
					bSeen[i] = true
					b.Requests += f.B[r][q]
				}
				if r > 0 && holder[r] != holder[r-1] {
					b.Peer += f.C[pp][q]
				}
			}
			b.Replies += f.C[pp][q]
		}
	}
	return b
}

// ChoosePlacement picks a push job's placement on workers workers: the
// chain when R ≥ 2, there are at least two workers, and its driver bytes
// are strictly fewer than homes'. Ties keep homes, so a one-column plan —
// every operand block reaches one worker either way — stays where it was.
func ChoosePlacement(p Params, f Faces, workers int) Placement {
	if p.R < 2 || workers < 2 {
		return PlaceHomes
	}
	chain := CostBytesPlaced(p, f, workers, PlaceChain)
	if homes := CostBytesPlaced(p, f, workers, PlaceHomes); chain.Driver() < homes.Driver() {
		return PlaceChain
	}
	return PlaceHomes
}
