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
	// range and folds its R slabs there; the C blocks come back once. A
	// column whose operands are over the call bound goes out as its R
	// cuboids instead, cuboid r on worker (g+r) mod n, and its R partials
	// come back.
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
	// Replies is the C bytes the driver receives: each column's once, R
	// times for a homes column over the call bound.
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
// workers workers (below 1 means 1). callBytes bounds the operand bytes of
// one call: a homes column over it goes out as its R cuboids, and a chain
// with a link over it cannot run — ok is false, and the chain is not a
// candidate. f must be cut by p.
func CostBytesPlaced(p Params, f Faces, workers int, place Placement, callBytes int64) (b PlacedBytes, ok bool) {
	n := max(workers, 1)
	colBytes := func(pp, q, lo, hi int) int64 {
		var in int64
		for r := lo; r < hi; r++ {
			in += f.A[pp][r] + f.B[r][q]
		}
		return in
	}
	if place == PlaceChain {
		h := ChainHolders(p.R, n)
		for pp := 0; pp < p.P; pp++ {
			for q := 0; q < p.Q; q++ {
				for g := 0; g < h; g++ {
					if lo, hi := ChainSlabs(g, h, p.R); colBytes(pp, q, lo, hi) > callBytes {
						return PlacedBytes{}, false
					}
				}
				b.Replies += f.C[pp][q]
			}
		}
		// Every operand block goes to exactly one holder, once.
		for pp := 0; pp < p.P; pp++ {
			for r := 0; r < p.R; r++ {
				b.Requests += f.A[pp][r]
			}
		}
		for r := 0; r < p.R; r++ {
			for q := 0; q < p.Q; q++ {
				b.Requests += f.B[r][q]
			}
		}
		b.Peer = int64(h-1) * b.Replies
		return b, true
	}
	// Homes: mark each (band, slab) face on every worker it reaches; a
	// worker receives a face once however many of its calls name it.
	aSeen := make([]bool, n*p.P*p.R)
	bSeen := make([]bool, n*p.R*p.Q)
	send := func(w, pp, q, r int) {
		if i := (w*p.P+pp)*p.R + r; !aSeen[i] {
			aSeen[i] = true
			b.Requests += f.A[pp][r]
		}
		if i := (w*p.R+r)*p.Q + q; !bSeen[i] {
			bSeen[i] = true
			b.Requests += f.B[r][q]
		}
	}
	for pp := 0; pp < p.P; pp++ {
		for q := 0; q < p.Q; q++ {
			g := pp*p.Q + q
			split := p.R > 1 && colBytes(pp, q, 0, p.R) > callBytes
			for r := 0; r < p.R; r++ {
				w := g % n
				if split {
					w = (g + r) % n
				}
				send(w, pp, q, r)
			}
			if split {
				b.Replies += int64(p.R) * f.C[pp][q]
			} else {
				b.Replies += f.C[pp][q]
			}
		}
	}
	return b, true
}

// ChoosePlacement picks a push job's placement on workers workers: the
// chain when R ≥ 2, there are at least two workers, every link fits
// callBytes, and its driver bytes are strictly fewer than homes'. Ties keep
// homes, so a one-column plan — every operand block reaches one worker
// either way — stays where it was.
func ChoosePlacement(p Params, f Faces, workers int, callBytes int64) Placement {
	if p.R < 2 || workers < 2 {
		return PlaceHomes
	}
	chain, ok := CostBytesPlaced(p, f, workers, PlaceChain, callBytes)
	if !ok {
		return PlaceHomes
	}
	if homes, _ := CostBytesPlaced(p, f, workers, PlaceHomes, callBytes); chain.Driver() < homes.Driver() {
		return PlaceChain
	}
	return PlaceHomes
}
