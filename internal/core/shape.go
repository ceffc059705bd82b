// Package core implements the paper's primary contribution: the
// 3-dimensional voxel model of distributed matrix multiplication (§2.2),
// (P,Q,R)-cuboid partitioning with its communication-cost optimizer (§3),
// the (P2,Q2,R2)-subcuboid optimizer for GPU memory (§4.2), and executors
// for CuboidMM and the baseline methods BMM, CPMM and RMM (Table 2).
package core

import (
	"errors"
	"fmt"
)

// Shape describes one multiplication C = A×B in the block model: A is I×K
// blocks, B is K×J blocks, C is I×J blocks. Sizes are payload bytes — stored
// bytes for the inputs (so sparse matrices weigh their compressed size) and
// the worst-case dense estimate for C, exactly as §3.2 prescribes.
type Shape struct {
	I, J, K int
	// ABytes and BBytes are the stored payload sizes of the inputs.
	ABytes, BBytes int64
	// CBytes is the dense worst-case estimate of the output payload.
	CBytes int64
}

// Validate reports a descriptive error for degenerate shapes.
func (s Shape) Validate() error {
	if s.I <= 0 || s.J <= 0 || s.K <= 0 {
		return fmt.Errorf("core: shape: block grid %dx%dx%d must be positive", s.I, s.J, s.K)
	}
	if s.ABytes < 0 || s.BBytes < 0 || s.CBytes < 0 {
		return fmt.Errorf("core: shape: negative payload size")
	}
	return nil
}

// Params is a (P,Q,R)-cuboid partitioning: the number of partitions on the
// i-, j- and k-axes. Special values reproduce the classical methods —
// (I,1,1) is BMM broadcasting B, (1,1,K) is CPMM, (I,J,K) is RMM.
type Params struct {
	P, Q, R int
}

// String renders the parameters as the paper writes them.
func (p Params) String() string { return fmt.Sprintf("(%d,%d,%d)", p.P, p.Q, p.R) }

// Tasks returns P·Q·R, the number of cuboids and hence tasks.
func (p Params) Tasks() int { return p.P * p.Q * p.R }

// MemBytes evaluates Eq.(3): the average per-task working set
// |A|/(P·R) + |B|/(R·Q) + |C|/(P·Q), in bytes.
func (s Shape) MemBytes(p Params) float64 {
	return float64(s.ABytes)/float64(p.P*p.R) +
		float64(s.BBytes)/float64(p.R*p.Q) +
		float64(s.CBytes)/float64(p.P*p.Q)
}

// CostBytes evaluates Eq.(4): the network communication cost
// Q·|A| + P·|B| + R·|C|, in bytes. The R·|C| term is charged only when R>1;
// with R=1 the local products are final blocks and no aggregation shuffle
// happens (Table 2 marks BMM's aggregation cost "-").
func (s Shape) CostBytes(p Params) float64 {
	cost := float64(p.Q)*float64(s.ABytes) + float64(p.P)*float64(s.BBytes)
	if p.R > 1 {
		cost += float64(p.R) * float64(s.CBytes)
	}
	return cost
}

// WireCost scales the two terms of Eq.(4) for the cost of moving a byte in
// each direction. Blocks travel at the bytes they are stored in, so the
// engine prices Eq.(4) unscaled (CostBytes, Optimize); the type stays as
// the last argument of OptimizeWire, which the repository benchmark calls
// with it.
type WireCost struct {
	// InputRatio scales the repartition terms Q·|A| + P·|B|
	// (driver→worker). Values in (0, 1]; non-positive means 1.
	InputRatio float64
	// AggRatio scales the aggregation term R·|C| (worker→driver partials).
	// Non-positive means 1.
	AggRatio float64
}

// DefaultWireCost is Eq.(4) exactly as the paper writes it.
func DefaultWireCost() WireCost { return WireCost{InputRatio: 1, AggRatio: 1} }

func (w WireCost) normalized() WireCost {
	if w.InputRatio <= 0 {
		w.InputRatio = 1
	}
	if w.AggRatio <= 0 {
		w.AggRatio = 1
	}
	return w
}

// CostBytesWire evaluates Eq.(4) under a wire-cost scaling:
// InputRatio·(Q·|A| + P·|B|) + AggRatio·R·|C|, the R·|C| term again charged
// only when R>1. With DefaultWireCost it equals CostBytes.
func (s Shape) CostBytesWire(p Params, w WireCost) float64 {
	w = w.normalized()
	cost := w.InputRatio * (float64(p.Q)*float64(s.ABytes) + float64(p.P)*float64(s.BBytes))
	if p.R > 1 {
		cost += w.AggRatio * float64(p.R) * float64(s.CBytes)
	}
	return cost
}

// BMMParams returns the parameters that make CuboidMM behave like BMM
// broadcasting B: (I,1,1).
func (s Shape) BMMParams() Params { return Params{P: s.I, Q: 1, R: 1} }

// CPMMParams returns the CPMM-equivalent parameters (1,1,K).
func (s Shape) CPMMParams() Params { return Params{P: 1, Q: 1, R: s.K} }

// RMMParams returns the RMM-equivalent parameters (I,J,K).
func (s Shape) RMMParams() Params { return Params{P: s.I, Q: s.J, R: s.K} }

// ErrInfeasible reports that no (P,Q,R) satisfies the memory budget — even a
// single voxel exceeds θt, so the multiplication cannot run at all.
var ErrInfeasible = errors.New("core: no cuboid partitioning fits the per-task memory budget")

// Optimize solves Eq.(2): the feasible (P,Q,R) minimizing CostBytes subject
// to MemBytes ≤ θt, pruning partitionings that cannot occupy every task slot
// (P·Q·R ≥ slots, §3.2), with the paper's exceptional case: when the whole
// voxel grid has fewer cells than slots, return (I,J,K) to maximize
// parallelism (which behaves like RMM).
func Optimize(s Shape, taskMemBytes int64, slots int) (Params, error) {
	return OptimizeWire(s, taskMemBytes, slots, DefaultWireCost())
}

// OptimizeWire is Optimize with the cost evaluated as CostBytesWire: the
// feasible (P,Q,R) minimizing the wire-priced Eq.(4). A cheaper InputRatio
// can genuinely flip the argmin: it discounts the repartition terms but not
// R·|C|, so plans that buy a smaller aggregation with more replication win
// ties they previously lost. The engine calls Optimize; OptimizeWire stays
// for the repository benchmark, which calls it with DefaultWireCost's
// ratios.
func OptimizeWire(s Shape, taskMemBytes int64, slots int, w WireCost) (Params, error) {
	return search(s, taskMemBytes, slots, func(p Params) float64 { return s.CostBytesWire(p, w) })
}

// search solves Eq.(2) under one cost function: exhaustive over (P,R), and
// for each pair only the smallest feasible Q — an O(I·K) procedure. It
// returns exactly the argmin of the full O(I·J·K) scan provided cost is
// nondecreasing in Q for fixed (P,R), which every Eq.(4) variant is: Q only
// ever multiplies |A|, by a positive price. The tests hold each caller to
// searchBrute.
func search(s Shape, taskMemBytes int64, slots int, cost func(Params) float64) (Params, error) {
	return argmin(s, taskMemBytes, slots, cost, func(θ float64, slots int, try func(Params)) {
		for p := 1; p <= s.I; p++ {
			for r := 1; r <= s.K; r++ {
				if q, ok := minFeasibleQ(s, p, r, θ, slots); ok {
					try(Params{P: p, Q: q, R: r})
				}
			}
		}
	})
}

// searchBrute is the direct O(I·J·K) scan of Eq.(2), the reference search is
// held to.
func searchBrute(s Shape, taskMemBytes int64, slots int, cost func(Params) float64) (Params, error) {
	return argmin(s, taskMemBytes, slots, cost, func(θ float64, slots int, try func(Params)) {
		for p := 1; p <= s.I; p++ {
			for q := 1; q <= s.J; q++ {
				for r := 1; r <= s.K; r++ {
					if cand := (Params{P: p, Q: q, R: r}); cand.Tasks() >= slots && s.MemBytes(cand) <= θ {
						try(cand)
					}
				}
			}
		}
	})
}

// argmin is the frame of Eq.(2) both scans share: input validation, the
// exceptional case of §3.2 (fewer voxels than slots), and the cheapest of
// the feasible candidates each offers to try, ties broken by less.
func argmin(s Shape, taskMemBytes int64, slots int, cost func(Params) float64, each func(θ float64, slots int, try func(Params))) (Params, error) {
	if err := s.Validate(); err != nil {
		return Params{}, err
	}
	if taskMemBytes <= 0 {
		return Params{}, fmt.Errorf("core: Optimize: task memory budget must be positive, got %d", taskMemBytes)
	}
	if slots < 1 {
		slots = 1
	}
	if s.I*s.J*s.K < slots {
		return Params{P: s.I, Q: s.J, R: s.K}, nil
	}
	best := Params{}
	bestCost := 0.0
	found := false
	each(float64(taskMemBytes), slots, func(cand Params) {
		if c := cost(cand); !found || c < bestCost || (c == bestCost && less(cand, best)) {
			best, bestCost, found = cand, c, true
		}
	})
	if !found {
		return Params{}, fmt.Errorf("%w: grid %dx%dx%d, θt=%d", ErrInfeasible, s.I, s.J, s.K, taskMemBytes)
	}
	return best, nil
}

// minFeasibleQ returns the smallest Q in [1, J] satisfying both the memory
// budget and the parallelism prune for fixed (P, R).
func minFeasibleQ(s Shape, p, r int, θ float64, slots int) (int, bool) {
	// Memory: |A|/(P·R) + (|B|/R + |C|/P)/Q ≤ θ
	head := float64(s.ABytes) / float64(p*r)
	rem := θ - head
	if rem < 0 {
		return 0, false
	}
	q := 1
	num := float64(s.BBytes)/float64(r) + float64(s.CBytes)/float64(p)
	if num > 0 && rem == 0 {
		return 0, false
	}
	if num > 0 {
		q = int(ceilDivFloat(num, rem))
		if q < 1 {
			q = 1
		}
	}
	// Parallelism prune: P·Q·R ≥ slots.
	if pq := ceilDivInt(slots, p*r); pq > q {
		q = pq
	}
	if q > s.J {
		return 0, false
	}
	// Guard against float rounding at the boundary.
	for q <= s.J && s.MemBytes(Params{P: p, Q: q, R: r}) > θ {
		q++
	}
	if q > s.J {
		return 0, false
	}
	return q, true
}

func ceilDivInt(a, b int) int { return (a + b - 1) / b }

func ceilDivFloat(a, b float64) float64 {
	q := a / b
	iq := float64(int64(q))
	if q > iq {
		return iq + 1
	}
	return iq
}

// less orders parameter triples for deterministic tie-breaking: fewer tasks
// first (cheaper scheduling), then lexicographic (P,Q,R).
func less(a, b Params) bool {
	if at, bt := a.Tasks(), b.Tasks(); at != bt {
		return at < bt
	}
	if a.P != b.P {
		return a.P < b.P
	}
	if a.Q != b.Q {
		return a.Q < b.Q
	}
	return a.R < b.R
}
