package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func timeNow() time.Time          { return time.Now() }
func timeSince(t time.Time) int64 { return int64(time.Since(t)) }

func TestParamsTasksAndString(t *testing.T) {
	p := Params{P: 2, Q: 3, R: 4}
	if p.Tasks() != 24 {
		t.Fatalf("Tasks = %d", p.Tasks())
	}
	if p.String() != "(2,3,4)" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestMemBytesEquation3(t *testing.T) {
	// |A|/(P·R) + |B|/(R·Q) + |C|/(P·Q)
	s := Shape{I: 4, J: 6, K: 8, ABytes: 4800, BBytes: 2400, CBytes: 1200}
	p := Params{P: 2, Q: 3, R: 4}
	want := 4800.0/8 + 2400.0/12 + 1200.0/6
	if got := s.MemBytes(p); got != want {
		t.Fatalf("MemBytes = %g, want %g", got, want)
	}
}

func TestCostBytesEquation4(t *testing.T) {
	s := Shape{I: 4, J: 6, K: 8, ABytes: 100, BBytes: 200, CBytes: 300}
	p := Params{P: 2, Q: 3, R: 4}
	want := 3.0*100 + 2.0*200 + 4.0*300
	if got := s.CostBytes(p); got != want {
		t.Fatalf("CostBytes = %g, want %g", got, want)
	}
	// R=1: no aggregation term (Table 2's "-" for BMM).
	p1 := Params{P: 2, Q: 3, R: 1}
	if got := s.CostBytes(p1); got != 3.0*100+2.0*200 {
		t.Fatalf("CostBytes R=1 = %g, want %g", got, 3.0*100+2.0*200)
	}
}

// TestGeneralizationParams checks §3.1's claim: the classical methods are
// the corner parameterizations of CuboidMM.
func TestGeneralizationParams(t *testing.T) {
	s := Shape{I: 4, J: 6, K: 8, ABytes: 10, BBytes: 20, CBytes: 30}
	if s.BMMParams() != (Params{P: 4, Q: 1, R: 1}) {
		t.Fatal("BMM params wrong")
	}
	if s.CPMMParams() != (Params{P: 1, Q: 1, R: 8}) {
		t.Fatal("CPMM params wrong")
	}
	if s.RMMParams() != (Params{P: 4, Q: 6, R: 8}) {
		t.Fatal("RMM params wrong")
	}
	// Table 2 rows fall out of Eq.(4):
	// BMM: |A| + T·|B| with T = I.
	if got := s.CostBytes(s.BMMParams()); got != 10+4*20 {
		t.Fatalf("BMM cost = %g", got)
	}
	// CPMM: |A| + |B| + T·|C| with T = K.
	if got := s.CostBytes(s.CPMMParams()); got != 10+20+8*30 {
		t.Fatalf("CPMM cost = %g", got)
	}
	// RMM: J·|A| + I·|B| + K·|C|.
	if got := s.CostBytes(s.RMMParams()); got != 6*10+4*20+8*30 {
		t.Fatalf("RMM cost = %g", got)
	}
}

// TestOptimizeMatchesBruteForce is the optimizer's core property: the fast
// O(I·K) search returns exactly the brute-force argmin of Eq.(2).
func TestOptimizeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := Shape{
			I:      1 + rng.Intn(12),
			J:      1 + rng.Intn(12),
			K:      1 + rng.Intn(12),
			ABytes: int64(1 + rng.Intn(100000)),
			BBytes: int64(1 + rng.Intn(100000)),
			CBytes: int64(1 + rng.Intn(100000)),
		}
		θ := int64(1 + rng.Intn(200000))
		slots := 1 + rng.Intn(30)
		got, gerr := Optimize(s, θ, slots)
		want, werr := searchBrute(s, θ, slots, s.CostBytes)
		if (gerr == nil) != (werr == nil) {
			return false
		}
		if gerr != nil {
			return errors.Is(gerr, ErrInfeasible) && errors.Is(werr, ErrInfeasible)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeRespectsMemoryBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := Shape{
			I: 1 + rng.Intn(20), J: 1 + rng.Intn(20), K: 1 + rng.Intn(20),
			ABytes: int64(1 + rng.Intn(1<<20)),
			BBytes: int64(1 + rng.Intn(1<<20)),
			CBytes: int64(1 + rng.Intn(1<<20)),
		}
		θ := int64(1 + rng.Intn(1<<21))
		slots := 1 + rng.Intn(16)
		p, err := Optimize(s, θ, slots)
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		if s.I*s.J*s.K < slots {
			// Exceptional case returns (I,J,K) without the memory check.
			return p == (Params{P: s.I, Q: s.J, R: s.K})
		}
		return s.MemBytes(p) <= float64(θ) && p.Tasks() >= slots
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeExceptionalSmallGrid(t *testing.T) {
	// I·J·K < M·Tc → use (I,J,K) "for exploiting the parallelism as much as
	// possible, which actually works like the RMM method" (§3.2).
	s := Shape{I: 2, J: 2, K: 2, ABytes: 100, BBytes: 100, CBytes: 100}
	p, err := Optimize(s, 1<<30, 90)
	if err != nil {
		t.Fatal(err)
	}
	if p != (Params{P: 2, Q: 2, R: 2}) {
		t.Fatalf("exceptional case returned %v, want (2,2,2)", p)
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	// Even one voxel exceeds the budget.
	s := Shape{I: 2, J: 2, K: 2, ABytes: 4000, BBytes: 4000, CBytes: 4000}
	_, err := Optimize(s, 10, 8)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestOptimizeInvalidInputs(t *testing.T) {
	if _, err := Optimize(Shape{}, 100, 1); err == nil {
		t.Fatal("zero shape accepted")
	}
	if _, err := Optimize(Shape{I: 1, J: 1, K: 1}, 0, 1); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := searchBrute(Shape{I: 1, J: 1, K: 1}, 0, 1, Shape{}.CostBytes); err == nil {
		t.Fatal("zero budget accepted by the brute reference")
	}
	if _, err := Optimize(Shape{I: 1, J: 1, K: 1, ABytes: -1}, 10, 1); err == nil {
		t.Fatal("negative payload accepted")
	}
}

// TestOptimizeTightBudgetRaisesPartitions reproduces the paper's elasticity:
// shrinking θt forces finer partitionings with higher communication cost.
func TestOptimizeTightBudgetRaisesPartitions(t *testing.T) {
	s := Shape{I: 10, J: 10, K: 10, ABytes: 1 << 20, BBytes: 1 << 20, CBytes: 1 << 20}
	loose, err := Optimize(s, 1<<22, 8)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Optimize(s, 1<<18, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Tasks() <= loose.Tasks() {
		t.Fatalf("tight budget should need more cuboids: loose %v, tight %v", loose, tight)
	}
	if s.CostBytes(tight) < s.CostBytes(loose) {
		t.Fatal("tighter memory cannot reduce communication cost")
	}
}

// TestOptimizePaperShapes runs the optimizer on Table 4's three dataset
// families (scaled sizes, paper block counts) and checks the structural
// patterns the paper reports: a common large dimension yields (1,1,R) —
// CPMM-like with fewer aggregations — and two large dimensions yield
// (P,Q,1) — no aggregation at all.
func TestOptimizePaperShapes(t *testing.T) {
	const slots = 90
	// 10K×N×10K: I=J=10 blocks, K large; |A| = |B| small relative to k.
	s := Shape{I: 10, J: 10, K: 1000, ABytes: 10 * 1000 * 64, BBytes: 10 * 1000 * 64, CBytes: 10 * 10 * 64}
	p, err := Optimize(s, 40*1000*64, slots)
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 1 || p.Q != 1 {
		t.Fatalf("common-large-dimension family should pick (1,1,R): got %v", p)
	}
	if p.R >= s.K {
		t.Fatalf("R should be far below K: got %v", p)
	}

	// N×1K×N: K=1 block, I=J large; |C| dominates.
	s2 := Shape{I: 500, J: 500, K: 1, ABytes: 500 * 64, BBytes: 500 * 64, CBytes: 500 * 500 * 64}
	p2, err := Optimize(s2, 3000*64, slots)
	if err != nil {
		t.Fatal(err)
	}
	if p2.R != 1 {
		t.Fatalf("two-large-dimensions family must have R=1: got %v", p2)
	}
	if p2.P == 1 || p2.Q == 1 {
		t.Fatalf("both P and Q should exceed 1 to shrink |C| per task: got %v", p2)
	}
}

func TestOptimizeSubPrefersKAxis(t *testing.T) {
	// §4.2: when C^m fits in θg, the optimizer produces (1,1,R2).
	c := CuboidShape{IB: 4, JB: 4, KB: 16, ABytes: 1 << 20, BBytes: 1 << 20, CBytes: 1 << 16}
	sub, err := OptimizeSub(c, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	if sub.P2 != 1 || sub.Q2 != 1 {
		t.Fatalf("want (1,1,R2), got %v", sub)
	}
	if got := c.MemBytes(sub); got > float64(1<<18) {
		t.Fatalf("chosen params exceed θg: %g", got)
	}
}

func TestOptimizeSubGrowsPQWhenCLarge(t *testing.T) {
	// When C^m alone exceeds θg, P2 and Q2 must grow (§4.2).
	c := CuboidShape{IB: 8, JB: 8, KB: 4, ABytes: 1 << 16, BBytes: 1 << 16, CBytes: 1 << 22}
	sub, err := OptimizeSub(c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sub.P2*sub.Q2 < 4 {
		t.Fatalf("C-bound cuboid needs P2·Q2 ≥ 4: got %v", sub)
	}
	if got := c.MemBytes(sub); got > float64(1<<20) {
		t.Fatalf("chosen params exceed θg: %g", got)
	}
}

func TestOptimizeSubCostIndependentOfR2(t *testing.T) {
	c := CuboidShape{IB: 2, JB: 2, KB: 8, ABytes: 100, BBytes: 100, CBytes: 100}
	base := c.CostBytes(SubParams{P2: 1, Q2: 1, R2: 1})
	for r2 := 2; r2 <= 8; r2++ {
		if got := c.CostBytes(SubParams{P2: 1, Q2: 1, R2: r2}); got != base {
			t.Fatalf("Eq.(6) must not depend on R2: R2=%d gives %g vs %g", r2, got, base)
		}
	}
}

func TestOptimizeSubInfeasible(t *testing.T) {
	c := CuboidShape{IB: 1, JB: 1, KB: 1, ABytes: 100, BBytes: 100, CBytes: 100}
	if _, err := OptimizeSub(c, 10); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestOptimizeSubBruteForceAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := CuboidShape{
			IB: 1 + rng.Intn(8), JB: 1 + rng.Intn(8), KB: 1 + rng.Intn(8),
			ABytes: int64(1 + rng.Intn(10000)),
			BBytes: int64(1 + rng.Intn(10000)),
			CBytes: int64(1 + rng.Intn(10000)),
		}
		θ := int64(1 + rng.Intn(20000))
		got, gerr := OptimizeSub(c, θ)
		want, werr := bruteSub(c, θ)
		if (gerr == nil) != (werr == nil) {
			return false
		}
		if gerr != nil {
			return true
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func bruteSub(c CuboidShape, θ int64) (SubParams, error) {
	best := SubParams{}
	bestCost := 0.0
	found := false
	for p2 := 1; p2 <= c.IB; p2++ {
		for q2 := 1; q2 <= c.JB; q2++ {
			for r2 := 1; r2 <= c.KB; r2++ {
				cand := SubParams{P2: p2, Q2: q2, R2: r2}
				if c.MemBytes(cand) > float64(θ) {
					continue
				}
				cost := c.CostBytes(cand)
				if !found || cost < bestCost || (cost == bestCost && lessSub(cand, best)) {
					best, bestCost, found = cand, cost, true
				}
			}
		}
	}
	if !found {
		return SubParams{}, ErrInfeasible
	}
	return best, nil
}

// TestOptimizerDominatesCornerMethods: for any shape where a classical
// corner (BMM/CPMM/RMM) is feasible under θt and the slot prune, the
// optimizer's choice costs no more — CuboidMM's headline guarantee.
func TestOptimizerDominatesCornerMethods(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := Shape{
			I: 1 + rng.Intn(16), J: 1 + rng.Intn(16), K: 1 + rng.Intn(16),
			ABytes: int64(1 + rng.Intn(1<<20)),
			BBytes: int64(1 + rng.Intn(1<<20)),
			CBytes: int64(1 + rng.Intn(1<<20)),
		}
		θ := int64(1 + rng.Intn(1<<21))
		slots := 1 + rng.Intn(12)
		opt, err := Optimize(s, θ, slots)
		if err != nil {
			return true // nothing feasible at all
		}
		if s.I*s.J*s.K < slots {
			return true // exceptional case bypasses the search
		}
		best := s.CostBytes(opt)
		for _, corner := range []Params{s.BMMParams(), s.CPMMParams(), s.RMMParams()} {
			if corner.Tasks() < slots || s.MemBytes(corner) > float64(θ) {
				continue // corner not admissible under the same constraints
			}
			if s.CostBytes(corner) < best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeLargeGridPerformance guards the paper's claim that the search
// is cheap even at the biggest evaluated grid (§3.2 reports 0.3 s at
// 100×100×100 blocks; our O(I·K) variant is far faster).
func TestOptimizeLargeGridPerformance(t *testing.T) {
	s := Shape{
		I: 100, J: 100, K: 100,
		ABytes: 100_000 * 100_000 * 8,
		BBytes: 100_000 * 100_000 * 8,
		CBytes: 100_000 * 100_000 * 8,
	}
	start := timeNow()
	if _, err := Optimize(s, 6e9, 90); err != nil {
		t.Fatal(err)
	}
	if elapsed := timeSince(start); elapsed > 300*1e6 {
		t.Fatalf("optimizer took %dns at the paper's largest grid", elapsed)
	}
}
