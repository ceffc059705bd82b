package core

import (
	"math/rand"
	"testing"
)

// bruteWire is the direct O(I·J·K) scan of Eq.(2) with the wire-priced
// cost — the reference OptimizeWire's O(I·K) search must match exactly.
func bruteWire(s Shape, taskMemBytes int64, slots int, w WireCost) (Params, bool) {
	if slots < 1 {
		slots = 1
	}
	if s.I*s.J*s.K < slots {
		return Params{P: s.I, Q: s.J, R: s.K}, true
	}
	θ := float64(taskMemBytes)
	best := Params{}
	bestCost := 0.0
	found := false
	for p := 1; p <= s.I; p++ {
		for q := 1; q <= s.J; q++ {
			for r := 1; r <= s.K; r++ {
				cand := Params{P: p, Q: q, R: r}
				if cand.Tasks() < slots || s.MemBytes(cand) > θ {
					continue
				}
				cost := s.CostBytesWire(cand, w)
				if !found || cost < bestCost || (cost == bestCost && less(cand, best)) {
					best, bestCost, found = cand, cost, true
				}
			}
		}
	}
	return best, found
}

// TestCostBytesWireDefaultIdentity: under the default prices the wire cost
// IS Eq.(4), bit for bit, and OptimizeWire is Optimize.
func TestCostBytesWireDefaultIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		s := Shape{
			I: 1 + rng.Intn(10), J: 1 + rng.Intn(10), K: 1 + rng.Intn(10),
			ABytes: rng.Int63n(1 << 28), BBytes: rng.Int63n(1 << 28), CBytes: rng.Int63n(1 << 28),
		}
		p := Params{P: 1 + rng.Intn(s.I), Q: 1 + rng.Intn(s.J), R: 1 + rng.Intn(s.K)}
		if got, want := s.CostBytesWire(p, DefaultWireCost()), s.CostBytes(p); got != want {
			t.Fatalf("shape %+v params %v: CostBytesWire %v != CostBytes %v", s, p, got, want)
		}
		// The zero value must normalize to the default too.
		if got, want := s.CostBytesWire(p, WireCost{}), s.CostBytes(p); got != want {
			t.Fatalf("zero WireCost not normalized: %v != %v", got, want)
		}
	}
}

// TestOptimizeWireMatchesBrute: for random shapes and ratios, the fast
// search must return exactly the brute-force argmin — the monotonicity in Q
// that minFeasibleQ exploits survives positive scaling.
func TestOptimizeWireMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ratios := []WireCost{
		DefaultWireCost(),
		{InputRatio: 0.5, AggRatio: 1},
		{InputRatio: 0.85, AggRatio: 1},
		{InputRatio: 0.25, AggRatio: 0.75},
	}
	for trial := 0; trial < 150; trial++ {
		s := Shape{
			I: 1 + rng.Intn(9), J: 1 + rng.Intn(9), K: 1 + rng.Intn(9),
			ABytes: 1 + rng.Int63n(1<<26), BBytes: 1 + rng.Int63n(1<<26), CBytes: 1 + rng.Int63n(1<<26),
		}
		θ := 1 + rng.Int63n(1<<25)
		slots := 1 + rng.Intn(6)
		w := ratios[trial%len(ratios)]
		want, feasible := bruteWire(s, θ, slots, w)
		got, err := OptimizeWire(s, θ, slots, w)
		if !feasible {
			if err == nil {
				t.Fatalf("shape %+v θ=%d: brute infeasible but OptimizeWire returned %v", s, θ, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("shape %+v θ=%d: %v", s, θ, err)
		}
		if got != want {
			t.Fatalf("shape %+v θ=%d slots=%d w=%+v: OptimizeWire %v != brute %v", s, θ, slots, w, got, want)
		}
	}
}

// TestOptimizeWireInputRatioFlipsChoice: a cheaper input ratio genuinely
// changes the chosen partitioning. With 4 MiB operands and a 2 MiB budget
// the paper's pricing picks (2,2,4) — aggregating over R=4 — while halving
// the repartition price makes the optimizer buy more input replication to
// drop the aggregation shuffle entirely: (4,5,1). Both answers are verified
// against the brute-force scan under their own prices.
func TestOptimizeWireInputRatioFlipsChoice(t *testing.T) {
	s := Shape{I: 8, J: 8, K: 8, ABytes: 4 << 20, BBytes: 4 << 20, CBytes: 4 << 20}
	const θ = 2 << 20

	def, err := OptimizeWire(s, θ, 1, DefaultWireCost())
	if err != nil {
		t.Fatal(err)
	}
	half := WireCost{InputRatio: 0.5, AggRatio: 1}
	enc, err := OptimizeWire(s, θ, 1, half)
	if err != nil {
		t.Fatal(err)
	}
	if def == enc {
		t.Fatalf("input ratio did not change the argmin: both %v", def)
	}
	if def != (Params{P: 2, Q: 2, R: 4}) {
		t.Fatalf("default argmin %v, want (2,2,4)", def)
	}
	if enc != (Params{P: 4, Q: 5, R: 1}) {
		t.Fatalf("half-priced argmin %v, want (4,5,1)", enc)
	}
	if enc.R != 1 {
		t.Fatalf("cheap inputs should buy away the aggregation shuffle, got R=%d", enc.R)
	}
	for _, tc := range []struct {
		w    WireCost
		want Params
	}{{DefaultWireCost(), def}, {half, enc}} {
		brute, ok := bruteWire(s, θ, 1, tc.w)
		if !ok || brute != tc.want {
			t.Fatalf("brute reference under %+v: %v, want %v", tc.w, brute, tc.want)
		}
	}
}
