package core

import (
	"math/rand"
	"testing"
)

// TestCostBytesPullOneWorkerIdentity: with one worker and a cold seed, the
// pull cost IS Eq.(4) — the seed plus the full replica traffic over a single
// link is exactly Q·|A| + P·|B| (+ R·|C|), bit for bit. That identity is the
// sanity anchor for the fan-out division: pull never moves fewer total
// bytes, it only spreads them.
func TestCostBytesPullOneWorkerIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pc := PullCost{Workers: 1}
	for trial := 0; trial < 200; trial++ {
		s := Shape{
			I: 1 + rng.Intn(10), J: 1 + rng.Intn(10), K: 1 + rng.Intn(10),
			ABytes: rng.Int63n(1 << 20), BBytes: rng.Int63n(1 << 20), CBytes: rng.Int63n(1 << 20),
		}
		p := Params{P: 1 + rng.Intn(s.I), Q: 1 + rng.Intn(s.J), R: 1 + rng.Intn(s.K)}
		if got, want := s.CostBytesPull(p, DefaultWireCost(), pc), s.CostBytes(p); got != want {
			t.Fatalf("shape %+v params %v: CostBytesPull(W=1) %v != CostBytes %v", s, p, got, want)
		}
		// The zero value must normalize to one worker too.
		if got, want := s.CostBytesPull(p, WireCost{}, PullCost{}), s.CostBytes(p); got != want {
			t.Fatalf("zero PullCost not normalized: %v != %v", got, want)
		}
	}
}

// TestOptimizePullMatchesBrute: for random shapes, prices and fan-outs, the
// fast O(I·K) search must return exactly the brute-force argmin — the
// pull cost stays monotone in Q, so minFeasibleQ's argument carries over.
func TestOptimizePullMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ratios := []WireCost{
		DefaultWireCost(),
		{InputRatio: 0.5, AggRatio: 1},
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
		pc := PullCost{Workers: 1 + rng.Intn(8), SeedResident: trial%2 == 0}
		want, werr := searchBrute(s, θ, slots, func(p Params) float64 { return s.CostBytesPull(p, w, pc) })
		got, err := OptimizePull(s, θ, slots, w, pc)
		if werr != nil {
			if err == nil {
				t.Fatalf("shape %+v θ=%d: brute infeasible but OptimizePull returned %v", s, θ, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("shape %+v θ=%d: %v", s, θ, err)
		}
		if got != want {
			t.Fatalf("shape %+v θ=%d slots=%d w=%+v pc=%+v: OptimizePull %v != brute %v", s, θ, slots, w, pc, got, want)
		}
	}
}

// TestOptimizeTransferSelectsPullIffCheaper holds the Auto contract from
// the acceptance criteria: across random shapes and fan-outs, the mode
// OptimizeTransfer picks is pull exactly when the pull-mode Eq.(4) term of
// its own argmin is strictly cheaper than the push-mode argmin's — both
// argmins verified against their brute references.
func TestOptimizeTransferSelectsPullIffCheaper(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sawPull, sawPush := false, false
	for trial := 0; trial < 200; trial++ {
		s := Shape{
			I: 1 + rng.Intn(8), J: 1 + rng.Intn(8), K: 1 + rng.Intn(8),
			ABytes: 1 + rng.Int63n(1<<24), BBytes: 1 + rng.Int63n(1<<24), CBytes: 1 + rng.Int63n(1<<24),
		}
		θ := 1 + rng.Int63n(1<<24)
		slots := 1 + rng.Intn(6)
		w := DefaultWireCost()
		pc := PullCost{Workers: 1 + rng.Intn(8), SeedResident: trial%3 != 0}

		push, perr := OptimizeWire(s, θ, slots, w)
		pull, qerr := OptimizePull(s, θ, slots, w, pc)
		got, mode, err := OptimizeTransfer(s, θ, slots, w, pc)
		if perr != nil || qerr != nil {
			if err == nil {
				t.Fatalf("shape %+v θ=%d: infeasible but OptimizeTransfer returned %v/%v", s, θ, got, mode)
			}
			continue
		}
		if err != nil {
			t.Fatalf("shape %+v θ=%d: %v", s, θ, err)
		}
		pullCheaper := s.CostBytesPull(pull, w, pc) < s.CostBytesWire(push, w)
		if pullCheaper != (mode == TransferPull) {
			t.Fatalf("shape %+v pc=%+v: pull cheaper=%v but mode=%v", s, pc, pullCheaper, mode)
		}
		if mode == TransferPull {
			if got != pull {
				t.Fatalf("pull mode returned params %v, want pull argmin %v", got, pull)
			}
			sawPull = true
		} else {
			if got != push {
				t.Fatalf("push mode returned params %v, want push argmin %v", got, push)
			}
			sawPush = true
		}
		// Cross-check both argmins against the brute scans.
		if bp, err := searchBrute(s, θ, slots, func(p Params) float64 { return s.CostBytesWire(p, w) }); err != nil || bp != push {
			t.Fatalf("push brute %v (%v), fast %v", bp, err, push)
		}
		if bq, err := searchBrute(s, θ, slots, func(p Params) float64 { return s.CostBytesPull(p, w, pc) }); err != nil || bq != pull {
			t.Fatalf("pull brute %v (%v), fast %v", bq, err, pull)
		}
	}
	if !sawPull || !sawPush {
		t.Fatalf("trials never exercised both modes: pull=%v push=%v", sawPull, sawPush)
	}
}

// TestOptimizeTransferWarmOperandsPreferPull pins the concrete case the
// bench gate relies on: with operands resident as handles and four
// workers, any replicated plan's driver traffic collapses to the
// aggregation term, so Auto must pick pull.
func TestOptimizeTransferWarmOperandsPreferPull(t *testing.T) {
	s := Shape{I: 4, J: 4, K: 4, ABytes: 4 << 20, BBytes: 4 << 20, CBytes: 4 << 20}
	pc := PullCost{Workers: 4, SeedResident: true}
	_, mode, err := OptimizeTransfer(s, 8<<20, 4, DefaultWireCost(), pc)
	if err != nil {
		t.Fatal(err)
	}
	if mode != TransferPull {
		t.Fatalf("warm 4-worker plan chose %v, want pull", mode)
	}
	// With one worker and a cold seed, pull holds no edge; ties keep push.
	_, mode, err = OptimizeTransfer(s, 8<<20, 1, DefaultWireCost(), PullCost{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mode != TransferPush {
		t.Fatalf("one-worker cold plan chose %v, want push", mode)
	}
}

// TestPipelineCost pins both estimates on a hand-checked plan: the driver
// pays every operand and result, resident execution only the (W−1)/W peer
// share of a multiply's B and a transpose's A plus the final fetch.
func TestPipelineCost(t *testing.T) {
	ops := []PipeOp{
		{Kind: PipeMul, ABytes: 1000, BBytes: 4000, OutBytes: 2000},
		{Kind: PipeTranspose, ABytes: 2000, OutBytes: 2000},
		{Kind: PipeElementwise, ABytes: 2000, BBytes: 2000, OutBytes: 2000},
	}
	mat, res := PipelineCost(ops, 4, 500)
	if want := int64(7000 + 4000 + 6000); mat != want {
		t.Fatalf("materialized estimate %d, want %d", mat, want)
	}
	wantPeer := int64(4000*3/4 + 2000*3/4) // 3000 + 1500
	if res != wantPeer+500 {
		t.Fatalf("resident estimate %d, want %d", res, wantPeer+500)
	}
	// One worker: no peer traffic, only the final fetch.
	if _, got := PipelineCost(ops, 1, 500); got != 500 {
		t.Fatalf("one-worker resident estimate %d, want 500", got)
	}
	if mat, res := PipelineCost(nil, 0, 0); mat != 0 || res != 0 {
		t.Fatalf("empty plan priced (%d, %d), want zeros", mat, res)
	}
}

// TestTransferStringAndValid covers the mode enum's string forms.
func TestTransferStringAndValid(t *testing.T) {
	for _, tc := range []struct {
		tr Transfer
		s  string
		ok bool
	}{
		{TransferAuto, "auto", true},
		{TransferPush, "push", true},
		{TransferPull, "pull", true},
		{Transfer(9), "transfer(9)", false},
	} {
		if tc.tr.String() != tc.s || tc.tr.Valid() != tc.ok {
			t.Fatalf("Transfer %d: got (%q,%v), want (%q,%v)", int(tc.tr), tc.tr.String(), tc.tr.Valid(), tc.s, tc.ok)
		}
	}
}
