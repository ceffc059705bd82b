package core

import "testing"

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

	// What resident execution defers: the driver still pays every operator
	// of the plan, resident execution what runs.
	for _, tc := range []struct {
		name    string
		op      PipeOp
		wantRes int64
	}{
		// A transpose only multiplies read runs nowhere.
		{"deferred transpose", PipeOp{Kind: PipeTranspose, ABytes: 2000, OutBytes: 2000, Deferred: true}, 0},
		// A multiply over the view fetches its source's peer share besides B's.
		{"multiply over a view of A", PipeOp{Kind: PipeMul, ABytes: 2000, BBytes: 4000, OutBytes: 1000, ViewA: true}, 2000*3/4 + 4000*3/4},
		// Over a view of B it reads all of B's source, as it reads B.
		{"multiply over a view of B", PipeOp{Kind: PipeMul, ABytes: 1000, BBytes: 4000, OutBytes: 2000}, 4000 * 3 / 4},
		// The fused update: the division deferred, the Hadamard product's
		// pass over co-partitioned bands; neither moves anything.
		{"fused division", PipeOp{Kind: PipeElementwise, ABytes: 2000, BBytes: 2000, OutBytes: 2000, Deferred: true}, 0},
		{"fused hadamard", PipeOp{Kind: PipeElementwise, ABytes: 2000, BBytes: 2000, OutBytes: 2000}, 0},
	} {
		mat, res := PipelineCost([]PipeOp{tc.op}, 4, 0)
		if want := tc.op.ABytes + tc.op.BBytes + tc.op.OutBytes; mat != want {
			t.Fatalf("%s: materialized %d, want %d", tc.name, mat, want)
		}
		if res != tc.wantRes {
			t.Fatalf("%s: resident %d, want %d", tc.name, res, tc.wantRes)
		}
	}
}

// TestTransferStringAndValid covers the mode enum's string forms, of the
// three valid modes and of an unknown one.
func TestTransferStringAndValid(t *testing.T) {
	for _, tc := range []struct {
		tr Transfer
		s  string
	}{
		{TransferAuto, "auto"},
		{TransferPush, "push"},
		{TransferPull, "pull"},
		{Transfer(9), "transfer(9)"},
	} {
		if tc.tr.String() != tc.s {
			t.Fatalf("Transfer %d: got %q, want %q", int(tc.tr), tc.tr.String(), tc.s)
		}
	}
}
