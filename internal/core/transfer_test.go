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
