package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func TestGetDenseZeroedAndSized(t *testing.T) {
	for _, dims := range [][2]int{{0, 0}, {1, 1}, {3, 7}, {64, 64}, {100, 33}} {
		d := GetDense(dims[0], dims[1])
		if r, c := d.Dims(); r != dims[0] || c != dims[1] {
			t.Fatalf("GetDense(%d, %d) dims = %dx%d", dims[0], dims[1], r, c)
		}
		if len(d.Data) != dims[0]*dims[1] {
			t.Fatalf("GetDense(%d, %d) len(Data) = %d", dims[0], dims[1], len(d.Data))
		}
		for i, v := range d.Data {
			if v != 0 {
				t.Fatalf("GetDense(%d, %d) element %d = %g, want 0", dims[0], dims[1], i, v)
			}
		}
		PutDense(d)
	}
}

func TestPoolRecyclesAndRezeroes(t *testing.T) {
	// Dirty a pooled block, release it, and check the next Get of the same
	// size class comes back zeroed even if it reuses the array.
	d := GetDense(64, 64)
	for i := range d.Data {
		d.Data[i] = float64(i + 1)
	}
	PutDense(d)
	if d.Data != nil {
		t.Fatal("PutDense must nil the released Data")
	}
	e := GetDense(60, 60) // same 4096-element class, smaller shape
	for i, v := range e.Data {
		if v != 0 {
			t.Fatalf("recycled block not zeroed at %d: %g", i, v)
		}
	}
	PutDense(e)
}

func TestPutDenseForeignAndDoubleReleaseAreNoOps(t *testing.T) {
	d := NewDense(32, 32)
	d.Data[0] = 42
	PutDense(d) // non-pooled: must not be recycled or nilled
	if d.Data == nil || d.Data[0] != 42 {
		t.Fatal("PutDense mutated a non-pooled block")
	}
	p := GetDense(32, 32)
	PutDense(p)
	PutDense(p) // second release is a no-op
	PutDense(nil)
}

func TestPoolStatsCountReuse(t *testing.T) {
	before := DensePoolStats()
	d := GetDense(128, 128)
	PutDense(d)
	e := GetDense(128, 128)
	PutDense(e)
	after := DensePoolStats()
	if after.Gets-before.Gets < 2 || after.Puts-before.Puts < 2 {
		t.Fatalf("pool stats did not advance: before=%+v after=%+v", before, after)
	}
}

func TestMulAddAccumulatorIsPoolOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := RandomDense(rng, 20, 20)
	b := RandomDense(rng, 20, 20)
	acc := MulAdd(nil, a, b)
	if !acc.fromPool {
		t.Fatal("MulAdd(nil, ...) accumulator should come from the pool")
	}
	// A copy must not inherit the pool tag: releasing it is a no-op.
	cp := acc.Clone()
	if cp.fromPool {
		t.Fatal("Clone must not inherit pool origin")
	}
	PutDense(acc)
	if acc.Data != nil {
		t.Fatal("pool-origin accumulator not released")
	}
}

// TestGetTranspose: the pooled transpose has the transpose's values, over a
// recycled, unzeroed array too, and goes back to the pool like GetDense's.
func TestGetTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	d := RandomDense(rng, 37, 23)
	for round := 0; round < 3; round++ {
		got := GetTranspose(d)
		if !got.Equal(d.Transpose()) {
			t.Fatalf("round %d: GetTranspose differs from Transpose", round)
		}
		for i := range got.Data {
			got.Data[i] = math.NaN() // what a recycled array may hold
		}
		PutDense(got)
		if got.Data != nil {
			t.Fatal("PutDense kept the array of a pooled transpose")
		}
	}
}
