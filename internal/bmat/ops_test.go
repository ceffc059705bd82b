package bmat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distme/internal/matrix"
)

func TestAddMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	a := RandomSparse(rng, 12, 9, 4, 0.3)
	b := RandomDense(rng, 12, 9, 4)
	got := Add(a, b).ToDense()
	want := matrix.Add(a.ToDense(), b.ToDense())
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("block Add mismatch")
	}
}

func TestSubMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := RandomDense(rng, 7, 7, 3)
	b := RandomSparse(rng, 7, 7, 3, 0.4)
	got := Sub(a, b).ToDense()
	want := matrix.Sub(a.ToDense(), b.ToDense())
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("block Sub mismatch")
	}
}

func TestSubMissingLeftBlock(t *testing.T) {
	// A block present only in b must appear negated in a−b.
	a := New(4, 4, 2)
	b := New(4, 4, 2)
	blk := matrix.NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b.SetBlock(1, 1, blk)
	got := Sub(a, b)
	if got.At(2, 2) != -1 || got.At(3, 3) != -4 {
		t.Fatalf("Sub with missing left block wrong: %v", got.ToDense())
	}
}

func TestHadamardMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := RandomSparse(rng, 10, 10, 3, 0.5)
	b := RandomDense(rng, 10, 10, 3)
	got := Hadamard(a, b).ToDense()
	want := matrix.Hadamard(a.ToDense(), b.ToDense())
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("block Hadamard mismatch")
	}
}

func TestHadamardDropsOneSidedBlocks(t *testing.T) {
	a := New(4, 4, 2)
	a.SetBlock(0, 0, matrix.NewDenseData(2, 2, []float64{1, 1, 1, 1}))
	b := New(4, 4, 2)
	b.SetBlock(1, 1, matrix.NewDenseData(2, 2, []float64{1, 1, 1, 1}))
	if got := Hadamard(a, b); got.NumBlocks() != 0 {
		t.Fatalf("one-sided blocks should vanish, got %d blocks", got.NumBlocks())
	}
}

// TestZipBlockNilRules pins the nil-block rule of each element-wise
// operator for a block only the left operand stores, only the right one
// stores, and both store. Operands are sparse, so every stored result must
// also come back dense.
func TestZipBlockNilRules(t *testing.T) {
	x := matrix.NewCSRFromDense(matrix.NewDenseData(2, 2, []float64{1, 0, 3, 4}))
	y := matrix.NewCSRFromDense(matrix.NewDenseData(2, 2, []float64{2, 4, 0, 16}))
	const eps = 0.5
	for _, tc := range []struct {
		name string
		op   ZipOp
		x, y matrix.Block
		want []float64 // nil: no block
	}{
		{"add x only", ZipAdd, x, nil, []float64{1, 0, 3, 4}},
		{"add y only", ZipAdd, nil, y, []float64{2, 4, 0, 16}},
		{"add both", ZipAdd, x, y, []float64{3, 4, 3, 20}},
		{"sub x only", ZipSub, x, nil, []float64{1, 0, 3, 4}},
		{"sub y only", ZipSub, nil, y, []float64{-2, -4, 0, -16}},
		{"sub both", ZipSub, x, y, []float64{-1, -4, 3, -12}},
		{"hadamard x only", ZipHadamard, x, nil, nil},
		{"hadamard y only", ZipHadamard, nil, y, nil},
		{"hadamard both", ZipHadamard, x, y, []float64{2, 0, 0, 64}},
		{"divelem x only", ZipDivElem, x, nil, []float64{2, 0, 6, 8}},
		{"divelem y only", ZipDivElem, nil, y, nil},
		{"divelem both", ZipDivElem, x, y, []float64{0.5, 0, 6, 0.25}},
	} {
		got := ZipBlock(tc.op, tc.x, tc.y, eps)
		if tc.want == nil {
			if got != nil {
				t.Errorf("%s: stored a block, want none", tc.name)
			}
			continue
		}
		d, ok := got.(*matrix.Dense)
		if !ok {
			t.Errorf("%s: got %T, want a dense block", tc.name, got)
			continue
		}
		for i, v := range tc.want {
			if d.Data[i] != v {
				t.Errorf("%s: element %d = %v, want %v", tc.name, i, d.Data[i], v)
			}
		}
	}
}

func TestDivElemGuard(t *testing.T) {
	a := New(2, 2, 2)
	a.SetBlock(0, 0, matrix.NewDenseData(2, 2, []float64{1, 2, 3, 4}))
	b := New(2, 2, 2) // all-zero denominator
	eps := 1e-8
	got := DivElem(a, b, eps)
	if want := 1 / eps; got.At(0, 0) != want {
		t.Fatalf("missing denominator block not clamped: %g, want %g", got.At(0, 0), want)
	}
}

func TestScaleBlockMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := RandomDense(rng, 5, 5, 2)
	got := a.Scale(2.5).ToDense()
	want := matrix.Scale(2.5, a.ToDense())
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("Scale mismatch")
	}
}

func TestFrobeniusNormMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := RandomSparse(rng, 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(4), 0.4)
		return math.Abs(m.FrobeniusNorm()-m.ToDense().FrobeniusNorm()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestZipShapeMismatchPanics(t *testing.T) {
	a := New(4, 4, 2)
	b := New(4, 4, 4) // different block size
	defer func() {
		if recover() == nil {
			t.Fatal("block-size mismatch did not panic")
		}
	}()
	Add(a, b)
}

// Property: Add is commutative and Hadamard distributes over block layout.
func TestAddCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, bs := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(4)
		a := RandomSparse(rng, r, c, bs, 0.4)
		b := RandomSparse(rng, r, c, bs, 0.4)
		return EqualApprox(Add(a, b), Add(b, a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDotMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := RandomSparse(rng, 14, 11, 4, 0.3)
	b := RandomDense(rng, 14, 11, 4)
	var want float64
	ad, bd := a.ToDense(), b.ToDense()
	for i, x := range ad.Data {
		want += x * bd.Data[i]
	}
	if got := Dot(a, b); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Dot = %g, want %g", got, want)
	}
	if got, rev := Dot(a, b), Dot(b, a); math.Abs(got-rev) > 1e-9 {
		t.Fatal("Dot not symmetric")
	}
}

func TestDotDisjointBlocks(t *testing.T) {
	a := New(4, 4, 2)
	a.SetBlock(0, 0, matrix.NewDenseData(2, 2, []float64{1, 1, 1, 1}))
	b := New(4, 4, 2)
	b.SetBlock(1, 1, matrix.NewDenseData(2, 2, []float64{1, 1, 1, 1}))
	if Dot(a, b) != 0 {
		t.Fatal("disjoint blocks must dot to zero")
	}
}

func TestSumAllAndTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	m := RandomSparse(rng, 9, 9, 3, 0.4)
	d := m.ToDense()
	var wantSum, wantTr float64
	for i := 0; i < 9; i++ {
		wantTr += d.At(i, i)
		for j := 0; j < 9; j++ {
			wantSum += d.At(i, j)
		}
	}
	if got := m.SumAll(); math.Abs(got-wantSum) > 1e-9 {
		t.Fatalf("SumAll = %g, want %g", got, wantSum)
	}
	if got := m.Trace(); math.Abs(got-wantTr) > 1e-9 {
		t.Fatalf("Trace = %g, want %g", got, wantTr)
	}
}

func TestTraceNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square Trace did not panic")
		}
	}()
	New(3, 4, 2).Trace()
}

// Property: Dot(a, a) = ‖a‖F².
func TestDotSelfIsNormSquaredProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := RandomSparse(rng, 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(4), 0.5)
		n := m.FrobeniusNorm()
		return math.Abs(Dot(m, m)-n*n) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
