package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMul is the reference O(mnk) product used to check every kernel.
func naiveMul(a, b *Dense) *Dense {
	m, k := a.Dims()
	_, n := b.Dims()
	c := NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {7, 7, 7}, {16, 8, 32}, {65, 130, 67}} {
		a := RandomDense(rng, dims[0], dims[1])
		b := RandomDense(rng, dims[1], dims[2])
		c := NewDense(dims[0], dims[2])
		Gemm(c, a, b)
		if !c.EqualApprox(naiveMul(a, b), 1e-9) {
			t.Fatalf("Gemm mismatch for %v", dims)
		}
	}
}

func TestGemmParallelPathMatchesNaive(t *testing.T) {
	forceParallel(t) // 160×140×90 is under gemmFlopsThreshold
	SetKernelWorkers(4)
	rng := rand.New(rand.NewSource(11))
	a := RandomDense(rng, 160, 90)
	b := RandomDense(rng, 90, 140)
	c := NewDense(160, 140)
	Gemm(c, a, b)
	if !c.EqualApprox(naiveMul(a, b), 1e-9) {
		t.Fatal("parallel Gemm mismatch")
	}
}

func TestGemmAccumulates(t *testing.T) {
	a := NewDenseData(1, 1, []float64{2})
	b := NewDenseData(1, 1, []float64{3})
	c := NewDenseData(1, 1, []float64{10})
	Gemm(c, a, b)
	if c.At(0, 0) != 16 {
		t.Fatalf("Gemm must accumulate: got %g, want 16", c.At(0, 0))
	}
}

func TestGemmDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Gemm did not panic")
		}
	}()
	Gemm(NewDense(2, 2), NewDense(2, 3), NewDense(2, 2))
}

func TestCSRMulDenseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := RandomSparse(rng, 20, 30, 0.2)
	b := RandomDense(rng, 30, 10)
	c := NewDense(20, 10)
	CSRMulDense(c, a, b)
	if !c.EqualApprox(naiveMul(a.Dense(), b), 1e-9) {
		t.Fatal("CSRMulDense mismatch")
	}
}

func TestDenseMulCSCMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := RandomDense(rng, 12, 18)
	b := NewCSCFromDense(RandomSparse(rng, 18, 9, 0.3).Dense())
	c := NewDense(12, 9)
	DenseMulCSC(c, a, b)
	if !c.EqualApprox(naiveMul(a, b.Dense()), 1e-9) {
		t.Fatal("DenseMulCSC mismatch")
	}
}

// TestCSRMulCSRRoundsApart: Gustavson's accumulation rounds the product
// and the sum apart on every architecture, as the other sparse kernels do.
// Row 0 takes −1·1 and then (1+2⁻³⁰)(1−2⁻³⁰), whose product rounds to 1 on
// its own: the two cancel to an exact 0 and the entry is dropped, where a
// fused multiply-add would keep −2⁻⁶⁰.
func TestCSRMulCSRRoundsApart(t *testing.T) {
	a := NewCSRFromDense(NewDenseData(1, 2, []float64{-1, 1 + 0x1p-30}))
	b := NewCSRFromDense(NewDenseData(2, 1, []float64{1, 1 - 0x1p-30}))
	if got := CSRMulCSR(a, b); got.NNZ() != 0 {
		t.Fatalf("CSRMulCSR kept C[0][0] = %v; rounded apart the two products cancel to 0", got.Dense().At(0, 0))
	}
}

func TestCSRMulCSRMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := RandomSparse(rng, 15, 25, 0.15)
	b := RandomSparse(rng, 25, 10, 0.2)
	got := CSRMulCSR(a, b)
	if !got.Dense().EqualApprox(naiveMul(a.Dense(), b.Dense()), 1e-9) {
		t.Fatal("CSRMulCSR mismatch")
	}
	// Column indices must be sorted within rows for downstream kernels.
	for i := 0; i < got.RowsN; i++ {
		for p := got.RowPtr[i] + 1; p < got.RowPtr[i+1]; p++ {
			if got.ColIdx[p-1] >= got.ColIdx[p] {
				t.Fatalf("row %d column indices not strictly increasing", i)
			}
		}
	}
}

// TestMulAllFormatPairs is the paper's format matrix: every combination of
// dense/CSR/CSC operands must produce the same product.
func TestMulAllFormatPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ad := RandomSparse(rng, 9, 13, 0.4).Dense()
	bd := RandomSparse(rng, 13, 7, 0.4).Dense()
	want := naiveMul(ad, bd)
	as := []Block{ad, NewCSRFromDense(ad), NewCSCFromDense(ad)}
	bs := []Block{bd, NewCSRFromDense(bd), NewCSCFromDense(bd)}
	for _, a := range as {
		for _, b := range bs {
			got := Mul(a, b)
			if !got.Dense().EqualApprox(want, 1e-9) {
				t.Errorf("Mul(%v, %v) mismatch", a.Format(), b.Format())
			}
		}
	}
}

func TestMulAddAccumulatesAcrossK(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// C = A1×B1 + A2×B2 computed through the accumulator path.
	a1, b1 := RandomDense(rng, 6, 4), RandomDense(rng, 4, 5)
	a2, b2 := RandomDense(rng, 6, 3), RandomDense(rng, 3, 5)
	acc := MulAdd(nil, a1, b1)
	acc = MulAdd(acc, a2, b2)
	want := Add(naiveMul(a1, b1), naiveMul(a2, b2))
	if !acc.EqualApprox(want, 1e-9) {
		t.Fatal("MulAdd accumulation mismatch")
	}
}

func TestMulAddSparseLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := RandomSparse(rng, 8, 10, 0.3)
	b := RandomDense(rng, 10, 6)
	acc := MulAdd(nil, a, b)
	if !acc.EqualApprox(naiveMul(a.Dense(), b), 1e-9) {
		t.Fatal("MulAdd sparse-left mismatch")
	}
}

func TestMulAddWrongAccumulatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-shape accumulator did not panic")
		}
	}()
	MulAdd(NewDense(2, 2), NewDense(3, 3), NewDense(3, 3))
}

func TestAddSubHadamard(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	if got := Add(a, b); !got.Equal(NewDenseData(2, 2, []float64{6, 8, 10, 12})) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !got.Equal(NewDenseData(2, 2, []float64{4, 4, 4, 4})) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Hadamard(a, b); !got.Equal(NewDenseData(2, 2, []float64{5, 12, 21, 32})) {
		t.Fatalf("Hadamard = %v", got)
	}
}

func TestAddIntoSparseFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	base := RandomDense(rng, 6, 6)
	s := RandomSparse(rng, 6, 6, 0.3)
	want := Add(base, s.Dense())

	gotCSR := base.Clone()
	AddInto(gotCSR, s)
	if !gotCSR.EqualApprox(want, 1e-12) {
		t.Fatal("AddInto CSR mismatch")
	}
	gotCSC := base.Clone()
	AddInto(gotCSC, NewCSCFromCSR(s))
	if !gotCSC.EqualApprox(want, 1e-12) {
		t.Fatal("AddInto CSC mismatch")
	}
}

func TestDivElemEpsilonGuard(t *testing.T) {
	a := NewDenseData(1, 3, []float64{1, 2, 3})
	b := NewDenseData(1, 3, []float64{2, 0, 1e-12})
	eps := 1e-9
	got := DivElem(a, b, eps)
	if got.At(0, 0) != 0.5 {
		t.Fatalf("plain division wrong: %g", got.At(0, 0))
	}
	if want := 2 / eps; got.At(0, 1) != want {
		t.Fatalf("zero denominator not clamped: %g, want %g", got.At(0, 1), want)
	}
	if want := 3 / eps; got.At(0, 2) != want {
		t.Fatalf("tiny denominator not clamped: %g, want %g", got.At(0, 2), want)
	}
}

// TestHadamardDivElemMatchesTwoPasses: the fused pass has the bits of
// Hadamard over DivElem — eps guard, zero and negative denominators, NaN
// and infinities included — for every representation of each operand, and
// leaves the operands as they were.
func TestHadamardDivElemMatchesTwoPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	xd, nd, dd := RandomDense(rng, 6, 9), RandomSparse(rng, 6, 9, 0.6).Dense(), RandomDense(rng, 6, 9)
	dd.Data[0], dd.Data[1], dd.Data[2], dd.Data[3] = 0, -1e-12, 1e-12, -2.5
	xd.Data[4], nd.Data[5] = math.Inf(1), math.NaN()
	for _, eps := range []float64{1e-9, 0} {
		for _, x := range []Block{xd.Clone(), NewCSRFromDense(xd)} {
			for _, n := range []Block{nd.Clone(), NewCSRFromDense(nd), NewCSCFromDense(nd)} {
				for _, d := range []Block{dd.Clone(), NewCSRFromDense(dd)} {
					want := Hadamard(x, DivElem(n, d, eps))
					got := HadamardDivElem(x, n, d, eps)
					if i, ok := sameBits(got, want); !ok {
						t.Fatalf("eps %g, %v∘(%v⊘%v): element %d is %v, the two passes %v", eps, x.Format(), n.Format(), d.Format(), i, got.Data[i], want.Data[i])
					}
					if i, ok := sameBits(x.Dense(), xd); !ok {
						t.Fatalf("x changed at %d", i)
					}
				}
			}
		}
	}
}

func TestScale(t *testing.T) {
	a := NewDenseData(1, 2, []float64{3, -4})
	if got := Scale(-2, a); !got.Equal(NewDenseData(1, 2, []float64{-6, 8})) {
		t.Fatalf("Scale = %v", got)
	}
}

// TestElementwiseWritesFreshBlock: Sub, Hadamard, DivElem and Scale give
// each element the bits of one operation on the two operands' values, for
// every representation of either operand, into a block of their own: the
// operands are left as they were, and writing the result touches neither.
func TestElementwiseWritesFreshBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ad, bd := RandomSparse(rng, 5, 7, 0.5).Dense(), RandomDense(rng, 5, 7)
	bd.Data[3] = 0 // DivElem's guard
	const eps = 1e-9
	kernels := []struct {
		name string
		run  func(a, b Block) *Dense
		want func(x, y float64) float64
	}{
		{"Sub", Sub, func(x, y float64) float64 { return x - y }},
		{"Hadamard", Hadamard, func(x, y float64) float64 { return x * y }},
		{"DivElem", func(a, b Block) *Dense { return DivElem(a, b, eps) }, func(x, y float64) float64 {
			if y < eps && y > -eps {
				y = eps
			}
			return x / y
		}},
		{"Scale", func(a, _ Block) *Dense { return Scale(-1.5, a) }, func(x, _ float64) float64 { return x * -1.5 }},
	}
	for _, k := range kernels {
		for _, a := range []Block{ad.Clone(), NewCSRFromDense(ad), NewCSCFromDense(ad)} {
			for _, b := range []Block{bd.Clone(), NewCSRFromDense(bd)} {
				bv := b.Dense()
				got := k.run(a, b)
				for i, x := range ad.Data {
					if want := k.want(x, bv.Data[i]); math.Float64bits(got.Data[i]) != math.Float64bits(want) {
						t.Fatalf("%s(%T, %T) element %d = %v, want %v", k.name, a, b, i, got.Data[i], want)
					}
				}
				for i := range got.Data {
					got.Data[i] = math.NaN()
				}
				if !a.Dense().Equal(ad) || !b.Dense().Equal(bd) {
					t.Fatalf("%s(%T, %T) shares storage with an operand", k.name, a, b)
				}
			}
		}
	}
}

func TestTransposeAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	d := RandomSparse(rng, 5, 9, 0.4).Dense()
	want := d.Transpose()
	for _, b := range []Block{d, NewCSRFromDense(d), NewCSCFromDense(d)} {
		got := Transpose(b)
		if !got.Dense().Equal(want) {
			t.Errorf("Transpose(%v) mismatch", b.Format())
		}
	}
}

// Property: (A×B)ᵀ = Bᵀ×Aᵀ across random shapes and formats.
func TestMulTransposeIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := RandomSparse(rng, m, k, 0.5)
		b := RandomDense(rng, k, n)
		left := Transpose(Mul(a, b)).Dense()
		right := Mul(Transpose(b), Transpose(a)).Dense()
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: A×(B+C) = A×B + A×C (distributivity) for dense operands.
func TestMulDistributivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := RandomDense(rng, m, k)
		b := RandomDense(rng, k, n)
		c := RandomDense(rng, k, n)
		left := Mul(a, Add(b, c)).Dense()
		right := Add(Mul(a, b), Mul(a, c))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: identity is neutral: I×A = A×I = A.
func TestMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := RandomDense(rng, m, n)
		im := identity(m)
		in := identity(n)
		return Mul(im, a).Dense().EqualApprox(a, 1e-12) &&
			Mul(a, in).Dense().EqualApprox(a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func identity(n int) *Dense {
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 1)
	}
	return d
}

// Kernel benchmarks (including seed-vs-current regression comparisons)
// live in kernels_bench_test.go.
