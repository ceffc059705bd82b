package matrix

import (
	"math/rand"
	"testing"
)

// forceParallel drops the fan-out gates so even tiny inputs take the
// parallel path, and restores everything at cleanup. Tests in this file
// never run in parallel with each other (no t.Parallel), so mutating the
// package gates is safe.
func forceParallel(t *testing.T) {
	t.Helper()
	oldPar, oldSparse, oldCSR := gemmFlopsThreshold, sparseFlopsThreshold, csrMulCSRThreshold
	gemmFlopsThreshold, sparseFlopsThreshold, csrMulCSRThreshold = 1, 1, 1
	t.Cleanup(func() {
		gemmFlopsThreshold, sparseFlopsThreshold, csrMulCSRThreshold = oldPar, oldSparse, oldCSR
		SetKernelWorkers(0)
	})
}

// skewedCSR builds an m×k matrix whose first row is fully dense and whose
// remaining rows carry at most one entry — the adversarial shape for
// row-count-balanced splits.
func skewedCSR(rng *rand.Rand, m, k int) *CSR {
	var ri, ci []int
	var v []float64
	for j := 0; j < k; j++ {
		ri = append(ri, 0)
		ci = append(ci, j)
		v = append(v, rng.NormFloat64())
	}
	for i := 1; i < m; i++ {
		if rng.Intn(3) == 0 {
			continue
		}
		ri = append(ri, i)
		ci = append(ci, rng.Intn(k))
		v = append(v, rng.NormFloat64())
	}
	return NewCSR(m, k, ri, ci, v)
}

var equivalenceCases = []struct {
	name    string
	m, k, n int
	build   func(rng *rand.Rand, m, k int) *CSR // sparse operand builder
}{
	{"empty", 0, 0, 0, func(rng *rand.Rand, m, k int) *CSR { return NewCSR(0, 0, nil, nil, nil) }},
	{"no-nonzeros", 6, 8, 5, func(rng *rand.Rand, m, k int) *CSR { return NewCSR(m, k, nil, nil, nil) }},
	{"one-row", 1, 40, 30, func(rng *rand.Rand, m, k int) *CSR { return RandomSparse(rng, m, k, 0.3) }},
	{"skewed-nnz", 33, 48, 24, skewedCSR},
	{"square", 48, 48, 48, func(rng *rand.Rand, m, k int) *CSR { return RandomSparse(rng, m, k, 0.15) }},
	{"ragged-dims", 37, 53, 41, func(rng *rand.Rand, m, k int) *CSR { return RandomSparse(rng, m, k, 0.2) }},
	{"tall-thin", 90, 7, 3, func(rng *rand.Rand, m, k int) *CSR { return RandomSparse(rng, m, k, 0.4) }},
	{"dense-ish", 20, 25, 60, func(rng *rand.Rand, m, k int) *CSR { return RandomSparse(rng, m, k, 0.8) }},
}

var workerWidths = []int{2, 3, 4, 8}

// TestGemmWorkerCountInvariance: the dense kernel must produce bit-for-bit
// identical output for every fan-out width, including widths far above the
// row count.
func TestGemmWorkerCountInvariance(t *testing.T) {
	forceParallel(t)
	for _, tc := range equivalenceCases {
		rng := rand.New(rand.NewSource(101))
		a := RandomDense(rng, tc.m, tc.k)
		b := RandomDense(rng, tc.k, tc.n)
		SetKernelWorkers(1)
		want := NewDense(tc.m, tc.n)
		Gemm(want, a, b)
		for _, w := range workerWidths {
			SetKernelWorkers(w)
			got := NewDense(tc.m, tc.n)
			Gemm(got, a, b)
			if !got.Equal(want) {
				t.Errorf("%s: Gemm differs at %d workers", tc.name, w)
			}
		}
	}
}

func TestCSRMulDenseWorkerCountInvariance(t *testing.T) {
	forceParallel(t)
	for _, tc := range equivalenceCases {
		rng := rand.New(rand.NewSource(102))
		a := tc.build(rng, tc.m, tc.k)
		b := RandomDense(rng, tc.k, tc.n)
		SetKernelWorkers(1)
		want := NewDense(tc.m, tc.n)
		CSRMulDense(want, a, b)
		for _, w := range workerWidths {
			SetKernelWorkers(w)
			got := NewDense(tc.m, tc.n)
			CSRMulDense(got, a, b)
			if !got.Equal(want) {
				t.Errorf("%s: CSRMulDense differs at %d workers", tc.name, w)
			}
		}
	}
}

func TestDenseMulCSCWorkerCountInvariance(t *testing.T) {
	forceParallel(t)
	for _, tc := range equivalenceCases {
		rng := rand.New(rand.NewSource(103))
		a := RandomDense(rng, tc.m, tc.k)
		b := NewCSCFromCSR(tc.build(rng, tc.k, tc.n))
		SetKernelWorkers(1)
		want := NewDense(tc.m, tc.n)
		DenseMulCSC(want, a, b)
		for _, w := range workerWidths {
			SetKernelWorkers(w)
			got := NewDense(tc.m, tc.n)
			DenseMulCSC(got, a, b)
			if !got.Equal(want) {
				t.Errorf("%s: DenseMulCSC differs at %d workers", tc.name, w)
			}
		}
	}
}

// csrEqual compares two CSR matrices structurally: same shape, row
// pointers, column indices and bit-identical values.
func csrEqual(a, b *CSR) bool {
	if a.RowsN != b.RowsN || a.ColsN != b.ColsN || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

func TestCSRMulCSRWorkerCountInvariance(t *testing.T) {
	forceParallel(t)
	for _, tc := range equivalenceCases {
		rng := rand.New(rand.NewSource(104))
		a := tc.build(rng, tc.m, tc.k)
		b := RandomSparse(rng, tc.k, tc.n, 0.3)
		SetKernelWorkers(1)
		want := CSRMulCSR(a, b)
		for _, w := range workerWidths {
			SetKernelWorkers(w)
			got := CSRMulCSR(a, b)
			if !csrEqual(got, want) {
				t.Errorf("%s: CSRMulCSR differs at %d workers", tc.name, w)
			}
		}
	}
}

// TestParallelKernelsMatchNaive re-validates the parallel paths against the
// O(mnk) reference, not just against the serial kernel.
func TestParallelKernelsMatchNaive(t *testing.T) {
	forceParallel(t)
	SetKernelWorkers(4)
	rng := rand.New(rand.NewSource(105))
	m, k, n := 45, 61, 38
	ad := RandomDense(rng, m, k)
	sp := RandomSparse(rng, m, k, 0.25)
	bd := RandomDense(rng, k, n)
	want := naiveMul(ad, bd)

	c := NewDense(m, n)
	Gemm(c, ad, bd)
	if !c.EqualApprox(want, 1e-9) {
		t.Error("parallel Gemm vs naive mismatch")
	}

	c = NewDense(m, n)
	CSRMulDense(c, sp, bd)
	if !c.EqualApprox(naiveMul(sp.Dense(), bd), 1e-9) {
		t.Error("parallel CSRMulDense vs naive mismatch")
	}

	bcsc := NewCSCFromDense(RandomSparse(rng, k, n, 0.3).Dense())
	c = NewDense(m, n)
	DenseMulCSC(c, ad, bcsc)
	if !c.EqualApprox(naiveMul(ad, bcsc.Dense()), 1e-9) {
		t.Error("parallel DenseMulCSC vs naive mismatch")
	}

	bsp := RandomSparse(rng, k, n, 0.2)
	if !CSRMulCSR(sp, bsp).Dense().EqualApprox(naiveMul(sp.Dense(), bsp.Dense()), 1e-9) {
		t.Error("parallel CSRMulCSR vs naive mismatch")
	}
}

// TestCSRMulCSRHybridSortDenseRows drives result rows past the hybrid-sort
// threshold (dense-ish operands ⇒ >32 columns per result row) and checks
// ordering invariants survive the sort.Ints fallback.
func TestCSRMulCSRHybridSortDenseRows(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	a := RandomSparse(rng, 30, 40, 0.6)
	b := RandomSparse(rng, 40, 80, 0.6)
	got := CSRMulCSR(a, b)
	maxRow := 0
	for i := 0; i < got.RowsN; i++ {
		if w := got.RowPtr[i+1] - got.RowPtr[i]; w > maxRow {
			maxRow = w
		}
		for p := got.RowPtr[i] + 1; p < got.RowPtr[i+1]; p++ {
			if got.ColIdx[p-1] >= got.ColIdx[p] {
				t.Fatalf("row %d columns not strictly increasing", i)
			}
		}
	}
	if maxRow <= hybridSortThreshold {
		t.Fatalf("test did not exercise the sort.Ints fallback (max row %d)", maxRow)
	}
	if !got.Dense().EqualApprox(naiveMul(a.Dense(), b.Dense()), 1e-9) {
		t.Fatal("CSRMulCSR mismatch on dense-ish product")
	}
}

func TestPrefixSplitsBalanceAndCover(t *testing.T) {
	cases := []struct {
		name   string
		prefix []int
		parts  int
	}{
		{"empty", []int{0}, 4},
		{"uniform", []int{0, 10, 20, 30, 40, 50, 60, 70, 80}, 4},
		{"all-in-first", []int{0, 100, 100, 100, 100}, 4},
		{"all-zero", []int{0, 0, 0, 0}, 2},
		{"more-parts-than-rows", []int{0, 5, 9}, 8},
	}
	for _, tc := range cases {
		bounds := prefixSplits(tc.prefix, tc.parts)
		m := len(tc.prefix) - 1
		if bounds[0] != 0 || bounds[len(bounds)-1] != m {
			t.Errorf("%s: bounds %v do not cover [0, %d]", tc.name, bounds, m)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] {
				t.Errorf("%s: bounds %v not monotone", tc.name, bounds)
			}
		}
	}
}
