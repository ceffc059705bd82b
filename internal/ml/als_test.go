package ml

import (
	"context"
	"math/rand"
	"testing"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

func TestALSObjectiveDecreases(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(190))
	v := bmat.RandomDense(rng, 24, 20, 4)
	res, err := ALS(context.Background(), e, v, ALSOptions{Rank: 4, Iterations: 6, Lambda: 0.1, Seed: 1, TrackObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objectives) != 6 {
		t.Fatalf("tracked %d objectives", len(res.Objectives))
	}
	// ALS monotonically decreases the regularized objective.
	for i := 1; i < len(res.Objectives); i++ {
		if res.Objectives[i] > res.Objectives[i-1]*(1+1e-9) {
			t.Fatalf("objective increased at %d: %g → %g", i, res.Objectives[i-1], res.Objectives[i])
		}
	}
}

func TestALSRecoversLowRankMatrix(t *testing.T) {
	// V built as a rank-3 product must be fit almost exactly.
	e := testEngine(t)
	rng := rand.New(rand.NewSource(191))
	wTrue := bmat.RandomDense(rng, 20, 3, 4)
	hTrue := bmat.RandomDense(rng, 3, 16, 4)
	v, err := e.Multiply(context.Background(), wTrue, hTrue)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ALS(context.Background(), e, v, ALSOptions{Rank: 3, Iterations: 15, Lambda: 1e-6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	wh, err := e.Multiply(context.Background(), res.W, res.H)
	if err != nil {
		t.Fatal(err)
	}
	rel := bmat.Sub(v, wh).FrobeniusNorm() / v.FrobeniusNorm()
	if rel > 1e-3 {
		t.Fatalf("rank-3 ALS left relative error %g", rel)
	}
}

func TestALSBeatsGNMFOnFit(t *testing.T) {
	// With the same rank and iterations, least squares fits a dense V at
	// least as well as the multiplicative updates (it solves each step
	// exactly).
	e := testEngine(t)
	rng := rand.New(rand.NewSource(192))
	v := bmat.RandomDense(rng, 20, 20, 4)
	als, err := ALS(context.Background(), e, v, ALSOptions{Rank: 5, Iterations: 5, Lambda: 1e-9, Seed: 3, TrackObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	gnmf, err := GNMF(context.Background(), e, v, GNMFOptions{Rank: 5, Iterations: 5, Seed: 3, TrackObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	alsErr := als.Objectives[len(als.Objectives)-1]
	gnmfObj := gnmf.Objectives[len(gnmf.Objectives)-1]
	if alsErr > gnmfObj*gnmfObj*1.05 { // ALS objective is squared error
		t.Fatalf("ALS fit %g worse than GNMF %g²", alsErr, gnmfObj)
	}
}

func TestALSDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	v := bmat.RandomDense(rng, 12, 12, 4)
	r1, err := ALS(context.Background(), testEngine(t), v, ALSOptions{Rank: 2, Iterations: 2, Lambda: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ALS(context.Background(), testEngine(t), v, ALSOptions{Rank: 2, Iterations: 2, Lambda: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.W.ToDense().Equal(r2.W.ToDense()) {
		t.Fatal("ALS not deterministic for a fixed seed")
	}
}

func TestALSInvalidOptions(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(194))
	v := bmat.RandomDense(rng, 8, 8, 4)
	if _, err := ALS(context.Background(), e, v, ALSOptions{Rank: 0, Iterations: 1}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := ALS(context.Background(), e, v, ALSOptions{Rank: 2, Iterations: 0}); err == nil {
		t.Fatal("0 iterations accepted")
	}
	if _, err := ALS(context.Background(), e, v, ALSOptions{Rank: 2, Iterations: 1, Lambda: -1}); err == nil {
		t.Fatal("negative lambda accepted")
	}
}

func TestSVDRecoversLowRank(t *testing.T) {
	// A built as a rank-3 product: the top-3 randomized SVD must capture
	// essentially all of its energy.
	e := testEngine(t)
	rng := rand.New(rand.NewSource(195))
	u := bmat.RandomDense(rng, 30, 3, 5)
	v := bmat.RandomDense(rng, 3, 24, 5)
	a, err := e.Multiply(context.Background(), u, v)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SVD(context.Background(), e, a, SVDOptions{Rank: 3, Oversample: 4, PowerIterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.S) != 3 {
		t.Fatalf("got %d singular values", len(res.S))
	}
	// Reconstruct U·diag(S)·Vᵀ and compare.
	us := res.U.ToDense()
	for j := 0; j < 3; j++ {
		for i := 0; i < us.RowsN; i++ {
			us.Set(i, j, us.At(i, j)*res.S[j])
		}
	}
	rec := matrixMulDense(us, res.V.ToDense().Transpose())
	rel := frobDiff(a.ToDense(), rec) / a.ToDense().FrobeniusNorm()
	if rel > 1e-6 {
		t.Fatalf("rank-3 SVD relative error %g", rel)
	}
	// Singular values descending and positive.
	for i := 1; i < len(res.S); i++ {
		if res.S[i] > res.S[i-1]+1e-12 {
			t.Fatal("singular values not descending")
		}
	}
}

func TestSVDOrthonormalFactors(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(196))
	a := bmat.RandomDense(rng, 20, 16, 4)
	res, err := SVD(context.Background(), e, a, SVDOptions{Rank: 4, Oversample: 4, PowerIterations: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkOrtho(t, res.U.ToDense(), "U")
	checkOrtho(t, res.V.ToDense(), "V")
}

func checkOrtho(t *testing.T, q *matrix.Dense, name string) {
	t.Helper()
	r, c := q.Dims()
	for p := 0; p < c; p++ {
		for s := 0; s < c; s++ {
			var dot float64
			for i := 0; i < r; i++ {
				dot += q.At(i, p) * q.At(i, s)
			}
			want := 0.0
			if p == s {
				want = 1
			}
			if dot-want > 1e-6 || want-dot > 1e-6 {
				t.Fatalf("%sᵀ%s[%d,%d] = %g, want %g", name, name, p, s, dot, want)
			}
		}
	}
}

func TestSVDMatchesDominantEnergy(t *testing.T) {
	// On a random dense matrix, the truncated SVD's captured energy
	// Σσᵢ² must be ≤ ‖A‖F² and the leading σ₁ must be within a few percent
	// of the true spectral energy captured by a much larger sketch.
	e := testEngine(t)
	rng := rand.New(rand.NewSource(197))
	a := bmat.RandomDense(rng, 24, 24, 4)
	small, err := SVD(context.Background(), e, a, SVDOptions{Rank: 2, Oversample: 2, PowerIterations: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	big, err := SVD(context.Background(), e, a, SVDOptions{Rank: 2, Oversample: 20, PowerIterations: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if small.S[0] > big.S[0]*1.02+1e-9 {
		t.Fatalf("sketched σ1 %g exceeds refined %g", small.S[0], big.S[0])
	}
	if small.S[0] < big.S[0]*0.9 {
		t.Fatalf("sketched σ1 %g far below refined %g", small.S[0], big.S[0])
	}
	norm := a.ToDense().FrobeniusNorm()
	var energy float64
	for _, s := range small.S {
		energy += s * s
	}
	if energy > norm*norm*(1+1e-9) {
		t.Fatal("captured energy exceeds total")
	}
}

func TestSVDInvalidOptions(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(198))
	a := bmat.RandomDense(rng, 8, 8, 4)
	if _, err := SVD(context.Background(), e, a, SVDOptions{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := SVD(context.Background(), e, a, SVDOptions{Rank: 2, Oversample: -1}); err == nil {
		t.Fatal("negative oversample accepted")
	}
	if _, err := SVD(context.Background(), e, a, SVDOptions{Rank: 20}); err == nil {
		t.Fatal("rank beyond width accepted")
	}
}

func matrixMulDense(a, b *matrix.Dense) *matrix.Dense {
	m, _ := a.Dims()
	_, n := b.Dims()
	c := matrix.NewDense(m, n)
	matrix.Gemm(c, a, b)
	return c
}

func frobDiff(a, b *matrix.Dense) float64 {
	return matrix.Sub(a, b).FrobeniusNorm()
}
