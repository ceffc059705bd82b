package ml

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// SVDOptions configures the randomized truncated SVD.
type SVDOptions struct {
	// Rank is the number of singular triplets to compute.
	Rank int
	// Oversample pads the sketch width (k + p columns; 5–10 typical).
	Oversample int
	// PowerIterations sharpens the sketch for slowly decaying spectra
	// (1–2 typical).
	PowerIterations int
	// Seed initializes the Gaussian test matrix.
	Seed int64
}

// SVDResult carries the truncated factorization A ≈ U·diag(S)·Vᵀ.
type SVDResult struct {
	// U is rows×rank with orthonormal columns.
	U *bmat.BlockMatrix
	// S holds the singular values, descending.
	S []float64
	// V is cols×rank with orthonormal columns.
	V *bmat.BlockMatrix
}

// SVD computes a randomized truncated singular value decomposition
// (Halko–Martinsson–Tropp) of a distributed matrix — the paper's §1 names
// SVD among the applications a matrix engine must serve. The big products
// (A·Ω, Aᵀ·Q and the power-iteration passes) run distributed through ops;
// the (k+p)-sized range finder, eigensolve and rotations run locally.
func SVD(ctx context.Context, ops Ops, a *bmat.BlockMatrix, opt SVDOptions) (*SVDResult, error) {
	if opt.Rank <= 0 {
		return nil, fmt.Errorf("ml: SVD: rank must be positive, got %d", opt.Rank)
	}
	if opt.Oversample < 0 {
		return nil, fmt.Errorf("ml: SVD: oversample must be non-negative, got %d", opt.Oversample)
	}
	sketch := opt.Rank + opt.Oversample
	if sketch > a.Cols {
		sketch = a.Cols
	}
	if opt.Rank > sketch {
		return nil, fmt.Errorf("ml: SVD: rank %d exceeds matrix width %d", opt.Rank, a.Cols)
	}

	// Sketch the range: Y = A·Ω with Gaussian Ω.
	rng := rand.New(rand.NewSource(opt.Seed))
	omega := gaussian(rng, a.Cols, sketch, a.BlockSize)
	y, err := ops.Multiply(ctx, a, omega)
	if err != nil {
		return nil, fmt.Errorf("ml: SVD: A·Ω: %w", err)
	}
	at, err := ops.Transpose(ctx, a)
	if err != nil {
		return nil, fmt.Errorf("ml: SVD: Aᵀ: %w", err)
	}
	// Power iterations: Y ← A·(Aᵀ·Y), re-orthonormalizing each pass.
	for it := 0; it < opt.PowerIterations; it++ {
		q := bmat.FromDense(matrix.GramSchmidtQR(y.ToDense()), a.BlockSize)
		z, err := ops.Multiply(ctx, at, q)
		if err != nil {
			return nil, fmt.Errorf("ml: SVD: power iteration %d: %w", it, err)
		}
		y, err = ops.Multiply(ctx, a, z)
		if err != nil {
			return nil, fmt.Errorf("ml: SVD: power iteration %d: %w", it, err)
		}
	}

	// Range basis Q (rows×sketch) and the small projection B = Qᵀ·A, taken
	// as Bᵀ = Aᵀ·Q to keep the distributed product tall-thin.
	qd := matrix.GramSchmidtQR(y.ToDense())
	q := bmat.FromDense(qd, a.BlockSize)
	bt, err := ops.Multiply(ctx, at, q) // cols×sketch
	if err != nil {
		return nil, fmt.Errorf("ml: SVD: Aᵀ·Q: %w", err)
	}

	// SVD of the small projection B = Qᵀ·A via the eigendecomposition of
	// the sketch×sketch Gram G = B·Bᵀ = (Bᵀ)ᵀ·(Bᵀ).
	btd := bt.ToDense()
	sk := btd.ColsN
	gram := matrix.NewDense(sk, sk)
	matrix.Gemm(gram, btd.Transpose(), btd)
	vals, vecs, err := matrix.JacobiEigen(gram, 0)
	if err != nil {
		return nil, fmt.Errorf("ml: SVD: eigensolve: %w", err)
	}

	k := opt.Rank
	res := &SVDResult{S: make([]float64, k)}
	// Singular values σᵢ = sqrt(λᵢ); U = Q·W; V = Bᵀ·W·Σ⁻¹.
	w := matrix.NewDense(sk, k)
	for j := 0; j < k; j++ {
		lam := vals[j]
		if lam < 0 {
			lam = 0
		}
		res.S[j] = math.Sqrt(lam)
		for i := 0; i < sk; i++ {
			w.Set(i, j, vecs.At(i, j))
		}
	}
	ud := matrix.NewDense(qd.RowsN, k)
	matrix.Gemm(ud, qd, w)
	res.U = bmat.FromDense(ud, a.BlockSize)

	vd := matrix.NewDense(btd.RowsN, k)
	matrix.Gemm(vd, btd, w)
	for j := 0; j < k; j++ {
		if res.S[j] > 1e-12 {
			inv := 1 / res.S[j]
			for i := 0; i < vd.RowsN; i++ {
				vd.Set(i, j, vd.At(i, j)*inv)
			}
		}
	}
	res.V = bmat.FromDense(vd, a.BlockSize)
	return res, nil
}

// gaussian builds a rows×cols block matrix of N(0,1) entries.
func gaussian(rng *rand.Rand, rows, cols, blockSize int) *bmat.BlockMatrix {
	d := matrix.NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return bmat.FromDense(d, blockSize)
}
