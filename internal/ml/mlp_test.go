package ml

import (
	"context"
	"math/rand"
	"testing"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

func TestMLPLossDecreases(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(210))
	x := bmat.RandomDense(rng, 32, 8, 8)
	y := bmat.RandomDense(rng, 32, 2, 8)
	res, err := TrainMLP(context.Background(), e, x, y, MLPOptions{
		Hidden: []int{16}, LearningRate: 0.05, Epochs: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 20 {
		t.Fatalf("tracked %d losses", len(res.Losses))
	}
	if last, first := res.Losses[19], res.Losses[0]; last >= first {
		t.Fatalf("loss did not decrease: %g → %g", first, last)
	}
}

func TestMLPLearnsLinearMap(t *testing.T) {
	// With no hidden layers the network is linear regression and must fit
	// an exactly linear target to near-zero loss.
	e := testEngine(t)
	rng := rand.New(rand.NewSource(211))
	x := bmat.RandomDense(rng, 40, 4, 8)
	wTrue := bmat.RandomDense(rng, 4, 2, 8)
	y, err := e.Multiply(context.Background(), x, wTrue)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainMLP(context.Background(), e, x, y, MLPOptions{LearningRate: 0.05, Epochs: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if final := res.Losses[len(res.Losses)-1]; final > 1e-3 {
		t.Fatalf("linear target not fit: final loss %g", final)
	}
	// Prediction path agrees with the training-time forward pass.
	pred, err := PredictMLP(context.Background(), e, x, res.Weights)
	if err != nil {
		t.Fatal(err)
	}
	rel := bmat.Sub(pred, y).FrobeniusNorm() / y.FrobeniusNorm()
	if rel > 0.05 {
		t.Fatalf("prediction relative error %g", rel)
	}
}

func TestMLPDeepLearnsNonlinear(t *testing.T) {
	// y = relu(x)·1 is nonlinear; a hidden layer should fit it much better
	// than the best epoch-0 guess.
	e := testEngine(t)
	rng := rand.New(rand.NewSource(212))
	xd := matrix.NewDense(48, 3)
	for i := range xd.Data {
		xd.Data[i] = rng.NormFloat64()
	}
	yd := matrix.NewDense(48, 1)
	for i := 0; i < 48; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			s += relu(xd.At(i, j))
		}
		yd.Set(i, 0, s)
	}
	x := bmat.FromDense(xd, 8)
	y := bmat.FromDense(yd, 8)
	res, err := TrainMLP(context.Background(), e, x, y, MLPOptions{
		Hidden: []int{12}, LearningRate: 0.03, Epochs: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Losses[len(res.Losses)-1] > res.Losses[0]*0.2 {
		t.Fatalf("deep net barely learned: %g → %g", res.Losses[0], res.Losses[len(res.Losses)-1])
	}
}

func TestMLPDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	x := bmat.RandomDense(rng, 16, 4, 4)
	y := bmat.RandomDense(rng, 16, 1, 4)
	opt := MLPOptions{Hidden: []int{8}, LearningRate: 0.05, Epochs: 3, Seed: 9}
	r1, err := TrainMLP(context.Background(), testEngine(t), x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := TrainMLP(context.Background(), testEngine(t), x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	for l := range r1.Weights {
		if !r1.Weights[l].ToDense().Equal(r2.Weights[l].ToDense()) {
			t.Fatalf("layer %d weights diverge across identical runs", l)
		}
	}
}

func TestMLPInvalidOptions(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(214))
	x := bmat.RandomDense(rng, 8, 2, 4)
	y := bmat.RandomDense(rng, 8, 1, 4)
	if _, err := TrainMLP(context.Background(), e, x, y, MLPOptions{LearningRate: 0.1}); err == nil {
		t.Fatal("0 epochs accepted")
	}
	if _, err := TrainMLP(context.Background(), e, x, y, MLPOptions{Epochs: 1}); err == nil {
		t.Fatal("0 learning rate accepted")
	}
	bad := bmat.RandomDense(rng, 6, 1, 4)
	if _, err := TrainMLP(context.Background(), e, x, bad, MLPOptions{Epochs: 1, LearningRate: 0.1}); err == nil {
		t.Fatal("sample-count mismatch accepted")
	}
}
