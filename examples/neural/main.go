// Neural: train a small multi-layer perceptron with every dense layer's
// forward and backward pass running as distributed multiplications — the
// "deep neural network" entry of the paper's §1 application list. The
// target is a noisy nonlinear function; watch the full-batch loss fall.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"runtime"

	"distme"
	"distme/internal/matrix"
	"distme/internal/metrics"
	"distme/internal/ml"
)

func main() {
	cfg := distme.LaptopCluster()
	cfg.LocalWorkers = runtime.GOMAXPROCS(0)
	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg})
	if err != nil {
		log.Fatal(err)
	}

	// Synthetic regression task: y = ‖relu(x)‖₁ + noise over 4 features.
	const samples, features = 256, 4
	rng := rand.New(rand.NewSource(42))
	xd := matrix.NewDense(samples, features)
	yd := matrix.NewDense(samples, 1)
	for i := 0; i < samples; i++ {
		var s float64
		for j := 0; j < features; j++ {
			v := rng.NormFloat64()
			xd.Set(i, j, v)
			if v > 0 {
				s += v
			}
		}
		yd.Set(i, 0, s+0.01*rng.NormFloat64())
	}
	x := distme.FromDense(xd, 32)
	y := distme.FromDense(yd, 32)

	res, err := ml.TrainMLP(context.Background(), eng, x, y, ml.MLPOptions{
		Hidden:       []int{16, 8},
		LearningRate: 0.02,
		Epochs:       150,
		Seed:         42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training a 4→16→8→1 ReLU network, full-batch gradient descent:")
	for i := 0; i < len(res.Losses); i += 25 {
		fmt.Printf("  epoch %3d: mse = %.5f\n", i+1, res.Losses[i])
	}
	fmt.Printf("  epoch %3d: mse = %.5f\n", len(res.Losses), res.Losses[len(res.Losses)-1])

	pred, err := ml.PredictMLP(context.Background(), eng, x, res.Weights)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsample predictions (y / ŷ): ")
	for i := 0; i < 4; i++ {
		fmt.Printf("%.2f/%.2f  ", y.At(i, 0), pred.At(i, 0))
	}
	fmt.Println()
	fmt.Printf("total shuffle across training: %s\n",
		metrics.FormatBytes(eng.Recorder().CommunicationBytes()))
}
