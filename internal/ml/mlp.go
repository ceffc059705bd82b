package ml

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// MLPOptions configures a small multi-layer perceptron trained with
// full-batch gradient descent — the "deep neural network" entry of the
// paper's §1 application list, with every dense layer's forward and
// backward pass running as distributed multiplications on the engine.
type MLPOptions struct {
	// Hidden lists the hidden-layer widths, e.g. {64, 32}.
	Hidden []int
	// LearningRate is the gradient-descent step size.
	LearningRate float64
	// Epochs is the number of full-batch passes.
	Epochs int
	// Seed initializes the weights.
	Seed int64
}

// MLPResult carries the trained weights and the loss trajectory.
type MLPResult struct {
	// Weights[l] is the layer-l weight matrix (in×out).
	Weights []*bmat.BlockMatrix
	// Losses is the mean squared error after each epoch.
	Losses []float64
}

// TrainMLP fits Y ≈ f(X) with ReLU hidden layers and a linear output by
// full-batch gradient descent. X is samples×features, Y is samples×outputs.
// The big products — X·W, δ·Wᵀ, Hᵀ·δ — all go through ops; only the
// element-wise activation and its mask run block-locally.
func TrainMLP(ctx context.Context, ops Ops, x, y *bmat.BlockMatrix, opt MLPOptions) (*MLPResult, error) {
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("ml: TrainMLP: X has %d samples, Y has %d", x.Rows, y.Rows)
	}
	if x.BlockSize != y.BlockSize {
		return nil, fmt.Errorf("ml: TrainMLP: block sizes differ")
	}
	if opt.Epochs <= 0 {
		return nil, fmt.Errorf("ml: TrainMLP: epochs must be positive, got %d", opt.Epochs)
	}
	if opt.LearningRate <= 0 {
		return nil, fmt.Errorf("ml: TrainMLP: learning rate must be positive, got %g", opt.LearningRate)
	}

	// Layer dimensions: features → hidden… → outputs.
	dims := append([]int{x.Cols}, opt.Hidden...)
	dims = append(dims, y.Cols)
	rng := rand.New(rand.NewSource(opt.Seed))
	weights := make([]*bmat.BlockMatrix, len(dims)-1)
	for l := range weights {
		// He-style scaling keeps ReLU activations in range.
		scale := math.Sqrt(2 / float64(dims[l]))
		d := matrix.NewDense(dims[l], dims[l+1])
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64() * scale
		}
		weights[l] = bmat.FromDense(d, x.BlockSize)
	}

	n := float64(x.Rows)
	res := &MLPResult{}
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		// ---- Forward ----
		acts := make([]*bmat.BlockMatrix, len(weights)+1)
		acts[0] = x
		for l, w := range weights {
			z, err := ops.Multiply(ctx, acts[l], w)
			if err != nil {
				return nil, fmt.Errorf("ml: TrainMLP epoch %d layer %d forward: %w", epoch, l, err)
			}
			if l < len(weights)-1 {
				z = applyElement(z, relu)
			}
			acts[l+1] = z
		}

		// ---- Loss: MSE over all outputs ----
		diff := bmat.Sub(acts[len(acts)-1], y)
		f := diff.FrobeniusNorm()
		res.Losses = append(res.Losses, f*f/(n*float64(y.Cols)))

		// ---- Backward ----
		// δ_out = 2(ŷ − y)/n
		delta := diff.Scale(2 / n)
		for l := len(weights) - 1; l >= 0; l-- {
			at, err := ops.Transpose(ctx, acts[l])
			if err != nil {
				return nil, fmt.Errorf("ml: TrainMLP epoch %d layer %d Aᵀ: %w", epoch, l, err)
			}
			grad, err := ops.Multiply(ctx, at, delta)
			if err != nil {
				return nil, fmt.Errorf("ml: TrainMLP epoch %d layer %d grad: %w", epoch, l, err)
			}
			if l > 0 {
				wt, err := ops.Transpose(ctx, weights[l])
				if err != nil {
					return nil, fmt.Errorf("ml: TrainMLP epoch %d layer %d Wᵀ: %w", epoch, l, err)
				}
				back, err := ops.Multiply(ctx, delta, wt)
				if err != nil {
					return nil, fmt.Errorf("ml: TrainMLP epoch %d layer %d backprop: %w", epoch, l, err)
				}
				// Gate by the ReLU mask of the layer's activation.
				mask := applyElement(acts[l], reluMask)
				delta, err = ops.Hadamard(ctx, back, mask)
				if err != nil {
					return nil, fmt.Errorf("ml: TrainMLP epoch %d layer %d mask: %w", epoch, l, err)
				}
			}
			weights[l] = bmat.Sub(weights[l], grad.Scale(opt.LearningRate))
		}
	}
	res.Weights = weights
	return res, nil
}

// PredictMLP runs the trained network forward.
func PredictMLP(ctx context.Context, ops Ops, x *bmat.BlockMatrix, weights []*bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	act := x
	var err error
	for l, w := range weights {
		act, err = ops.Multiply(ctx, act, w)
		if err != nil {
			return nil, fmt.Errorf("ml: PredictMLP layer %d: %w", l, err)
		}
		if l < len(weights)-1 {
			act = applyElement(act, relu)
		}
	}
	return act, nil
}

func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

func reluMask(v float64) float64 {
	if v > 0 {
		return 1
	}
	return 0
}

// applyElement maps f over every element, block-locally.
func applyElement(m *bmat.BlockMatrix, f func(float64) float64) *bmat.BlockMatrix {
	out := bmat.New(m.Rows, m.Cols, m.BlockSize)
	for _, key := range m.Keys() {
		blk := m.Block(key.I, key.J)
		d, ok := blk.(*matrix.Dense)
		if !ok {
			d = blk.Dense()
		} else {
			d = d.Clone()
		}
		nonzero := false
		for i, v := range d.Data {
			d.Data[i] = f(v)
			nonzero = nonzero || d.Data[i] != 0
		}
		if nonzero {
			out.SetBlock(key.I, key.J, d)
		}
	}
	return out
}
