package engine

import (
	"context"
	"fmt"
	"sync"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/matrix"
)

// The non-multiply operators. Cancelling ctx aborts the cluster run between
// task attempts with an error wrapping both cluster.ErrCancelled and
// ctx.Err(). Together with Multiply they are the operator set ml.Ops asks
// for, and the per-node steps Run applies to a compiled expression.

// Transpose computes Aᵀ as a distributed map + re-key over blocks (the
// paper implements this as an RDD transformation). Layout tracking follows:
// a row-partitioned matrix becomes column-partitioned and vice versa.
func (e *Engine) Transpose(ctx context.Context, a *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	out := bmat.New(a.Cols, a.Rows, a.BlockSize)
	var mu sync.Mutex
	err := e.blockTasks(ctx, "transpose", a, func(k bmat.BlockKey, blk matrix.Block) error {
		tr := matrix.Transpose(blk)
		mu.Lock()
		out.SetBlock(k.J, k.I, tr)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if e.cfg.TrackLayouts {
		e.mu.Lock()
		if l, ok := e.layouts[a]; ok && !e.closed {
			switch l.kind {
			case "row":
				e.setLayoutLocked(out, layoutTag{kind: "col", p: l.p})
			case "col":
				e.setLayoutLocked(out, layoutTag{kind: "row", p: l.p})
			}
		}
		e.mu.Unlock()
	}
	return out, nil
}

// Add computes A+B block-parallel.
func (e *Engine) Add(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	return e.zip(ctx, "add", a, b, func(x, y matrix.Block) matrix.Block {
		switch {
		case x == nil:
			return y.Dense()
		case y == nil:
			return x.Dense()
		default:
			return matrix.Add(x, y)
		}
	})
}

// Sub computes A−B block-parallel.
func (e *Engine) Sub(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	return e.zip(ctx, "sub", a, b, func(x, y matrix.Block) matrix.Block {
		switch {
		case x == nil:
			return matrix.Scale(-1, y)
		case y == nil:
			return x.Dense()
		default:
			return matrix.Sub(x, y)
		}
	})
}

// Hadamard computes the element-wise product A∘B block-parallel.
func (e *Engine) Hadamard(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	return e.zip(ctx, "hadamard", a, b, func(x, y matrix.Block) matrix.Block {
		if x == nil || y == nil {
			return nil
		}
		return matrix.Hadamard(x, y)
	})
}

// DivElem computes A⊘B element-wise with an epsilon guard,
// block-parallel. Block positions present in A but missing in B divide by
// the guard.
func (e *Engine) DivElem(ctx context.Context, a, b *bmat.BlockMatrix, eps float64) (*bmat.BlockMatrix, error) {
	return e.zip(ctx, "divelem", a, b, func(x, y matrix.Block) matrix.Block {
		if x == nil {
			return nil
		}
		if y == nil {
			r, c := x.Dims()
			y = matrix.NewDense(r, c)
		}
		return matrix.DivElem(x, y, eps)
	})
}

// Scale computes s·A block-parallel.
func (e *Engine) Scale(ctx context.Context, s float64, a *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	out := bmat.New(a.Rows, a.Cols, a.BlockSize)
	var mu sync.Mutex
	err := e.blockTasks(ctx, "scale", a, func(k bmat.BlockKey, blk matrix.Block) error {
		sc := matrix.Scale(s, blk)
		mu.Lock()
		out.SetBlock(k.I, k.J, sc)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// blockTasks fans one function out over a matrix's stored blocks as cluster
// tasks, one task per block group, bounded by cluster slots.
func (e *Engine) blockTasks(ctx context.Context, name string, a *bmat.BlockMatrix, f func(bmat.BlockKey, matrix.Block) error) error {
	if err := e.checkOpen(); err != nil {
		return err
	}
	keys := a.Keys()
	slots := e.cfg.Cluster.Slots()
	groups := make([][]bmat.BlockKey, slots)
	for i, k := range keys {
		groups[i%slots] = append(groups[i%slots], k)
	}
	var tasks []cluster.Task
	for g, ks := range groups {
		if len(ks) == 0 {
			continue
		}
		ks := ks
		var mem int64
		for _, k := range ks {
			mem += a.Block(k.I, k.J).SizeBytes()
		}
		tasks = append(tasks, cluster.Task{
			Name:        fmt.Sprintf("%s(%d)", name, g),
			MemEstimate: mem,
			Fn: func() error {
				for _, k := range ks {
					if err := f(k, a.Block(k.I, k.J)); err != nil {
						return err
					}
				}
				return nil
			},
		})
	}
	return e.cluster.Run(ctx, tasks)
}

// zip fans a two-operand block function over the union of block positions.
func (e *Engine) zip(ctx context.Context, name string, a, b *bmat.BlockMatrix, f func(x, y matrix.Block) matrix.Block) (*bmat.BlockMatrix, error) {
	if err := e.checkOpen(); err != nil {
		return nil, err
	}
	if a.Rows != b.Rows || a.Cols != b.Cols || a.BlockSize != b.BlockSize {
		return nil, fmt.Errorf("engine: %s: %w: %dx%d/b=%d vs %dx%d/b=%d",
			name, core.ErrShapeMismatch, a.Rows, a.Cols, a.BlockSize, b.Rows, b.Cols, b.BlockSize)
	}
	seen := make(map[bmat.BlockKey]bool)
	var keys []bmat.BlockKey
	for _, k := range a.Keys() {
		seen[k] = true
		keys = append(keys, k)
	}
	for _, k := range b.Keys() {
		if !seen[k] {
			keys = append(keys, k)
		}
	}

	out := bmat.New(a.Rows, a.Cols, a.BlockSize)
	slots := e.cfg.Cluster.Slots()
	groups := make([][]bmat.BlockKey, slots)
	for i, k := range keys {
		groups[i%slots] = append(groups[i%slots], k)
	}
	var mu sync.Mutex
	var tasks []cluster.Task
	for g, ks := range groups {
		if len(ks) == 0 {
			continue
		}
		ks := ks
		var mem int64
		for _, k := range ks {
			if x := a.Block(k.I, k.J); x != nil {
				mem += x.SizeBytes()
			}
			if y := b.Block(k.I, k.J); y != nil {
				mem += y.SizeBytes()
			}
		}
		tasks = append(tasks, cluster.Task{
			Name:        fmt.Sprintf("%s(%d)", name, g),
			MemEstimate: mem,
			Fn: func() error {
				for _, k := range ks {
					res := f(a.Block(k.I, k.J), b.Block(k.I, k.J))
					if res == nil {
						continue
					}
					mu.Lock()
					out.SetBlock(k.I, k.J, res)
					mu.Unlock()
				}
				return nil
			},
		})
	}
	if err := e.cluster.Run(ctx, tasks); err != nil {
		return nil, err
	}
	return out, nil
}
