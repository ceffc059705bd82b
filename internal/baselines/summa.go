// Package baselines implements the non-Spark comparison systems of §6.5 and
// §7: SUMMA (the distributed multiplication algorithm inside ScaLAPACK's
// PDGEMM), a SciDB-style wrapper that repartitions inputs before delegating
// to SUMMA, and CRMM (Marlin's logical-block variant of RMM). All run on the
// same cluster substrate with the same accounting, so Table 5's comparison
// is apples to apples.
package baselines

import (
	"context"
	"fmt"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/metrics"
)

// MultiplySUMMA runs the Scalable Universal Matrix Multiplication Algorithm
// (van de Geijn & Watts 1997) on a gridP×gridQ process grid: C is tiled over
// the grid and stays in place; for each k-panel, A's panel is broadcast
// along grid rows (Q copies) and B's along grid columns (P copies). In the
// paper's terms this is a (P,Q,R)-partitioning with R = 1 and the panel
// stream replacing the k-axis split (§7), with one crucial difference that
// Table 5 exposes: each process holds its entire local A, B and C as single
// arrays, so per-process memory is (|A|+|B|+|C|)/(P·Q) regardless of K —
// which out-of-memories on output-heavy shapes where DistME's cuboids
// survive.
func MultiplySUMMA(ctx context.Context, a, b *bmat.BlockMatrix, gridP, gridQ int, env core.Env) (*bmat.BlockMatrix, error) {
	if err := core.CheckConformable(a.Rows, a.Cols, a.BlockSize, b.Rows, b.Cols, b.BlockSize); err != nil {
		return nil, fmt.Errorf("baselines: SUMMA: %w", err)
	}
	if gridP <= 0 || gridQ <= 0 {
		return nil, fmt.Errorf("baselines: SUMMA: grid %dx%d must be positive", gridP, gridQ)
	}
	if gridP > a.IB {
		gridP = a.IB
	}
	if gridQ > b.JB {
		gridQ = b.JB
	}
	rec := env.Cluster.Recorder()

	// ---- Repartition: panel broadcasts ---------------------------------
	// Each A block travels to the Q processes of its grid row, each B block
	// to the P processes of its grid column: Q·|A| + P·|B|.
	start := time.Now()
	repart := int64(gridQ)*a.StoredBytes() + int64(gridP)*b.StoredBytes()
	rec.AddBytes(metrics.StepRepartition, repart)
	if err := env.Cluster.ChargeSpill(repart); err != nil {
		return nil, err
	}
	rec.AddDuration(metrics.StepRepartition, time.Since(start))

	// ---- Local multiplication: one task per process --------------------
	// The whole local C array lives in process memory for the whole run —
	// ScaLAPACK's single-array locals (§6.5).
	start = time.Now()
	out := bmat.New(a.Rows, b.Cols, a.BlockSize)
	results := make([][]core.Partial, gridP*gridQ)
	var tasks []cluster.Task
	core.ForEachCuboid(core.Params{P: gridP, Q: gridQ, R: 1}, a.IB, b.JB, a.JB, func(p, q, _ int, box core.Box) {
		idx := len(tasks)
		// Single-array memory: full local shares of A, B and C.
		mem := a.StoredBytes()/int64(gridP) + b.StoredBytes()/int64(gridQ) +
			tileDenseBytes(a, b, box.ILo, box.IHi, box.JLo, box.JHi)
		tasks = append(tasks, cluster.Task{
			Name:        fmt.Sprintf("summa(%d,%d)", p, q),
			MemEstimate: mem,
			Fn: func() error {
				// The panel stream over the whole k range: the kernel DistME's
				// own cuboids run.
				tiles, _ := core.MultiplyBox(box, a.Block, b.Block, nil)
				results[idx] = box.Partials(tiles)
				return nil
			},
		})
	})
	if err := env.Cluster.Run(ctx, tasks); err != nil {
		return nil, err
	}
	rec.AddDuration(metrics.StepLocalMultiply, time.Since(start))

	// ---- No aggregation: C tiles are final -----------------------------
	core.FoldPartials(out, results, nil)
	return out, nil
}

func tileDenseBytes(a, b *bmat.BlockMatrix, ilo, ihi, jlo, jhi int) int64 {
	var n int64
	for i := ilo; i < ihi; i++ {
		r, _ := a.BlockDims(i, 0)
		for j := jlo; j < jhi; j++ {
			_, c := b.BlockDims(0, j)
			n += int64(r) * int64(c) * 8
		}
	}
	return n
}

// MultiplySciDB models SciDB's linear-algebra operator, which wraps
// ScaLAPACK: the inputs must first be repartitioned from the array store
// into ScaLAPACK's layout (an extra |A| + |B| shuffle, §7), then SUMMA runs.
func MultiplySciDB(ctx context.Context, a, b *bmat.BlockMatrix, gridP, gridQ int, env core.Env) (*bmat.BlockMatrix, error) {
	rec := env.Cluster.Recorder()
	pre := a.StoredBytes() + b.StoredBytes()
	rec.AddBytes(metrics.StepRepartition, pre)
	if err := env.Cluster.ChargeSpill(pre); err != nil {
		return nil, err
	}
	return MultiplySUMMA(ctx, a, b, gridP, gridQ, env)
}

// MultiplyCRMM runs Marlin's CRMM: physical blocks are first shuffled into
// larger cube-shaped logical blocks (side g on every axis), then RMM runs on
// the logical grid. The cube constraint is the method's limitation the paper
// notes (§7): cuboids can flatten along the cheap axes, cubes cannot. The
// regrouping shuffle itself costs |A| + |B|.
func MultiplyCRMM(ctx context.Context, a, b *bmat.BlockMatrix, env core.Env) (*bmat.BlockMatrix, error) {
	if err := core.CheckConformable(a.Rows, a.Cols, a.BlockSize, b.Rows, b.Cols, b.BlockSize); err != nil {
		return nil, fmt.Errorf("baselines: CRMM: %w", err)
	}
	s := core.ShapeOf(a, b)
	θ := env.Cluster.Config().TaskMemBytes

	// Pick the largest cube side g (in physical blocks) whose logical-voxel
	// working set fits θt. Logical grid: ceil(I/g) × ceil(J/g) × ceil(K/g).
	g := 0
	maxG := maxInt(s.I, maxInt(s.J, s.K))
	for cand := 1; cand <= maxG; cand++ {
		p := core.Params{P: ceilDiv(s.I, cand), Q: ceilDiv(s.J, cand), R: ceilDiv(s.K, cand)}
		if s.MemBytes(p) <= float64(θ) {
			g = cand
		} else {
			break
		}
	}
	if g == 0 {
		return nil, fmt.Errorf("%w: CRMM logical blocks cannot fit θt=%d", core.ErrInfeasible, θ)
	}
	params := core.Params{P: ceilDiv(s.I, g), Q: ceilDiv(s.J, g), R: ceilDiv(s.K, g)}

	// Regrouping shuffle: every physical block moves once.
	rec := env.Cluster.Recorder()
	regroup := a.StoredBytes() + b.StoredBytes()
	rec.AddBytes(metrics.StepRepartition, regroup)
	if err := env.Cluster.ChargeSpill(regroup); err != nil {
		return nil, err
	}
	return core.MultiplyCuboid(ctx, a, b, params, env)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
