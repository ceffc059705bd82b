package engine

import (
	"fmt"
	"strings"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/metrics"
)

// Explanation describes what a multiplication WOULD do, without running it:
// the strategy, the chosen parameters, and the Table 2 predictions for
// communication and per-task memory — the engine's EXPLAIN.
type Explanation struct {
	// Method is the strategy that would run.
	Method Method
	// Params is the (P,Q,R) partitioning (zero for RMM).
	Params core.Params
	// Tasks is the task count of the local multiplication step.
	Tasks int
	// RepartitionBytes and AggregationBytes are the Eq.(4) predictions.
	RepartitionBytes, AggregationBytes int64
	// MemPerTaskBytes is the Eq.(3) prediction.
	MemPerTaskBytes int64
	// TaskMemBytes is the budget θt it is checked against.
	TaskMemBytes int64
}

// Explain computes the plan for A×B under the given options without
// executing anything. It resolves the method's parameters and RMM's task
// count as Run does, and rejects the parameters Run would reject.
func (e *Engine) Explain(a, b *bmat.BlockMatrix, opts MulOptions) (*Explanation, error) {
	s := core.ShapeOf(a, b)
	ex := &Explanation{Method: opts.Method, TaskMemBytes: e.cfg.Cluster.TaskMemBytes}
	if opts.Method == MethodRMM {
		// Voxel-streamed: MemPerTaskBytes stays zero.
		ex.Tasks = rmmTasks(opts, s)
		ex.RepartitionBytes = int64(s.J)*s.ABytes + int64(s.I)*s.BBytes
		ex.AggregationBytes = int64(s.K) * s.CBytes
		return ex, nil
	}
	params, err := e.chooseParams(s, opts, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("engine: Explain: %w", err)
	}
	if err := params.Check(s.I, s.J, s.K); err != nil {
		return nil, err
	}
	ex.Params = params
	ex.Tasks = params.Tasks()
	ex.RepartitionBytes = int64(float64(params.Q)*float64(s.ABytes) + float64(params.P)*float64(s.BBytes))
	ex.MemPerTaskBytes = int64(s.MemBytes(params))
	if params.R > 1 {
		ex.AggregationBytes = int64(params.R) * s.CBytes
	}
	return ex, nil
}

// String renders the explanation like a query plan.
func (x *Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "multiply via %v", x.Method)
	if x.Params != (core.Params{}) {
		fmt.Fprintf(&sb, " %v", x.Params)
	}
	fmt.Fprintf(&sb, "\n  tasks:        %d\n", x.Tasks)
	fmt.Fprintf(&sb, "  repartition:  %s (Q·|A| + P·|B|)\n", metrics.FormatBytes(x.RepartitionBytes))
	fmt.Fprintf(&sb, "  aggregation:  %s (R·|C|)\n", metrics.FormatBytes(x.AggregationBytes))
	fmt.Fprintf(&sb, "  mem/task:     %s of θt=%s\n",
		metrics.FormatBytes(x.MemPerTaskBytes), metrics.FormatBytes(x.TaskMemBytes))
	return sb.String()
}
