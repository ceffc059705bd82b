package distme

import (
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/distnet"
	"distme/internal/engine"
)

// Typed error taxonomy. Every failure mode the engine can surface maps to
// one sentinel here, so callers branch with errors.Is instead of matching
// message strings:
//
//	c, _, err := eng.Run(ctx, expr, binds)
//	switch {
//	case errors.Is(err, distme.ErrTaskOOM):
//		// shrink the workload or raise θt
//	case errors.Is(err, distme.ErrCancelled):
//		// ctx was cancelled; err wraps ctx.Err()
//	case errors.Is(err, distme.ErrRetriesExhausted):
//		// a task kept failing past Config.TaskRetries
//	}
//
// The sentinels alias the internal packages' values, so errors created deep
// in the engine match them end-to-end through every layer of wrapping.
var (
	// ErrTaskOOM reports that a task's working set exceeded the per-task
	// memory budget θt — the paper's "O.O.M." outcome. Surfaced both by the
	// scheduler's admission check and by injected out-of-memory faults.
	ErrTaskOOM = cluster.ErrOutOfMemory

	// ErrNoFeasibleParams reports that no (P,Q,R) cuboid partitioning fits
	// the per-task memory budget for the given shape (Eq.(2) infeasible).
	ErrNoFeasibleParams = core.ErrInfeasible

	// ErrShapeMismatch reports non-conformable operands: inner dimensions
	// or block sizes that do not line up for the requested operation.
	ErrShapeMismatch = core.ErrShapeMismatch

	// ErrRetriesExhausted reports that a task failed on every attempt the
	// cluster's retry budget allowed (Config.TaskRetries); the final
	// attempt's error is wrapped alongside.
	ErrRetriesExhausted = cluster.ErrRetriesExhausted

	// ErrCancelled reports that the context passed to an engine operation
	// or a query was cancelled; the error wraps ctx.Err(), so errors.Is with
	// context.Canceled or context.DeadlineExceeded also matches.
	ErrCancelled = cluster.ErrCancelled

	// ErrEngineClosed reports an operation on an engine after Close.
	ErrEngineClosed = engine.ErrEngineClosed

	// ErrUnknownMethod reports a MulOptions.Method outside the defined set.
	ErrUnknownMethod = engine.ErrUnknownMethod

	// ErrExceededDisk reports intermediate data past the cluster's disk
	// capacity — the paper's "E.D.C." outcome.
	ErrExceededDisk = cluster.ErrExceededDisk

	// ErrTimeout names the paper's "T.O." outcome, a job past its time
	// budget. The engine sets no wall-clock budget of its own and never
	// returns it: bound a job with a context deadline, which surfaces as
	// ErrCancelled.
	ErrTimeout = cluster.ErrTimeout

	// ErrWorkerDead reports a real-network RPC that failed because the
	// remote worker's connection is broken (detected by the heartbeat
	// failure detector or a failed call on the distnet driver path).
	ErrWorkerDead = distnet.ErrWorkerDead

	// ErrDeadlineExceeded reports a real-network RPC abandoned past its
	// per-call deadline; errors carrying it also match
	// context.DeadlineExceeded.
	ErrDeadlineExceeded = distnet.ErrDeadlineExceeded

	// ErrNoWorkers reports a distnet driver whose live membership drained
	// to zero under work it cannot compute locally (a session operation, or
	// a pull multiply whose operand blocks the driver never held).
	ErrNoWorkers = distnet.ErrNoWorkers

	// ErrWorkerDraining reports an RPC refused by a worker that is
	// shutting down gracefully. The driver treats it as transient and
	// reassigns the work, so it surfaces only from direct calls against a
	// draining worker.
	ErrWorkerDraining = distnet.ErrWorkerDraining
)
