package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"distme/internal/cluster"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// Lineage recovery for the matrix-aggregation step. A task's partial output
// lives on its executor until the aggregation shuffle fetches it; when the
// configured fault injector fails those fetches, the executor retries, and
// after maxTransientFetches consecutive failures declares the partition lost
// and recomputes it from lineage — the task's voxels over the original A and
// B operands, exactly as Spark resubmits a lost stage from its RDD lineage.
// Recomputation is deterministic, so recovered runs stay bit-identical to
// failure-free ones.

// maxTransientFetches is how many consecutive fetch failures of one
// partition are treated as transient before the partition is declared lost.
const maxTransientFetches = 2

// simulateFetch models the aggregation-side fetch of one task's shuffle
// output. fail(attempt) reports whether fetch attempt `attempt` (0-based)
// fails; transient failures are retried up to maxTransient times, after
// which the partition is declared lost — the producing executor is gone and
// the partial must be recomputed from lineage, the way Spark resubmits the
// producing stage on repeated FetchFailed. The return reports how many
// retries were spent and whether the partition was lost.
func simulateFetch(fail func(attempt int) bool, maxTransient int) (retries int, lost bool) {
	for attempt := 0; fail(attempt); attempt++ {
		retries++
		if retries > maxTransient {
			return retries, true
		}
	}
	return retries, false
}

// recoverPartials re-fetches every task's partial ahead of aggregation,
// retrying transient shuffle-fetch failures and recomputing lost partials
// from lineage. A nil injector (no fault config) fetches nothing and returns
// immediately.
func recoverPartials(ctx context.Context, env Env, parent obs.SpanID, tasks []stepTask, partials [][]Partial) error {
	inj := env.Cluster.FaultInjector()
	if inj == nil || inj.Config().FetchFailRate <= 0 {
		return nil
	}
	rec := env.Cluster.Recorder()
	for idx := range tasks {
		t := &tasks[idx]
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", cluster.ErrCancelled, err)
		}
		retries, lost := simulateFetch(func(attempt int) bool {
			return inj.FetchFailed(t.name, attempt)
		}, maxTransientFetches)
		for i := 0; i < retries; i++ {
			atomic.AddInt64(&rec.Elastic.Live().FetchRetries, 1)
			atomic.AddInt64(&rec.Elastic.Live().FaultsInjected, 1)
		}
		if !lost {
			continue
		}
		releasePartials(partials[idx])
		partials[idx] = nil
		recomputeStart := time.Now()
		out, err := t.compute()
		if err != nil {
			return err
		}
		partials[idx] = out
		atomic.AddInt64(&rec.Elastic.Live().RecomputedPartials, 1)
		env.taskSpan(parent, "task.recompute", t, recomputeStart)
	}
	return nil
}

// releasePartials returns a discarded partial's pooled dense buffers.
func releasePartials(list []Partial) {
	for _, p := range list {
		matrix.PutDense(p.Block)
	}
}
