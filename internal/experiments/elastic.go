package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/engine"
	"distme/internal/plan"
	"distme/internal/storage"
)

// ExtElastic measures the recovery overhead of the elastic-execution
// subsystem: one workload multiplied failure-free and then under mixed
// injected faults (crashes, injected O.O.M., stragglers, shuffle-fetch
// failures) at 5% and 20% per-attempt rates. Each chaos row reports the
// retry/speculation/recomputation work spent and verifies the output is
// byte-identical to the failure-free run — elasticity must cost time, never
// correctness.
func ExtElastic(seed int64) (*Table, error) {
	t := &Table{
		ID:      "ext-elastic",
		Title:   "EXTENSION: fault-injected recovery overhead (measured)",
		Columns: []string{"fault rate", "elapsed", "retries", "speculative", "recomputed", "faults", "result"},
	}
	rng := rand.New(rand.NewSource(seed))
	const bs = 64
	a := bmat.RandomDense(rng, 16*bs, 12*bs, bs)
	b := bmat.RandomDense(rng, 12*bs, 16*bs, bs)

	run := func(f cluster.Faults) (*bmat.BlockMatrix, *engine.Report, error) {
		cfg := cluster.LaptopConfig()
		cfg.TaskMemBytes = 1 << 30
		cfg.DiskCapacityBytes = 0
		cfg.TaskRetries = 4
		cfg.RetryBackoff = time.Millisecond
		cfg.Speculation = true
		cfg.Faults = f
		e, err := engine.New(engine.Config{Cluster: cfg})
		if err != nil {
			return nil, nil, err
		}
		defer e.Close()
		return e.Run(context.Background(), plan.Mul(plan.V("a"), plan.V("b")),
			map[string]*bmat.BlockMatrix{"a": a, "b": b}, engine.WithMethod(engine.MethodAuto))
	}

	mixed := func(rate float64) cluster.Faults {
		return cluster.Faults{
			Seed:           seed,
			CrashRate:      rate,
			OOMRate:        rate / 2,
			StragglerRate:  rate,
			StragglerDelay: 5 * time.Millisecond,
			FetchFailRate:  rate,
		}
	}

	base, baseRep, err := run(cluster.Faults{})
	if err != nil {
		return nil, err
	}
	var want bytes.Buffer
	if err := storage.Write(&want, base); err != nil {
		return nil, err
	}
	t.AddRow("0% (baseline)", fmtDur(baseRep.Elapsed), 0, 0, 0, 0, "OK")

	for _, rate := range []float64{0.05, 0.20} {
		c, rep, err := run(mixed(rate))
		if err != nil {
			return nil, err
		}
		var got bytes.Buffer
		if err := storage.Write(&got, c); err != nil {
			return nil, err
		}
		result := "IDENTICAL"
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			result = "DIVERGED"
		}
		el := rep.Elastic
		t.AddRow(fmt.Sprintf("%.0f%% mixed", rate*100),
			fmtDur(rep.Elapsed),
			el.TaskRetries, el.SpeculativeLaunched, el.RecomputedPartials, el.FaultsInjected,
			result)
	}
	t.Notes = append(t.Notes,
		"mixed faults: crash+straggler+fetch at the stated per-attempt rate, injected O.O.M. at half of it",
		"result compares the storage-format bytes of the chaos run against the failure-free baseline")
	return t, nil
}

// fmtDur renders a duration with millisecond resolution for table rows.
func fmtDur(d time.Duration) string {
	return d.Round(100 * time.Microsecond).String()
}
