// Chaos: multiply under deterministic fault injection — seeded task
// crashes, injected O.O.M., stragglers with speculative rescue, and
// shuffle-fetch failures recovered by lineage recomputation — and verify
// the result is byte-identical to the failure-free run. Also demonstrates
// the typed-error API and context cancellation mid-retry.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"distme"
)

func main() {
	cfg := distme.LaptopCluster()
	cfg.LocalWorkers = runtime.GOMAXPROCS(0)
	cfg.TaskMemBytes = 1 << 30

	rng := rand.New(rand.NewSource(1))
	a := distme.RandomDense(rng, 1024, 768, 64)
	b := distme.RandomDense(rng, 768, 1024, 64)
	// Every engine below runs the same product over the same operands.
	product := distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b"))
	operands := map[string]*distme.Matrix{"a": a, "b": b}

	// Failure-free baseline fingerprint.
	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg})
	if err != nil {
		log.Fatal(err)
	}
	base, _, err := eng.Run(context.Background(), product, operands)
	if err != nil {
		log.Fatal(err)
	}
	eng.Close()
	var want bytes.Buffer
	if err := distme.SaveMatrix(&want, base); err != nil {
		log.Fatal(err)
	}

	// The same multiply under 20% mixed faults, with retries, speculation
	// and lineage recovery switched on.
	chaosCfg := cfg
	chaosCfg.TaskRetries = 4
	chaosCfg.RetryBackoff = time.Millisecond
	chaosCfg.Speculation = true
	chaosCfg.Faults = distme.Faults{
		Seed:           7,
		CrashRate:      0.2,
		OOMRate:        0.1,
		StragglerRate:  0.2,
		StragglerDelay: 10 * time.Millisecond,
		FetchFailRate:  0.2,
	}
	chaosEng, err := distme.NewEngine(distme.EngineConfig{Cluster: chaosCfg})
	if err != nil {
		log.Fatal(err)
	}
	defer chaosEng.Close()

	c, report, err := chaosEng.Run(context.Background(), product, operands)
	if err != nil {
		log.Fatal(err)
	}
	var got bytes.Buffer
	if err := distme.SaveMatrix(&got, c); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("chaos multiply: %s %v in %v\n", report.Method, report.Params, report.Elapsed.Round(time.Millisecond))
	fmt.Printf("  faults injected:     %d\n", report.Elastic.FaultsInjected)
	fmt.Printf("  task retries:        %d\n", report.Elastic.TaskRetries)
	fmt.Printf("  speculative copies:  %d launched, %d won\n",
		report.Elastic.SpeculativeLaunched, report.Elastic.SpeculativeWins)
	fmt.Printf("  fetch retries:       %d\n", report.Elastic.FetchRetries)
	fmt.Printf("  recomputed partials: %d\n", report.Elastic.RecomputedPartials)
	if bytes.Equal(got.Bytes(), want.Bytes()) {
		fmt.Println("  result: byte-identical to the failure-free run")
	} else {
		log.Fatal("  result: DIVERGED — this is a bug")
	}

	// Typed errors: crash every attempt and watch the retry budget exhaust.
	doomedCfg := cfg
	doomedCfg.TaskRetries = 2
	doomedCfg.RetryBackoff = time.Millisecond
	doomedCfg.Faults = distme.Faults{Seed: 1, CrashRate: 1, MaxFaultsPerTask: 100}
	doomed, err := distme.NewEngine(distme.EngineConfig{Cluster: doomedCfg})
	if err != nil {
		log.Fatal(err)
	}
	defer doomed.Close()
	_, _, err = doomed.Run(context.Background(), product, operands)
	switch {
	case errors.Is(err, distme.ErrRetriesExhausted):
		fmt.Printf("persistent crashes: retries exhausted as expected (%v)\n",
			errors.Is(err, distme.ErrRetriesExhausted))
	case err == nil:
		log.Fatal("crash-everything run unexpectedly succeeded")
	default:
		log.Fatalf("unexpected error class: %v", err)
	}

	// Context cancellation mid-retry: the engine aborts within one backoff
	// step and the error wraps both ErrCancelled and ctx.Err().
	cancelCfg := doomedCfg
	cancelCfg.TaskRetries = 100
	cancelCfg.RetryBackoff = 50 * time.Millisecond
	cancelEng, err := distme.NewEngine(distme.EngineConfig{Cluster: cancelCfg})
	if err != nil {
		log.Fatal(err)
	}
	defer cancelEng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = cancelEng.Run(ctx, product, operands)
	if errors.Is(err, distme.ErrCancelled) && errors.Is(err, context.DeadlineExceeded) {
		fmt.Printf("cancelled mid-retry after %v (typed ErrCancelled wrapping ctx.Err())\n",
			time.Since(start).Round(time.Millisecond))
	} else {
		log.Fatalf("expected ErrCancelled, got %v", err)
	}
}
