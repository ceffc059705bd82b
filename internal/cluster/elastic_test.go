package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func elasticConfig() Config {
	cfg := LaptopConfig()
	cfg.LocalWorkers = 4
	return cfg
}

// TestInjectedCrashesAreRetriedToSuccess runs tasks under a heavy crash
// rate with a retry budget past the fault bound: every task must converge,
// each exactly once, and the recorder must count the retries.
func TestInjectedCrashesAreRetriedToSuccess(t *testing.T) {
	cfg := elasticConfig()
	cfg.TaskRetries = 4 // > MaxFaultsPerTask (3) → guaranteed convergence
	cfg.Faults = Faults{Seed: 11, CrashRate: 0.6}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var runs [16]int32
	tasks := make([]Task, len(runs))
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Name: "chaos-task-" + string(rune('a'+i)),
			Fn:   func() error { atomic.AddInt32(&runs[i], 1); return nil },
		}
	}
	if err := c.Run(context.Background(), tasks); err != nil {
		t.Fatalf("run failed despite sufficient retry budget: %v", err)
	}
	for i, n := range runs {
		if n != 1 {
			t.Fatalf("task %d body ran %d times; crashes fire before the body, so exactly 1 expected", i, n)
		}
	}
	el := c.Recorder().Elastic.Load()
	if el.FaultsInjected == 0 {
		t.Fatal("crash rate 0.6 over 16 tasks should have injected at least one fault")
	}
	if el.TaskRetries == 0 {
		t.Fatal("injected crashes should have consumed retries")
	}
	if el.TaskRetries > int64(len(tasks)*3) {
		t.Fatalf("retries %d exceed the per-task fault bound × tasks", el.TaskRetries)
	}
}

// TestRetriesExhaustedSentinel checks that a persistently failing task
// surfaces ErrRetriesExhausted wrapping the last attempt error.
func TestRetriesExhaustedSentinel(t *testing.T) {
	cfg := elasticConfig()
	cfg.TaskRetries = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = c.Run(context.Background(), []Task{{Name: "doomed", Fn: func() error { return boom }}})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("want ErrRetriesExhausted, got %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("exhaustion error should wrap the last attempt error, got %v", err)
	}
}

// TestSpeculationRescuesStragglers injects long straggler delays on a
// minority of tasks and checks that speculative copies finish the wave far
// sooner than the injected delay, with speculation counted in the metrics.
func TestSpeculationRescuesStragglers(t *testing.T) {
	cfg := elasticConfig()
	cfg.LocalWorkers = 8
	cfg.Speculation = true
	cfg.Faults = Faults{
		Seed: 21,
		// Few enough stragglers (2 of 24 at this seed) that 75 % of the
		// wave completes while they sleep and speculation can start.
		StragglerRate:  0.1,
		StragglerDelay: 3 * time.Second,
		// One fault per task: the speculative copy runs attempt 1, which
		// never straggles, so it wins quickly.
		MaxFaultsPerTask: 1,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, 24)
	for i := range tasks {
		tasks[i] = Task{
			Name: "wave-" + string(rune('a'+i)),
			Fn: func() error {
				time.Sleep(time.Millisecond)
				return nil
			},
		}
	}
	start := time.Now()
	if err := c.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	el := c.Recorder().Elastic.Load()
	if el.SpeculativeLaunched == 0 {
		t.Fatal("straggler rate 0.1 over 24 tasks should have launched speculative copies")
	}
	if el.SpeculativeWins == 0 {
		t.Fatal("speculative copies of 3s stragglers should have won")
	}
	if elapsed >= cfg.Faults.StragglerDelay {
		t.Fatalf("wave took %v; speculation should beat the %v straggler delay",
			elapsed, cfg.Faults.StragglerDelay)
	}
}

// TestCancelDuringBackoffIsPrompt cancels a job while its only task waits
// out a long retry backoff; Run must return well before the backoff
// expires, with an error matching both ErrCancelled and context.Canceled.
func TestCancelDuringBackoffIsPrompt(t *testing.T) {
	cfg := elasticConfig()
	cfg.TaskRetries = 3
	cfg.RetryBackoff = 2 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	err = c.Run(ctx, []Task{{Name: "flaky", Fn: func() error { return errors.New("flake") }}})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation should wrap ctx.Err(), got %v", err)
	}
	if elapsed >= cfg.RetryBackoff {
		t.Fatalf("cancel took %v, should abort within one backoff step (%v)", elapsed, cfg.RetryBackoff)
	}
}

// TestPreCancelledContext checks Run fails immediately without running
// any task when handed an already-cancelled context.
func TestPreCancelledContext(t *testing.T) {
	c, err := New(elasticConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err = c.Run(ctx, []Task{{Name: "t", Fn: func() error { ran = true; return nil }}})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if ran {
		t.Fatal("no task should run under a pre-cancelled context")
	}
}

// TestGenuineOOMIsNotRetried: a θt violation is structural, so it must fail
// before any attempt and consume no retry budget.
func TestGenuineOOMIsNotRetried(t *testing.T) {
	cfg := elasticConfig()
	cfg.TaskRetries = 5
	cfg.TaskMemBytes = 1 << 10
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(context.Background(), []Task{{Name: "huge", MemEstimate: 1 << 20, Fn: func() error { return nil }}})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	if el := c.Recorder().Elastic.Load(); el.TaskRetries != 0 {
		t.Fatalf("structural OOM must not be retried, counted %d retries", el.TaskRetries)
	}
}
