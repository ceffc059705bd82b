package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testConfig() Config {
	c := LaptopConfig()
	c.LocalWorkers = 4
	return c
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{},
		{Nodes: 1},
		{Nodes: 1, TasksPerNode: 1},
		{Nodes: -1, TasksPerNode: 1, TaskMemBytes: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v validated", bad)
		}
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
}

func TestPaperConfigMatchesTestbed(t *testing.T) {
	c := PaperConfig()
	if c.Nodes != 9 || c.TasksPerNode != 10 {
		t.Fatalf("paper topology = %d nodes × %d tasks", c.Nodes, c.TasksPerNode)
	}
	if c.Slots() != 90 {
		t.Fatalf("Slots = %d, want 90", c.Slots())
	}
	if c.TaskMemBytes != 6e9 {
		t.Fatalf("θt = %d, want 6 GB", c.TaskMemBytes)
	}
	if c.GPUMemPerTaskBytes != 1e9 {
		t.Fatalf("θg = %d, want 1 GB", c.GPUMemPerTaskBytes)
	}
}

func TestRunExecutesAllTasks(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	tasks := make([]Task, 50)
	for i := range tasks {
		tasks[i] = Task{Name: fmt.Sprintf("t%d", i), Fn: func() error { n.Add(1); return nil }}
	}
	if err := c.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", n.Load())
	}
}

func TestRunEnforcesMemoryBudget(t *testing.T) {
	cfg := testConfig()
	c, _ := New(cfg)
	ran := false
	err := c.Run(context.Background(), []Task{{
		Name:        "hog",
		MemEstimate: cfg.TaskMemBytes + 1,
		Fn:          func() error { ran = true; return nil },
	}})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if ran {
		t.Fatal("task ran despite OOM check")
	}
}

func TestRunMemoryBudgetBoundaryAllowed(t *testing.T) {
	cfg := testConfig()
	c, _ := New(cfg)
	err := c.Run(context.Background(), []Task{{Name: "fit", MemEstimate: cfg.TaskMemBytes, Fn: func() error { return nil }}})
	if err != nil {
		t.Fatalf("task exactly at θt rejected: %v", err)
	}
}

func TestRunPropagatesFirstError(t *testing.T) {
	c, _ := New(testConfig())
	boom := errors.New("boom")
	var after atomic.Int64
	tasks := []Task{
		{Name: "ok", Fn: func() error { return nil }},
		{Name: "bad", Fn: func() error { return boom }},
	}
	for i := 0; i < 100; i++ {
		tasks = append(tasks, Task{Name: "late", Fn: func() error { after.Add(1); return nil }})
	}
	err := c.Run(context.Background(), tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Scheduling must stop early: with 4 workers, far fewer than 100 of the
	// trailing tasks should run after the failure.
	if after.Load() > 90 {
		t.Fatalf("%d tasks ran after failure; scheduler did not stop", after.Load())
	}
}

func TestRunEmptyTaskList(t *testing.T) {
	c, _ := New(testConfig())
	if err := c.Run(context.Background(), nil); err != nil {
		t.Fatalf("empty run failed: %v", err)
	}
}

func TestRunParallelismBoundedBySlots(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes, cfg.TasksPerNode = 1, 2 // 2 slots
	cfg.LocalWorkers = 16
	c, _ := New(cfg)
	var inFlight, peak atomic.Int64
	tasks := make([]Task, 20)
	for i := range tasks {
		tasks[i] = Task{Name: "t", Fn: func() error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			inFlight.Add(-1)
			return nil
		}}
	}
	if err := c.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 2 {
		t.Fatalf("peak parallelism %d exceeds 2 slots", peak.Load())
	}
}

func TestChargeSpillEDC(t *testing.T) {
	cfg := testConfig()
	cfg.DiskCapacityBytes = 1000
	c, _ := New(cfg)
	if err := c.ChargeSpill(600); err != nil {
		t.Fatalf("first spill failed: %v", err)
	}
	err := c.ChargeSpill(600)
	if !errors.Is(err, ErrExceededDisk) {
		t.Fatalf("err = %v, want ErrExceededDisk", err)
	}
}

func TestChargeSpillUnlimitedWhenZero(t *testing.T) {
	cfg := testConfig()
	cfg.DiskCapacityBytes = 0
	c, _ := New(cfg)
	if err := c.ChargeSpill(1 << 50); err != nil {
		t.Fatalf("unlimited disk rejected spill: %v", err)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRetriesRecoverFlakyTask(t *testing.T) {
	cfg := testConfig()
	cfg.TaskRetries = 2
	// Crash the first two attempts of every task; the third succeeds.
	cfg.Faults = Faults{CrashRate: 1, MaxFaultsPerTask: 2}
	c, _ := New(cfg)
	var ran atomic.Int64
	err := c.Run(context.Background(), []Task{{Name: "flaky", Fn: func() error { ran.Add(1); return nil }}})
	if err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("task body ran %d times, want 1 (injected crashes fail before the body)", ran.Load())
	}
}

func TestRetriesExhaustedFails(t *testing.T) {
	cfg := testConfig()
	cfg.TaskRetries = 1
	cfg.Faults = Faults{CrashRate: 1, MaxFaultsPerTask: 2}
	c, _ := New(cfg)
	err := c.Run(context.Background(), []Task{{Name: "doomed", Fn: func() error { return nil }}})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("exhausted retries should fail with the last injected crash, got %v", err)
	}
	if !strings.Contains(err.Error(), "2 attempts") {
		t.Fatalf("error should mention attempts: %v", err)
	}
}

func TestTaskPanicBecomesError(t *testing.T) {
	c, _ := New(testConfig())
	err := c.Run(context.Background(), []Task{{Name: "bomb", Fn: func() error { panic("kaboom") }}})
	if err == nil {
		t.Fatal("panicking task did not fail the job")
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic value lost: %v", err)
	}
}

func TestRetryRerunsTaskBodyOnBodyFailure(t *testing.T) {
	cfg := testConfig()
	cfg.TaskRetries = 3
	c, _ := New(cfg)
	var calls atomic.Int64
	err := c.Run(context.Background(), []Task{{Name: "eventually", Fn: func() error {
		if calls.Add(1) < 3 {
			return errors.New("transient")
		}
		return nil
	}}})
	if err != nil {
		t.Fatalf("body retry failed: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("body ran %d times, want 3", calls.Load())
	}
}

func TestJobTimeoutAborts(t *testing.T) {
	cfg := testConfig()
	cfg.JobTimeout = 10 * time.Millisecond
	cfg.LocalWorkers = 1
	c, _ := New(cfg)
	var ran atomic.Int64
	tasks := make([]Task, 50)
	for i := range tasks {
		tasks[i] = Task{Name: "slow", Fn: func() error {
			ran.Add(1)
			time.Sleep(5 * time.Millisecond)
			return nil
		}}
	}
	err := c.Run(context.Background(), tasks)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if ran.Load() >= 50 {
		t.Fatal("timeout did not stop scheduling")
	}
}

func TestJobTimeoutDisabledByDefault(t *testing.T) {
	c, _ := New(testConfig())
	err := c.Run(context.Background(), []Task{{Name: "t", Fn: func() error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}}})
	if err != nil {
		t.Fatalf("zero timeout should not fire: %v", err)
	}
}
