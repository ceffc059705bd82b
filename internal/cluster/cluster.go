// Package cluster is the distributed data-parallel substrate that DistME is
// built on — the stand-in for Apache Spark in the paper. It provides a
// simulated cluster of M nodes with Tc concurrent task slots per node, a
// per-task memory budget θt that is enforced (reproducing the paper's
// O.O.M. failures), a disk-capacity budget (reproducing E.D.C.), and a
// byte-metered view of the network. Tasks run for real, in parallel, on
// worker goroutines; only the hardware envelope is simulated.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"distme/internal/metrics"
)

// ErrOutOfMemory reports that a task's working set exceeded the per-task
// memory budget θt — the paper's "O.O.M." outcome.
var ErrOutOfMemory = errors.New("cluster: task exceeds per-task memory budget (O.O.M.)")

// ErrExceededDisk reports that intermediate data exceeded cluster disk
// capacity — the paper's "E.D.C." outcome.
var ErrExceededDisk = errors.New("cluster: intermediate data exceeds disk capacity (E.D.C.)")

// ErrTimeout names the paper's "T.O." outcome, a job past the experiment's
// time budget. A Run has no wall-clock budget of its own, so nothing in the
// measured plane returns it: a caller bounds a job with a context deadline,
// which surfaces as ErrCancelled.
var ErrTimeout = errors.New("cluster: job exceeded time budget (T.O.)")

// Config describes the simulated hardware envelope. The zero value is not
// usable; construct with NewConfig or start from PaperConfig.
type Config struct {
	// Nodes is M, the number of cluster nodes.
	Nodes int
	// TasksPerNode is Tc, the number of concurrent tasks per node.
	TasksPerNode int
	// TaskMemBytes is θt, the memory budget of a single task.
	TaskMemBytes int64
	// NodeMemBytes is the total memory of one node (64 GB in the paper's
	// testbed); broadcast variables are node-resident and shared by the
	// node's Tc tasks, so they are checked against this budget, not θt.
	NodeMemBytes int64
	// GPUMemPerTaskBytes is θg, the GPU memory available to one task when
	// Tc tasks share one node device through MPS.
	GPUMemPerTaskBytes int64
	// GPUsPerNode is the device count per node (1 in the paper's testbed;
	// >1 engages the multi-GPU extension of §8's future work: each task's
	// MPS share of memory, bus and cores scales with the device count).
	GPUsPerNode int
	// NetworkBandwidth is the per-node network bandwidth in bytes/second,
	// used by the cost model (10 Gbps in the paper's testbed).
	NetworkBandwidth float64
	// PCIEBandwidth is the host↔device bandwidth in bytes/second
	// (16 GB/s peak in the paper; the testbed's effective rate is lower).
	PCIEBandwidth float64
	// DiskCapacityBytes is the total cluster disk capacity available to
	// shuffle spills (36 TB in the paper's testbed).
	DiskCapacityBytes int64
	// CPUFlops is the per-node double-precision CPU throughput used by the
	// cost model (flop/s).
	CPUFlops float64
	// GPUFlops is the per-node double-precision GPU throughput used by the
	// cost model (flop/s).
	GPUFlops float64
	// LocalWorkers bounds the real goroutine parallelism of measured runs;
	// 0 means GOMAXPROCS.
	LocalWorkers int
	// TaskRetries is how many times a failed task is re-executed before its
	// error fails the job — the substrate's analog of Spark re-running lost
	// tasks from RDD lineage. 0 means no retries.
	TaskRetries int
	// RetryBackoff is the base delay of the capped exponential backoff
	// between a task's attempts (1ms when zero). The delay before attempt n
	// is uniform in (0, min(RetryBackoff·2ⁿ⁻¹, 16·RetryBackoff)] — full
	// jitter from a clock-seeded source, which moves only retry timing,
	// never results.
	RetryBackoff time.Duration
	// Speculation enables speculative copies of straggler tasks: once 75 %
	// of a wave has completed, a task in flight for longer than twice the
	// 75th-percentile completion time gets a second attempt; the first
	// result wins and the loser is cancelled.
	Speculation bool
	// Faults configures deterministic fault injection for chaos runs; the
	// zero value disables it.
	Faults Faults
}

// PaperConfig returns the hardware envelope of the paper's testbed (§6.1):
// one master plus nine slaves — we model the nine workers — each with a
// six-core 3.5 GHz CPU, 64 GB RAM, a GTX 1080 Ti (11 GB), 10 Gbps Ethernet,
// Tc = 10 tasks per node, θt = 6 GB and θg = 1 GB.
func PaperConfig() Config {
	return Config{
		Nodes:              9,
		TasksPerNode:       10,
		TaskMemBytes:       6e9,  // θt = 6 GB
		NodeMemBytes:       64e9, // 64 GB per node
		GPUMemPerTaskBytes: 1e9,  // θg = 1 GB
		GPUsPerNode:        1,
		NetworkBandwidth:   10e9 / 8,      // 10 Gbps
		PCIEBandwidth:      12e9,          // effective PCI-E 3.0 x16
		DiskCapacityBytes:  36e12,         // 36 TB across the cluster
		CPUFlops:           6 * 3.5e9 * 2, // 6 cores × 3.5 GHz × 2 flop/cycle (conservative DP)
		GPUFlops:           332e9,         // GTX 1080 Ti FP64 ≈ 1/32 of FP32 11.3 TF
	}
}

// LaptopConfig returns a scaled-down envelope for measured runs on a single
// machine: same node/slot topology as the paper but with budgets sized for
// laptop-scale matrices, so the elastic behaviors (cuboid sizing, OOM
// boundaries) still engage.
func LaptopConfig() Config {
	c := PaperConfig()
	c.TaskMemBytes = 64 << 20
	c.NodeMemBytes = 640 << 20
	c.GPUMemPerTaskBytes = 8 << 20
	c.DiskCapacityBytes = 4 << 30
	return c
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: config: Nodes must be positive, got %d", c.Nodes)
	case c.TasksPerNode <= 0:
		return fmt.Errorf("cluster: config: TasksPerNode must be positive, got %d", c.TasksPerNode)
	case c.TaskMemBytes <= 0:
		return fmt.Errorf("cluster: config: TaskMemBytes must be positive, got %d", c.TaskMemBytes)
	}
	return nil
}

// Slots returns M × Tc, the cluster-wide concurrent task capacity.
func (c Config) Slots() int { return c.Nodes * c.TasksPerNode }

// GPUs returns the per-node device count, defaulting to 1.
func (c Config) GPUs() int {
	if c.GPUsPerNode <= 0 {
		return 1
	}
	return c.GPUsPerNode
}

// Cluster executes task sets against a Config, enforcing the memory
// discipline and recording metrics.
type Cluster struct {
	cfg      Config
	recorder *metrics.Recorder
	// injector delivers the deterministic faults of cfg.Faults; nil when
	// injection is disabled.
	injector *Injector
}

// FaultInjector returns the deterministic fault injector configured via
// Config.Faults, or nil when injection is disabled. The executors consult
// it for shuffle-fetch faults during aggregation.
func (c *Cluster) FaultInjector() *Injector { return c.injector }

// New creates a cluster with its own metrics recorder.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, recorder: &metrics.Recorder{}, injector: NewInjector(cfg.Faults)}, nil
}

// Config returns the hardware envelope.
func (c *Cluster) Config() Config { return c.cfg }

// Recorder returns the cluster's metrics recorder.
func (c *Cluster) Recorder() *metrics.Recorder { return c.recorder }

// Task is one schedulable unit of work: the paper's "task" running on a core
// of a cluster node. MemEstimate is the working-set size charged against θt
// before the task runs, matching how the engine estimates cuboid sizes.
type Task struct {
	// Name identifies the task in error messages, e.g. "cuboid(1,0,2)".
	Name string
	// MemEstimate is the bytes of task working set charged against θt.
	MemEstimate int64
	// Fn is the task body. It runs on a worker goroutine.
	Fn func() error
}

// attemptCtx executes one attempt of one task: fault injection first (an
// injected crash or O.O.M. fails the attempt; an injected straggler delay
// sleeps, abandoning the attempt promptly if its context is cancelled),
// then the task body. A panic in the body is converted to an error so one
// bad block cannot take down the driver. Run (elastic.go) drives
// this with the retry and speculation machinery.
func (c *Cluster) attemptCtx(ctx context.Context, t Task, attempt int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task panicked: %v", r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	if inj := c.injector; inj != nil {
		if err := inj.AttemptError(t.Name, attempt); err != nil {
			atomic.AddInt64(&c.recorder.Elastic.Live().FaultsInjected, 1)
			return err
		}
		if d := inj.Delay(t.Name, attempt); d > 0 {
			atomic.AddInt64(&c.recorder.Elastic.Live().FaultsInjected, 1)
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
			}
		}
	}
	return t.Fn()
}

// ChargeSpill accounts n bytes of intermediate data spilled to disk and
// fails with ErrExceededDisk when the cumulative volume passes the cluster's
// disk capacity.
func (c *Cluster) ChargeSpill(n int64) error {
	c.recorder.AddSpill(n)
	if c.cfg.DiskCapacityBytes > 0 && c.recorder.SpillBytes() > c.cfg.DiskCapacityBytes {
		return fmt.Errorf("%w: %s spilled, capacity %s",
			ErrExceededDisk,
			metrics.FormatBytes(c.recorder.SpillBytes()),
			metrics.FormatBytes(c.cfg.DiskCapacityBytes))
	}
	return nil
}
