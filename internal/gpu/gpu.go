// Package gpu simulates the GPU acceleration substrate of the paper's §4:
// a device with a per-task memory budget θg (the MPS share of one GPU among
// Tc tasks), a PCI-E copy engine on which host-to-device copies are
// serialized, multiple asynchronous streams whose kernels overlap with
// copies, and an event-driven virtual timeline. Kernels execute real
// arithmetic on the CPU (bit-exact results, so the distributed layers are
// verifiable) while the timeline reproduces the performance behavior that
// matters for the paper's figures: PCI-E traffic (Eq. 6), copy/compute
// overlap, C-resident aggregation across the k-axis, and core utilization.
package gpu

import (
	"errors"
	"fmt"
	"sync"

	"distme/internal/cluster"
	"distme/internal/vclock"
)

// ErrDeviceOutOfMemory reports that a subcuboid's working set exceeded θg.
var ErrDeviceOutOfMemory = errors.New("gpu: subcuboid exceeds device memory budget θg")

// Spec describes the simulated device as one task sees it.
type Spec struct {
	// MemPerTaskBytes is θg, this task's share of device memory under MPS.
	MemPerTaskBytes int64
	// PCIEBandwidth is the host↔device copy rate in bytes/second.
	PCIEBandwidth float64
	// Flops is the kernel throughput in flop/s used for virtual durations.
	Flops float64
	// MaxStreams caps concurrent streams per task (the paper notes a
	// typical limit of 32; more streams are multiplexed by the scheduler).
	MaxStreams int
}

// TaskSpec is one task's MPS slice of a node's devices: with G devices and
// Tc tasks per node, a task sees G/Tc of the aggregate memory, bus and
// cores (the multi-GPU extension; G = 1 reproduces the paper's testbed).
func TaskSpec(cfg cluster.Config) Spec {
	g := float64(cfg.GPUs())
	return Spec{
		MemPerTaskBytes: cfg.GPUMemPerTaskBytes * int64(cfg.GPUs()),
		PCIEBandwidth:   g * cfg.PCIEBandwidth / float64(cfg.TasksPerNode),
		Flops:           g * cfg.GPUFlops / float64(cfg.TasksPerNode),
		MaxStreams:      32,
	}
}

// Stats aggregates timeline observations across every task that used the
// simulated device during one job.
type Stats struct {
	// H2DBytes and D2HBytes are the PCI-E traffic in each direction.
	H2DBytes, D2HBytes int64
	// KernelBusy is the union length of kernel-busy intervals, in virtual
	// seconds, summed over tasks.
	KernelBusy float64
	// Makespan is the total virtual duration of all task timelines.
	Makespan float64
	// Kernels is the number of kernel launches.
	Kernels int
	// Iterations is the number of subcuboids streamed.
	Iterations int
	// MemHighWater is the maximum device working set observed (bytes).
	MemHighWater int64
}

// Utilization is the GPU core utilization the paper plots in Figure 7(g):
// kernel-busy time over timeline makespan.
func (s Stats) Utilization() float64 {
	if s.Makespan == 0 {
		return 0
	}
	u := s.KernelBusy / s.Makespan
	if u > 1 {
		u = 1
	}
	return u
}

// PCIEBytes is the total bus traffic.
func (s Stats) PCIEBytes() int64 { return s.H2DBytes + s.D2HBytes }

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("gpu{h2d=%d d2h=%d kernels=%d iters=%d util=%.1f%%}",
		s.H2DBytes, s.D2HBytes, s.Kernels, s.Iterations, 100*s.Utilization())
}

// Device accumulates Stats from concurrently running tasks. Each task runs
// its own deterministic virtual timeline (its MPS slice); the device merges
// the results under a lock.
//
// With SetSharedBus(true) the device instead models true MPS bus
// contention: all tasks' H2D/D2H copies serialize on ONE copy engine (the
// physical PCI-E link), so concurrent tasks queue behind each other — the
// "serious shortage" situation §4.1 describes when multiple tasks use the
// same GPU simultaneously. The default partitioned model (each task gets a
// 1/Tc bandwidth slice) is deterministic regardless of task scheduling;
// the shared model serializes in task-arrival order, so runs are
// deterministic only under deterministic scheduling.
type Device struct {
	spec Spec

	mu         sync.Mutex
	stats      Stats
	sharedBus  bool
	bus        vclock.SerialResource
	traceLimit int
	trace      []TraceEvent
	taskSeq    int
}

// SetSharedBus switches between the partitioned-bandwidth model (false,
// default) and the contended single-bus model (true).
func (d *Device) SetSharedBus(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sharedBus = on
	d.bus.Reset()
}

// busCopy books one copy on the contended shared bus; valid only when
// sharedBus is on.
func (d *Device) busCopy(ready vclock.Time, dur float64) (vclock.Time, vclock.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bus.Schedule(ready, dur)
}

// usesSharedBus reports the current bus model.
func (d *Device) usesSharedBus() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sharedBus
}

// NewDevice creates a device with the given per-task spec.
func NewDevice(spec Spec) *Device {
	if spec.MaxStreams <= 0 {
		spec.MaxStreams = 32
	}
	if spec.PCIEBandwidth <= 0 {
		spec.PCIEBandwidth = 12e9
	}
	if spec.Flops <= 0 {
		spec.Flops = 300e9
	}
	return &Device{spec: spec}
}

// Spec returns the device's per-task spec.
func (d *Device) Spec() Spec { return d.spec }

// Stats returns a snapshot of the accumulated statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the accumulated statistics.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// merge folds one task timeline's observations into the device totals.
func (d *Device) merge(t *taskTimeline) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordTrace(d.taskSeq, t.events)
	d.taskSeq++
	d.stats.H2DBytes += t.h2dBytes
	d.stats.D2HBytes += t.d2hBytes
	d.stats.KernelBusy += t.kernels.BusyTime()
	d.stats.Makespan += float64(vclock.Max(vclock.Max(t.kernels.Makespan(), t.copyEngine.FreeAt()), t.busEnd))
	d.stats.Kernels += t.kernelCount
	d.stats.Iterations += t.iterations
	if t.memHighWater > d.stats.MemHighWater {
		d.stats.MemHighWater = t.memHighWater
	}
}

// taskTimeline is one task's private virtual timeline on its MPS slice of
// the device: a serialized copy engine, per-stream kernel queues, and
// device-memory accounting.
type taskTimeline struct {
	spec       Spec
	device     *Device // for the shared-bus contention model; may be nil
	copyEngine vclock.SerialResource
	streams    []vclock.SerialResource
	kernels    vclock.IntervalSet

	h2dBytes, d2hBytes int64
	kernelCount        int
	iterations         int
	memInUse           int64
	memHighWater       int64
	busEnd             vclock.Time // latest shared-bus completion seen
	events             []TraceEvent
}

func newTaskTimeline(spec Spec, streams int) *taskTimeline {
	if streams < 1 {
		streams = 1
	}
	if streams > spec.MaxStreams {
		streams = spec.MaxStreams
	}
	return &taskTimeline{spec: spec, streams: make([]vclock.SerialResource, streams)}
}

// copy books one transfer of duration dur becoming ready at ready, on the
// per-task engine or the device's contended bus depending on the model.
func (t *taskTimeline) copy(ready vclock.Time, dur float64) (vclock.Time, vclock.Time) {
	if t.device != nil && t.device.usesSharedBus() {
		start, end := t.device.busCopy(ready, dur)
		if end > t.busEnd {
			t.busEnd = end
		}
		return start, end
	}
	return t.copyEngine.Schedule(ready, dur)
}

// tracing reports whether the owning device records events.
func (t *taskTimeline) tracing() bool {
	if t.device == nil {
		return false
	}
	t.device.mu.Lock()
	defer t.device.mu.Unlock()
	return t.device.traceLimit > 0
}

// alloc charges device memory; it fails when the working set passes θg.
func (t *taskTimeline) alloc(n int64) error {
	t.memInUse += n
	if t.memInUse > t.memHighWater {
		t.memHighWater = t.memInUse
	}
	if t.spec.MemPerTaskBytes > 0 && t.memInUse > t.spec.MemPerTaskBytes {
		return fmt.Errorf("%w: in use %d, budget %d", ErrDeviceOutOfMemory, t.memInUse, t.spec.MemPerTaskBytes)
	}
	return nil
}

// free releases device memory.
func (t *taskTimeline) free(n int64) { t.memInUse -= n }

// h2d books a host-to-device copy of n bytes that becomes ready at `ready`,
// returning its completion time. Copies are serialized on the copy engine —
// "H2D copies of these streams cannot overlap with each other" (§4.3).
func (t *taskTimeline) h2d(ready vclock.Time, n int64, label string) vclock.Time {
	t.h2dBytes += n
	start, end := t.copy(ready, float64(n)/t.spec.PCIEBandwidth)
	if t.tracing() {
		t.events = append(t.events, TraceEvent{Stream: -1, Kind: "h2d", Label: label, Start: start, End: end, Bytes: n})
	}
	return end
}

// d2h books a device-to-host copy of n bytes on the same serialized engine.
func (t *taskTimeline) d2h(ready vclock.Time, n int64, label string) vclock.Time {
	t.d2hBytes += n
	start, end := t.copy(ready, float64(n)/t.spec.PCIEBandwidth)
	if t.tracing() {
		t.events = append(t.events, TraceEvent{Stream: -1, Kind: "d2h", Label: label, Start: start, End: end, Bytes: n})
	}
	return end
}

// kernel books a kernel of the given flop count on stream s, ready when its
// inputs are; kernels on different streams overlap freely.
func (t *taskTimeline) kernel(stream int, ready vclock.Time, flops float64, label string) vclock.Time {
	s := &t.streams[stream%len(t.streams)]
	start, end := s.Schedule(ready, flops/t.spec.Flops)
	t.kernels.Add(start, end)
	t.kernelCount++
	if t.tracing() {
		t.events = append(t.events, TraceEvent{Stream: stream % len(t.streams), Kind: "kernel", Label: label, Start: start, End: end, Flops: flops})
	}
	return end
}
