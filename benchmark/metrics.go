package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef is one row of the benchmark's metric table. BENCHMARK.json
// carries the same rows; bench_test.go asserts the two lists agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by; per-layer metrics have none.
	Bound float64
}

// endToEnd are the numbers a client of the system sees, printed with
// -trace 0. failed_share is not in the list because the contract's result
// line already carries failed and attempted, and a metric that reads 0 on a
// healthy run cannot be bounded as a share of its median.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"driver_wire_mb_per_job", "MB", "lower", 0.05},
}

// obsSpans are the program's own span names whose self time the traced run
// attributes.
var obsSpans = []string{
	"serve.accept", "serve.queue.wait", "serve.job.run", "distnet.multiply",
	"cuboid", "rpc.multiply", "worker.compute", "aggregate", "wire.pull",
	"peer.fetch", "pipeline.exec", "worker.exec",
}

// perLayer are the single-layer numbers, printed with -trace 1. The prefix
// before the first dot is the module the number belongs to.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "core.optimize_us", Unit: "us", Better: "lower"},
		{Name: "core.tasks", Unit: "count", Better: "lower"},
		{Name: "core.eq4_planned_mb", Unit: "MB", Better: "lower"},
		{Name: "core.eq4_residual", Unit: "ratio", Better: "lower"},
		{Name: "core.eq3_task_mem_mb", Unit: "MB", Better: "lower"},

		{Name: "matrix.kernel_ms", Unit: "ms", Better: "lower"},
		{Name: "matrix.flops", Unit: "count", Better: "lower"},
		{Name: "matrix.gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "matrix.aggregate_ms", Unit: "ms", Better: "lower"},

		{Name: "engine.run_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.repartition_mb", Unit: "MB", Better: "lower"},
		{Name: "engine.aggregation_mb", Unit: "MB", Better: "lower"},

		{Name: "codec.encode_ms", Unit: "ms", Better: "lower"},
		{Name: "codec.decode_ms", Unit: "ms", Better: "lower"},
		{Name: "codec.digest_ms", Unit: "ms", Better: "lower"},
		{Name: "codec.wire_mb", Unit: "MB", Better: "lower"},
		{Name: "codec.encode_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "codec.decode_mb_s", Unit: "MB/s", Better: "higher"},

		{Name: "storage.write_ms", Unit: "ms", Better: "lower"},
		{Name: "storage.read_ms", Unit: "ms", Better: "lower"},
		{Name: "storage.framed_mb", Unit: "MB", Better: "lower"},

		{Name: "distnet.push_ms", Unit: "ms", Better: "lower"},
		{Name: "distnet.put_ms", Unit: "ms", Better: "lower"},
		{Name: "distnet.pull_ms", Unit: "ms", Better: "lower"},
		{Name: "distnet.request_mb", Unit: "MB", Better: "lower"},
		{Name: "distnet.reply_mb", Unit: "MB", Better: "lower"},
		{Name: "distnet.wire_encode_ms", Unit: "ms", Better: "lower"},
		{Name: "distnet.wire_decode_ms", Unit: "ms", Better: "lower"},
		{Name: "distnet.cache_ref_share", Unit: "ratio", Better: "higher"},
		{Name: "distnet.cache_saved_mb", Unit: "MB", Better: "higher"},
		{Name: "distnet.cuboid_retries", Unit: "count", Better: "lower"},
		{Name: "distnet.local_fallbacks", Unit: "count", Better: "lower"},
		{Name: "distnet.batch_items", Unit: "count", Better: "higher"},
		{Name: "distnet.peer_mb", Unit: "MB", Better: "lower"},
		{Name: "distnet.pipeline_ops", Unit: "count", Better: "lower"},
		{Name: "distnet.driver_avoided_mb", Unit: "MB", Better: "higher"},
		{Name: "distnet.price_us", Unit: "us", Better: "lower"},

		{Name: "serve.inproc_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.result_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.run_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.rpc_overhead_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.job_tail_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.job_tail_pct", Unit: "%", Better: "higher"},
		{Name: "serve.rejected", Unit: "count", Better: "lower"},

		{Name: "plan.compile_us", Unit: "us", Better: "lower"},
	}
	for _, s := range obsSpans {
		defs = append(defs, metricDef{Name: "obs." + s + "_self_ms", Unit: "ms", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "proc.alloc_mb_per_job", Unit: "MB", Better: "lower"},
		metricDef{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "proc.gc_pause_ms_per_job", Unit: "ms", Better: "lower"},
	)
}()

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "e2e"
}

// value is one measured number and how many samples stand behind it; zero
// samples marks a per-layer metric the workload's path does not touch.
type value struct {
	v       float64
	samples int
}

// results holds one workload run's numbers by metric name.
type results map[string]value

func (r results) set(name string, v float64, samples int) {
	r[name] = value{v, samples}
}

// na marks per-layer metrics the workload's path does not touch: they print
// as 0 with no samples.
func (r results) na(names ...string) {
	for _, n := range names {
		r[n] = value{}
	}
}

// check reports the first listed metric that is missing or not finite.
func (r results) check(defs []metricDef) error {
	for _, d := range defs {
		x, ok := r[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(x.v) || math.IsInf(x.v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, x.v)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func mb(bytes int64) float64     { return float64(bytes) / 1e6 }

// per divides a total by a job count, reading 0 when nothing ran.
func per(total float64, jobs int) float64 {
	if jobs == 0 {
		return 0
	}
	return total / float64(jobs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// tail returns the highest percentile of ds that still has ten samples
// beyond it, and which percentile that is; with too few samples it falls
// back to the median.
func tail(ds []time.Duration) (time.Duration, float64) {
	n := len(ds)
	if n == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := n - 11
	if i < n/2 {
		return s[n/2], 50
	}
	return s[i], 100 * float64(i+1) / float64(n)
}
