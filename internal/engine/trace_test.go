package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/gpu"
	"distme/internal/obs"
)

// traceIndex groups a trace's spans by name and indexes them by ID.
func traceIndex(tr *obs.Trace) (byID map[obs.SpanID]obs.SpanData, byName map[string][]obs.SpanData) {
	byID = make(map[obs.SpanID]obs.SpanData)
	byName = make(map[string][]obs.SpanData)
	for _, s := range tr.Spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}
	return byID, byName
}

// TestEngineTraceSpanTree checks a traced local multiply's span tree: one
// engine root, an optimizer span, the three CuboidMM phases, one task span
// per cuboid, and no orphan parents — and that the trace renders as valid
// Chrome trace_event JSON.
func TestEngineTraceSpanTree(t *testing.T) {
	cfg := testConfig()
	cfg.Tracer = obs.NewTracer()
	e := newTestEngine(t, cfg)

	rng := rand.New(rand.NewSource(90))
	a := bmat.RandomDense(rng, 24, 24, 4)
	b := bmat.RandomDense(rng, 24, 24, 4)
	params := core.Params{P: 2, Q: 2, R: 2}
	_, report, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCuboid, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if report.Trace == nil {
		t.Fatal("Report.Trace nil despite configured tracer")
	}
	byID, byName := traceIndex(report.Trace)

	if len(byName["engine.multiply"]) != 1 {
		t.Fatalf("%d engine.multiply roots, want 1", len(byName["engine.multiply"]))
	}
	for _, phase := range []string{"repartition", "local-multiply", "aggregate"} {
		if len(byName[phase]) != 1 {
			t.Errorf("%d %q spans, want 1", len(byName[phase]), phase)
		}
	}
	if n := len(byName["task.multiply"]); n != params.Tasks() {
		t.Errorf("%d task.multiply spans, want %d", n, params.Tasks())
	}
	seen := map[[3]int]bool{}
	for _, s := range byName["task.multiply"] {
		p, q, r, ok := s.Cuboid()
		if !ok {
			t.Errorf("task span %d has no cuboid coordinate", s.ID)
			continue
		}
		if seen[[3]int{p, q, r}] {
			t.Errorf("cuboid (%d,%d,%d) committed twice", p, q, r)
		}
		seen[[3]int{p, q, r}] = true
	}
	for _, s := range report.Trace.Spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Errorf("span %d (%s) references missing parent %d", s.ID, s.Name, s.Parent)
		}
	}

	var buf bytes.Buffer
	if err := report.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("Chrome trace is not a JSON array: %v", err)
	}
	if len(events) < len(report.Trace.Spans) {
		t.Errorf("%d trace events for %d spans", len(events), len(report.Trace.Spans))
	}
}

// TestEngineTraceAutoHasOptimizeSpan checks MethodAuto records the optimizer
// choice with its resulting parameters.
func TestEngineTraceAutoHasOptimizeSpan(t *testing.T) {
	cfg := testConfig()
	cfg.Tracer = obs.NewTracer()
	e := newTestEngine(t, cfg)
	rng := rand.New(rand.NewSource(91))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	_, report, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	_, byName := traceIndex(report.Trace)
	if len(byName["optimize"]) == 0 {
		t.Fatal("no optimize span under MethodAuto")
	}
	found := false
	for _, at := range byName["optimize"][0].Attrs {
		if at.Key == "params" {
			found = true
		}
	}
	if !found {
		t.Error("optimize span missing params attr")
	}
}

// TestEngineTraceGPUGraft checks a traced GPU multiply's device timeline
// grafts under the report's root span: kernel launches and copies on their
// stream lanes, inside the root's wall-clock window.
func TestEngineTraceGPUGraft(t *testing.T) {
	cfg := testConfig()
	m := gpu.NewMultiplier(gpu.TaskSpec(cfg.Cluster))
	m.Device.EnableTrace(1 << 15)
	cfg.Local = m
	cfg.Tracer = obs.NewTracer()
	e := newTestEngine(t, cfg)
	rng := rand.New(rand.NewSource(92))
	a := bmat.RandomDense(rng, 24, 24, 4)
	b := bmat.RandomDense(rng, 24, 24, 4)
	_, report, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCuboid, Params: core.Params{P: 2, Q: 2, R: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m.Device.Graft(cfg.Tracer, report.Trace)
	_, byName := traceIndex(report.Trace)
	if len(byName["engine.multiply"]) != 1 {
		t.Fatalf("%d engine.multiply spans, want 1", len(byName["engine.multiply"]))
	}
	root := byName["engine.multiply"][0]
	var kernels, copies int
	for _, s := range report.Trace.Spans {
		if s.Kind != obs.KindDevice {
			continue
		}
		if s.Parent != root.ID || s.Start.Before(root.Start) || s.End.After(root.End) {
			t.Errorf("device span %q is not inside the root span", s.Name)
		}
		if !strings.HasPrefix(s.Worker, "gpu t") {
			t.Errorf("device span %d has lane %q", s.ID, s.Worker)
		}
		if s.End.Before(s.Start) {
			t.Errorf("device span %d ends before it starts", s.ID)
		}
		switch {
		case strings.HasPrefix(s.Name, "kernel"):
			kernels++
		case strings.HasPrefix(s.Name, "h2d"), strings.HasPrefix(s.Name, "d2h"):
			copies++
			if s.Bytes <= 0 {
				t.Errorf("copy span %q carries no bytes", s.Name)
			}
		}
	}
	if kernels == 0 || copies == 0 {
		t.Fatalf("GPU graft recorded %d kernels, %d copies; want both > 0", kernels, copies)
	}
}

// TestEngineTraceUnderFaults runs a traced multiply under crash, straggler
// and fetch-failure injection with speculation on: the output must stay
// byte-identical to an untraced failure-free run, and each cuboid must still
// commit exactly one task span.
func TestEngineTraceUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	a := bmat.RandomDense(rng, 24, 20, 4)
	b := bmat.RandomDense(rng, 20, 16, 4)
	params := core.Params{P: 2, Q: 2, R: 2}

	base := newTestEngine(t, chaosConfig(cluster.Faults{}))
	want, _, err := runMul(context.Background(), base, a, b, MulOptions{Method: MethodCuboid, Params: params})
	if err != nil {
		t.Fatal(err)
	}

	cfg := chaosConfig(cluster.Faults{
		Seed: 17, CrashRate: 0.3,
		StragglerRate: 0.3, StragglerDelay: 2 * time.Millisecond,
		FetchFailRate: 0.3,
	})
	cfg.Tracer = obs.NewTracer()
	e := newTestEngine(t, cfg)
	got, report, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodCuboid, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, got), fingerprint(t, want)) {
		t.Fatal("traced faulted output differs from untraced failure-free bytes")
	}
	if report.Elastic.FaultsInjected == 0 {
		t.Fatal("no faults injected; test exercises nothing")
	}

	_, byName := traceIndex(report.Trace)
	commits := map[[3]int]int{}
	for _, s := range byName["task.multiply"] {
		p, q, r, _ := s.Cuboid()
		commits[[3]int{p, q, r}]++
	}
	for p := 0; p < params.P; p++ {
		for q := 0; q < params.Q; q++ {
			for r := 0; r < params.R; r++ {
				if n := commits[[3]int{p, q, r}]; n != 1 {
					t.Errorf("cuboid (%d,%d,%d): %d committed task spans under speculation, want 1", p, q, r, n)
				}
			}
		}
	}
	if report.Elastic.RecomputedPartials > 0 && len(byName["task.recompute"]) == 0 {
		t.Error("lineage recomputations happened but produced no task.recompute spans")
	}
}

// TestEngineNoTracerNoTrace pins the off state: no tracer, nil Report.Trace.
func TestEngineNoTracerNoTrace(t *testing.T) {
	e := newTestEngine(t, testConfig())
	rng := rand.New(rand.NewSource(94))
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	_, report, err := runMul(context.Background(), e, a, b, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Trace != nil {
		t.Fatal("Report.Trace non-nil without a tracer")
	}
}

// TestEngineTraceRMM checks the RMM path records its three phases and task
// spans too.
func TestEngineTraceRMM(t *testing.T) {
	cfg := testConfig()
	cfg.Tracer = obs.NewTracer()
	e := newTestEngine(t, cfg)
	rng := rand.New(rand.NewSource(95))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	_, report, err := runMul(context.Background(), e, a, b, MulOptions{Method: MethodRMM})
	if err != nil {
		t.Fatal(err)
	}
	_, byName := traceIndex(report.Trace)
	for _, phase := range []string{"repartition", "local-multiply", "aggregate"} {
		if len(byName[phase]) != 1 {
			t.Errorf("%d %q spans under RMM, want 1", len(byName[phase]), phase)
		}
	}
	if len(byName["task.multiply"]) == 0 {
		t.Error("no RMM task spans")
	}
}
