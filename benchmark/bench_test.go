package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/obs"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches holds BENCHMARK.json to the tables the program
// prints from: same workloads, same metrics, same units, same bounds.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command is %v, want %v", f.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths is %v, want %v", f.Paths, want)
	}
	whys := map[string]string{"gnmf_resident": gnmfWhy}
	for _, sp := range serveSpecs {
		whys[sp.name] = sp.why
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why != whys[w.Name] {
			t.Errorf("workload %s: why differs from the program's", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads are %v, the program runs %v", names, workloadNames())
	}
	var e2e, layers []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range f.PerLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\nfile    %v\nprogram %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs:\nfile    %v\nprogram %v", layers, perLayer)
	}
}

// smokeInputs are the workloads the smoke test drives. Under the race
// detector the full sizes take minutes, so it keeps every code path and
// shrinks the operands, taking the expected plans from the optimizer.
func smokeInputs(t *testing.T) ([]spec, gnmfDims) {
	if !raceEnabled {
		return serveSpecs, gnmfFull
	}
	small := func(name string, draw func(*rand.Rand) (a, b *bmat.BlockMatrix)) spec {
		a, b := draw(rand.New(rand.NewSource(1)))
		p, err := core.OptimizeWire(core.ShapeOf(a, b), 1<<30, workerCount, core.WireCost{InputRatio: 1, AggRatio: 1})
		if err != nil {
			t.Fatal(err)
		}
		return spec{
			name: name, clients: 1, warmup: 1,
			plans: map[string]core.Params{dimsKey(a, b): p},
			gens:  coldGens(1, draw),
		}
	}
	mix := serveSpecs[2]
	mix.warmup = 20
	return []spec{
		small("dense_cold", func(rng *rand.Rand) (a, b *bmat.BlockMatrix) {
			return bmat.RandomDense(rng, 96, 96, 16), bmat.RandomDense(rng, 96, 96, 16)
		}),
		small("sparse_tall", func(rng *rand.Rand) (a, b *bmat.BlockMatrix) {
			return bmat.RandomSparse(rng, 512, 512, 64, 0.01), bmat.RandomDense(rng, 512, 16, 64)
		}),
		mix,
	}, gnmfDims{rows: 256, cols: 128, rank: 16, block: 32, density: 0.05}
}

// TestSmoke runs all four workloads at a reduced job count with every check
// on, including the traced ladder once, and requires every metric of both
// lists to come out finite.
func TestSmoke(t *testing.T) {
	specs, dims := smokeInputs(t)
	bench := obs.NewTracer()
	opts := func() runOpts {
		return runOpts{
			seed: 1, seconds: 60, traced: true, maxJobs: 1, ladderJobs: 1, setupReps: 1,
			gnmf: dims, bench: bench, report: &strings.Builder{},
		}
	}
	check := func(t *testing.T, res results, tl tally, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if tl.failed != 0 {
			t.Fatalf("%d of %d jobs failed, first: %v", tl.failed, tl.attempted, tl.firstErr)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			if err := res.check(defs); err != nil {
				t.Error(err)
			}
		}
	}
	for i := range specs {
		t.Run(specs[i].name, func(t *testing.T) {
			o := opts()
			res, tl, err := runServe(&specs[i], o)
			check(t, res, tl, err)
			if !strings.Contains(o.report.String(), "serve RPC") {
				t.Errorf("no ladder in the report:\n%s", o.report)
			}
		})
	}
	t.Run("gnmf_resident", func(t *testing.T) {
		res, tl, err := runGNMF(opts())
		check(t, res, tl, err)
	})
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := bench.Snapshot().WriteFile(out); err != nil {
		t.Fatal(err)
	}
	var events []json.RawMessage // the trace_event array form
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
		t.Fatalf("trace-out is not a loadable Chrome trace: %v, %d events", err, len(events))
	}
}
