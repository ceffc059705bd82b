// Command benchmark is the repository's one benchmark: it starts the real
// stack in this process over loopback TCP — two distnet workers, a driver,
// distme-serve's server behind its RPC listener, and RPC clients — drives
// one of four closed-loop workloads from a seeded generator, verifies every
// result, and prints every metric by name and unit. README.md in this
// directory says what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"distme/internal/matrix"
	"distme/internal/obs"
)

// Fixed sizes of a run; the smoke test lowers them, no flag does.
const (
	defaultSetupReps  = 5
	defaultLadderJobs = 10
)

// row is the one output schema: every metric of every workload prints as
// one of these.
type row struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
}

// resultLine is the last line of standard output, the contract with the
// driver that runs the benchmark.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(name string, o runOpts) (results, tally, error) {
	if name == "gnmf_resident" {
		return runGNMF(o)
	}
	for i := range serveSpecs {
		if serveSpecs[i].name == name {
			return runServe(&serveSpecs[i], o)
		}
	}
	return nil, tally{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func printHeader(asJSON bool) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	env := map[string]any{
		"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "kernel_workers": matrix.KernelWorkers(),
		"workers": workerCount,
	}
	if asJSON {
		b, _ := json.Marshal(map[string]any{"env": env})
		fmt.Println(string(b))
		return
	}
	fmt.Printf("# commit=%s go=%s nproc=%d GOMAXPROCS=%d kernel_workers=%d workers=%d\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), matrix.KernelWorkers(), workerCount)
	fmt.Printf("%-14s %-34s %-8s %-8s %16s %8s\n", "workload", "name", "layer", "unit", "value", "samples")
}

func printRows(workload string, res results, defs []metricDef, asJSON bool) {
	for _, d := range defs {
		v, ok := res[d.Name]
		if !ok {
			continue
		}
		r := row{workload, d.Name, layerOf(d.Name), d.Unit, v.v, v.samples}
		if asJSON {
			b, _ := json.Marshal(r)
			fmt.Println(string(b))
			continue
		}
		fmt.Printf("%-14s %-34s %-8s %-8s %16.6f %8d\n", r.Workload, r.Name, r.Layer, r.Unit, r.Value, r.Samples)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames(), ", "))
		all      = flag.Bool("all", false, "run every workload")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase, in seconds")
		trace    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and the ladder")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the benchmark-side spans as a Chrome trace")
		asJSON   = flag.Bool("json", false, "print the header and the rows as JSON lines")
	)
	flag.Parse()
	names := []string{*workload}
	if *all {
		names = workloadNames()
	} else if *workload == "" {
		fmt.Fprintln(os.Stderr, "benchmark: give -workload <name> or -all")
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1, -seconds is positive")
		os.Exit(2)
	}

	printHeader(*asJSON)
	bench := obs.NewTracer()
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	ok := true
	for _, name := range names {
		var report strings.Builder
		res, tl, err := runWorkload(name, runOpts{
			seed: *seed, seconds: *seconds, traced: *trace == 1,
			ladderJobs: defaultLadderJobs, setupReps: defaultSetupReps, gnmf: gnmfFull,
			bench: bench, report: &report,
		})
		if err == nil {
			err = res.check(defs)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		if tl.firstErr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d jobs failed, first: %v\n", name, tl.failed, tl.attempted, tl.firstErr)
			ok = false
		}
		// Both lists print for a human; the result line carries the one the
		// driver asked for.
		printRows(name, res, endToEnd, *asJSON)
		printRows(name, res, perLayer, *asJSON)
		if !*asJSON {
			fmt.Print(report.String())
		}
		line := resultLine{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metricOutput{}}
		for _, d := range defs {
			line.Metrics[d.Name] = metricOutput{res[d.Name].v, d.Unit}
		}
		b, _ := json.Marshal(line)
		fmt.Println(string(b))
	}
	if *traceOut != "" {
		if err := bench.Snapshot().WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: trace-out: %v\n", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}
