// Command distme-bench regenerates every table and figure of the paper's
// evaluation (§6 and Appendix B) and drives the self-healing soak.
//
// Usage:
//
//	distme-bench -exp table4          # one experiment
//	distme-bench -exp fig6a,fig6d     # several
//	distme-bench -exp all             # everything
//	distme-bench -list                # list experiment IDs
//	distme-bench -soak                # self-healing soak/chaos run (smoke profile)
//	distme-bench -soak -soak-profile full -soak-out BENCH_soak.json
//	distme-bench -soak -trace-out trace.json   # soak timeline for chrome://tracing
//
// -exp, -list and -soak are the three modes; naming more than one is an
// error. Paper-scale rows are produced by the cost-model plane at the
// testbed constants; "-measured" experiments run the real engine at laptop
// scale. EXPERIMENTS.md records each output against the paper's numbers.
// Performance numbers — end to end and per layer — come from the repository
// benchmark (benchmark/, BENCHMARK.json), not from this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"distme/internal/experiments"
	"distme/internal/obs"
	"distme/internal/soak"
)

func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "distme-bench: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	exp := flag.String("exp", "all", "experiment ID(s), comma-separated, or 'all'")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	soakRun := flag.Bool("soak", false, "run the self-healing soak: seeded chaos workload under the autoscaler, bit-identical results enforced")
	soakProfile := flag.String("soak-profile", "smoke", "with -soak, the profile: smoke (CI, under 90s) or full (nightly)")
	soakOut := flag.String("soak-out", "", "with -soak, also write the report as JSON to this path")
	traceOut := flag.String("trace-out", "", "with -soak, write a Chrome trace_event timeline of the run to this path")
	flag.Parse()

	// -exp, -list and -soak each select a mode; -exp's default only applies
	// when neither of the others is named.
	modes := 0
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "exp" {
			modes++
		}
	})
	for _, on := range []bool{*list, *soakRun} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		die(2, "-exp, -list and -soak select different modes; name one")
	}

	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
	case *soakRun:
		runSoak(*soakProfile, *soakOut, *traceOut)
	default:
		runExperiments(*exp)
	}
}

func runSoak(profileName, out, traceOut string) {
	var profile soak.Profile
	switch profileName {
	case "smoke":
		profile = soak.Smoke()
	case "full":
		profile = soak.Full()
	default:
		die(2, "unknown soak profile %q (want smoke or full)", profileName)
	}
	var tr *obs.Tracer // nil traces nothing
	if traceOut != "" {
		tr = obs.NewTracer()
	}
	report, err := soak.Run(profile, tr)
	if report != nil {
		report.Fprint(os.Stdout)
		if out != "" {
			if werr := report.WriteJSON(out); werr != nil {
				die(1, "%v", werr)
			}
		}
	}
	if tr != nil {
		snap := tr.Snapshot()
		if werr := snap.WriteFile(traceOut); werr != nil {
			die(1, "%v", werr)
		}
		fmt.Printf("wrote %d bench spans to %s\n", len(snap.Spans), traceOut)
	}
	if err != nil {
		die(1, "soak: %v", err)
	}
}

func runExperiments(exp string) {
	ids := strings.Split(exp, ",")
	if exp == "all" {
		ids = experiments.IDs()
	}
	exit := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		tables, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "distme-bench: %s: %v\n", id, err)
			exit = 1
			continue
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
	}
	os.Exit(exit)
}
