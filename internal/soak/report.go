package soak

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"distme/internal/distnet"
)

// Histo is a latency distribution summary in nanoseconds.
type Histo struct {
	Count    int   `json:"count"`
	P50Nanos int64 `json:"p50_ns"`
	P90Nanos int64 `json:"p90_ns"`
	P99Nanos int64 `json:"p99_ns"`
	MaxNanos int64 `json:"max_ns"`
}

func histoOf(ds []time.Duration) Histo {
	if len(ds) == 0 {
		return Histo{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(s)))
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i].Nanoseconds()
	}
	return Histo{
		Count:    len(s),
		P50Nanos: at(0.50),
		P90Nanos: at(0.90),
		P99Nanos: at(0.99),
		MaxNanos: s[len(s)-1].Nanoseconds(),
	}
}

func (h Histo) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%s p90=%s p99=%s max=%s",
		h.Count,
		time.Duration(h.P50Nanos),
		time.Duration(h.P90Nanos),
		time.Duration(h.P99Nanos),
		time.Duration(h.MaxNanos))
}

// RunStats is one schedule execution's outcome (measured or baseline).
type RunStats struct {
	// Autoscaled reports whether the self-healing supervisor ran.
	Autoscaled bool `json:"autoscaled"`
	// Jobs is the total submitted; Errors the ones that failed (budgeted —
	// churn makes some failure normal); Mismatches the ones whose result
	// diverged bitwise from the reference (always fatal).
	Jobs       int `json:"jobs"`
	Errors     int `json:"errors"`
	Mismatches int `json:"mismatches"`
	// ErrorSamples holds the first few error/mismatch messages for triage.
	ErrorSamples []string `json:"error_samples,omitempty"`
	// Latency is the all-jobs distribution; PerKind splits it by job kind.
	Latency Histo            `json:"latency"`
	PerKind map[string]Histo `json:"per_kind"`
	// Kills counts injected worker crashes; KillsRecovered the ones the
	// autoscaler repaired within the watch window; Recovery their
	// time-to-restored-capacity distribution.
	Kills          int   `json:"kills"`
	KillsRecovered int   `json:"kills_recovered"`
	Recovery       Histo `json:"recovery"`
	// Autoscaler counters and its applied-decision log.
	ScaleUps       int64                `json:"scale_ups"`
	ScaleDowns     int64                `json:"scale_downs"`
	WorkersRetired int64                `json:"workers_retired"`
	StragglerRPCs  int64                `json:"straggler_rpcs"`
	Events         []distnet.ScaleEvent `json:"events,omitempty"`
	// StoreEvictions sums the owned bands the workers' memory budgets
	// displaced, over every worker the run had (each read of one is a
	// lineage rebuild).
	StoreEvictions int64 `json:"store_evictions"`
	// Leak gauges at teardown: driver-modeled resident bytes and handles
	// still resident in live workers' stores. Both must be zero.
	LeakedResidentBytes int64 `json:"leaked_resident_bytes"`
	LeakedStoreHandles  int   `json:"leaked_store_handles"`
}

// Report is the full soak output, written to BENCH_soak.json.
type Report struct {
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	// Main is the measured autoscaled run; Baseline the same schedule with
	// the autoscaler off (kills never repaired).
	Main     RunStats `json:"main"`
	Baseline RunStats `json:"baseline"`
	// P99DegradationX is baseline p99 over measured p99 — what the
	// self-healing loop bought.
	P99DegradationX float64 `json:"p99_degradation_x"`
	SLOP99Nanos     int64   `json:"slo_p99_ns"`
	// Goroutine census at Run start and after teardown settle.
	GoroutinesStart int `json:"goroutines_start"`
	GoroutinesEnd   int `json:"goroutines_end"`
	// Passed is the overall verdict; Failures lists every violated gate.
	Passed   bool     `json:"passed"`
	Failures []string `json:"failures,omitempty"`
}

// check applies the acceptance gates and fills Failures.
func (r *Report) check(p Profile) {
	fail := func(format string, args ...any) {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	for _, run := range []struct {
		name string
		s    RunStats
	}{{"main", r.Main}, {"baseline", r.Baseline}} {
		if run.s.Mismatches > 0 {
			fail("%s: %d result(s) not bit-identical to reference", run.name, run.s.Mismatches)
		}
		budget := run.s.Jobs / 20
		if budget < 2 {
			budget = 2
		}
		if run.s.Errors > budget {
			fail("%s: %d job errors exceed the %d budget (samples: %v)",
				run.name, run.s.Errors, budget, run.s.ErrorSamples)
		}
		if run.s.LeakedResidentBytes != 0 {
			fail("%s: %d resident bytes leaked after all sessions closed", run.name, run.s.LeakedResidentBytes)
		}
		if run.s.LeakedStoreHandles != 0 {
			fail("%s: %d handles leaked in live worker stores", run.name, run.s.LeakedStoreHandles)
		}
	}
	if r.Main.Latency.P99Nanos > r.SLOP99Nanos {
		fail("main: p99 %s breaches the %s SLO",
			time.Duration(r.Main.Latency.P99Nanos), time.Duration(r.SLOP99Nanos))
	}
	if r.Main.ScaleUps < int64(p.MinScaleUps) {
		fail("main: %d scale-ups, need at least %d", r.Main.ScaleUps, p.MinScaleUps)
	}
	if r.Main.ScaleDowns < int64(p.MinScaleDowns) {
		fail("main: %d scale-downs, need at least %d", r.Main.ScaleDowns, p.MinScaleDowns)
	}
	if r.Main.Kills > 0 && r.Main.KillsRecovered == 0 {
		fail("main: none of %d kills recovered within %s", r.Main.Kills, recoveryTimeout)
	}
	if p.MinP99DegradationX > 0 && r.P99DegradationX < p.MinP99DegradationX {
		fail("baseline p99 degradation %.2fx below the %.2fx floor (the autoscaler should measurably matter)",
			r.P99DegradationX, p.MinP99DegradationX)
	}
	if r.GoroutinesEnd > r.GoroutinesStart+4 {
		fail("goroutine leak: %d at start, %d after teardown settle", r.GoroutinesStart, r.GoroutinesEnd)
	}
}

// WriteJSON writes the report to a file.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Fprint renders the report for a terminal.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "soak %s (seed %d): ", r.Profile, r.Seed)
	if r.Passed {
		fmt.Fprintln(w, "PASS")
	} else {
		fmt.Fprintln(w, "FAIL")
	}
	for _, run := range []struct {
		name string
		s    RunStats
	}{{"main (autoscaled)", r.Main}, {"baseline (static)", r.Baseline}} {
		s := run.s
		fmt.Fprintf(w, "  %-18s jobs=%d errors=%d mismatches=%d\n", run.name, s.Jobs, s.Errors, s.Mismatches)
		fmt.Fprintf(w, "    latency  %s\n", s.Latency)
		fmt.Fprintf(w, "    chaos    kills=%d recovered=%d recovery %s\n", s.Kills, s.KillsRecovered, s.Recovery)
		fmt.Fprintf(w, "    scaling  up=%d down=%d retired=%d stragglerRPCs=%d\n",
			s.ScaleUps, s.ScaleDowns, s.WorkersRetired, s.StragglerRPCs)
	}
	fmt.Fprintf(w, "  p99 degradation without autoscaler: %.2fx (SLO %s)\n",
		r.P99DegradationX, time.Duration(r.SLOP99Nanos))
	fmt.Fprintf(w, "  goroutines %d -> %d, leaked bytes main=%d baseline=%d\n",
		r.GoroutinesStart, r.GoroutinesEnd, r.Main.LeakedResidentBytes, r.Baseline.LeakedResidentBytes)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
}
