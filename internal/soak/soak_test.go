package soak

import (
	"testing"
	"time"
)

// TestRunShortProfile puts the chaos schedule under `go test -race ./...`:
// one burst/idle cycle (cycle 0 is the clean warm-up: the throttled link is
// live and the autoscaler scales up, but no worker is killed), measured and
// baseline, with every wall-clock gate opened wide. What it holds is the
// deterministic part of the contract: every job bit-identical to its
// reference, nothing resident after teardown, goroutines settled.
func TestRunShortProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the soak schedule for several seconds")
	}
	p := Profile{
		Name:           "test",
		Seed:           42,
		InitialWorkers: 3,
		MinWorkers:     2,
		MaxWorkers:     5,
		Cycles:         1,
		BurstFor:       time.Second,
		IdleFor:        time.Second,
		Submitters:     4,
		JobTimeout:     20 * time.Second,
		SLOP99:         time.Minute,
	}
	r, err := Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]RunStats{"main": r.Main, "baseline": r.Baseline} {
		if s.Jobs == 0 {
			t.Errorf("%s: no jobs ran", name)
		}
		if s.Mismatches != 0 || s.LeakedResidentBytes != 0 || s.LeakedStoreHandles != 0 {
			t.Errorf("%s: %d mismatches, %d resident bytes and %d store handles leaked",
				name, s.Mismatches, s.LeakedResidentBytes, s.LeakedStoreHandles)
		}
	}
	if r.GoroutinesEnd > r.GoroutinesStart+4 {
		t.Errorf("goroutines did not settle: %d at start, %d after teardown", r.GoroutinesStart, r.GoroutinesEnd)
	}
	t.Logf("main %d jobs (%d errors, %d scale-ups, %d scale-downs), baseline %d jobs (%d errors)",
		r.Main.Jobs, r.Main.Errors, r.Main.ScaleUps, r.Main.ScaleDowns, r.Baseline.Jobs, r.Baseline.Errors)
}
