package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/storage"
)

// chaosEnv builds an env whose cluster injects the given faults with a
// retry budget large enough to outlast the per-task fault bound.
func chaosEnv(t *testing.T, f cluster.Faults) Env {
	t.Helper()
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	cfg.TaskRetries = 4 // > MaxFaultsPerTask default (3)
	cfg.RetryBackoff = 100 * time.Microsecond
	cfg.Speculation = true
	cfg.Faults = f
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Env{Cluster: c}
}

// serialize writes a matrix in the deterministic storage format, the
// byte-exact fingerprint the chaos tests compare.
func serialize(t *testing.T, m *bmat.BlockMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := storage.Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosMatrixBitIdentical is the elastic-execution acceptance test: for
// every fault kind at 5% and 20% rates, across seeds, both CuboidMM and RMM
// must produce output byte-identical to the failure-free run, with retry
// work both present (when rates are high) and bounded.
func TestChaosMatrixBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := bmat.RandomDense(rng, 24, 20, 4)
	b := bmat.RandomDense(rng, 20, 16, 4)
	as := bmat.RandomSparse(rng, 24, 20, 4, 0.3)
	params := Params{P: 3, Q: 2, R: 2}

	baseCuboid, err := MultiplyCuboid(context.Background(), a, b, params, chaosEnv(t, cluster.Faults{}))
	if err != nil {
		t.Fatal(err)
	}
	wantCuboid := serialize(t, baseCuboid)
	baseRMM, err := MultiplyRMM(context.Background(), as, b, 6, chaosEnv(t, cluster.Faults{}))
	if err != nil {
		t.Fatal(err)
	}
	wantRMM := serialize(t, baseRMM)

	kinds := []struct {
		name string
		mk   func(rate float64, seed int64) cluster.Faults
	}{
		{"crash", func(r float64, s int64) cluster.Faults { return cluster.Faults{Seed: s, CrashRate: r} }},
		{"oom", func(r float64, s int64) cluster.Faults { return cluster.Faults{Seed: s, OOMRate: r} }},
		{"straggler", func(r float64, s int64) cluster.Faults {
			return cluster.Faults{Seed: s, StragglerRate: r, StragglerDelay: 2 * time.Millisecond}
		}},
		{"fetch", func(r float64, s int64) cluster.Faults { return cluster.Faults{Seed: s, FetchFailRate: r} }},
		{"mixed", func(r float64, s int64) cluster.Faults {
			return cluster.Faults{Seed: s, CrashRate: r, OOMRate: r / 2, StragglerRate: r,
				StragglerDelay: 2 * time.Millisecond, FetchFailRate: r}
		}},
	}
	for _, kind := range kinds {
		for _, rate := range []float64{0.05, 0.2} {
			for seed := int64(1); seed <= 3; seed++ {
				f := kind.mk(rate, seed)

				env := chaosEnv(t, f)
				got, err := MultiplyCuboid(context.Background(), a, b, params, env)
				if err != nil {
					t.Fatalf("cuboid %s rate %v seed %d: %v", kind.name, rate, seed, err)
				}
				if !bytes.Equal(serialize(t, got), wantCuboid) {
					t.Fatalf("cuboid %s rate %v seed %d: output differs from failure-free run",
						kind.name, rate, seed)
				}
				el := env.Cluster.Recorder().Elastic.Load()
				if el.TaskRetries > int64(params.Tasks()*4) {
					t.Fatalf("cuboid %s rate %v seed %d: %d retries exceed budget × tasks",
						kind.name, rate, seed, el.TaskRetries)
				}

				env = chaosEnv(t, f)
				got, err = MultiplyRMM(context.Background(), as, b, 6, env)
				if err != nil {
					t.Fatalf("rmm %s rate %v seed %d: %v", kind.name, rate, seed, err)
				}
				if !bytes.Equal(serialize(t, got), wantRMM) {
					t.Fatalf("rmm %s rate %v seed %d: output differs from failure-free run",
						kind.name, rate, seed)
				}
			}
		}
	}
}

// TestChaosLineageRecomputation drives the fetch-failure rate high enough
// that partitions are declared lost and recomputed, and checks the result
// still matches byte-for-byte.
func TestChaosLineageRecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 12, 4)
	params := Params{P: 2, Q: 2, R: 2}

	want := serialize(t, mustMultiply(t, a, b, params, chaosEnv(t, cluster.Faults{})))

	env := chaosEnv(t, cluster.Faults{Seed: 5, FetchFailRate: 0.9})
	got, err := MultiplyCuboid(context.Background(), a, b, params, env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, got), want) {
		t.Fatal("recomputed partials changed the output bytes")
	}
	el := env.Cluster.Recorder().Elastic.Load()
	if el.RecomputedPartials == 0 {
		t.Fatal("fetch-fail rate 0.9 should have forced lineage recomputation")
	}
	if el.FetchRetries == 0 {
		t.Fatal("fetch retries should be counted")
	}
}

func mustMultiply(t *testing.T, a, b *bmat.BlockMatrix, p Params, env Env) *bmat.BlockMatrix {
	t.Helper()
	c, err := MultiplyCuboid(context.Background(), a, b, p, env)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSimulateFetch(t *testing.T) {
	// No failures: zero retries, nothing lost.
	r, lost := simulateFetch(func(int) bool { return false }, 2)
	if r != 0 || lost {
		t.Fatalf("clean fetch: retries=%d lost=%v", r, lost)
	}
	// Two transient failures under a budget of two: retried, not lost.
	r, lost = simulateFetch(func(a int) bool { return a < 2 }, 2)
	if r != 2 || lost {
		t.Fatalf("transient fetch: retries=%d lost=%v", r, lost)
	}
	// Persistent failure: the partition is declared lost after the budget.
	r, lost = simulateFetch(func(int) bool { return true }, 2)
	if !lost {
		t.Fatal("persistent failure should mark the partition lost")
	}
	if r != 3 {
		t.Fatalf("lost after %d retries, want maxTransient+1 = 3", r)
	}
}
