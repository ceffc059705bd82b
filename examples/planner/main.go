// Planner: express the GNMF H-update as a declarative plan (the paper's
// §5 Scala-API path), watch the compiler push transposes to the leaves and
// share the Wᵀ subterm, then execute the expression on the engine, which
// compiles it to that same DAG.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"runtime"

	"distme"
)

func main() {
	// H' = H ∘ (Wᵀ·V) ⊘ (Wᵀ·W·H) — written naively, with a gratuitous
	// double transpose and a transposed product for the compiler to clean.
	wt := distme.PlanT(distme.PlanVar("W"))
	naive := distme.PlanEMul(
		distme.PlanT(distme.PlanT(distme.PlanVar("H"))), // (Hᵀ)ᵀ → H
		distme.PlanEDiv(
			distme.PlanT(distme.PlanMul(distme.PlanT(distme.PlanVar("V")), distme.PlanVar("W"))), // (Vᵀ·W)ᵀ → Wᵀ·V
			distme.PlanMul(distme.PlanMul(wt, distme.PlanVar("W")), distme.PlanVar("H")),
			1e-9,
		),
	)

	prog, err := distme.CompilePlan(naive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimized physical plan (transposes pushed to leaves, Wᵀ shared):")
	fmt.Print(prog.Explain())

	cfg := distme.LaptopCluster()
	cfg.LocalWorkers = runtime.GOMAXPROCS(0)
	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg, TrackLayouts: true})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(21))
	v := distme.Netflix.Scaled(0.004).RatingMatrix(rng, 32)
	w := distme.RandomDense(rng, v.Rows, 8, 32)
	h := distme.RandomDense(rng, 8, v.Cols, 32)

	// Run compiles the expression itself; CompilePlan above only shows what
	// it will execute.
	hNext, _, err := eng.Run(context.Background(), naive, map[string]*distme.Matrix{"V": v, "W": w, "H": h})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nH' = %v\n", hNext)
	fmt.Printf("inputs the plan needs: %v\n", prog.Vars())
	fmt.Printf("nodes after CSE: %d (reused %d times)\n", prog.NumNodes(), prog.SharedNodes())

	// Full GNMF through compiled plans matches the direct implementation.
	res, err := distme.GNMFPlanned(context.Background(), eng, v, distme.GNMFOptions{Rank: 8, Iterations: 3, Seed: 21, TrackObjective: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nGNMF via compiled plans, objective per iteration:")
	for i, obj := range res.Objectives {
		fmt.Printf("  %d: %.4f\n", i+1, obj)
	}
}
