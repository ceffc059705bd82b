// Quickstart: create an engine, multiply two block matrices with the
// automatically optimized CuboidMM partitioning, and inspect the execution
// report — the five-minute tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"runtime"

	"distme"
	"distme/internal/metrics"
)

func main() {
	// A laptop-scale cluster: same 9×10 slot topology as the paper's
	// testbed, budgets sized for a single machine.
	cfg := distme.LaptopCluster()
	cfg.LocalWorkers = runtime.GOMAXPROCS(0)

	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg})
	if err != nil {
		log.Fatal(err)
	}

	// Two 1024×1024 dense matrices in 64×64 blocks.
	rng := rand.New(rand.NewSource(1))
	a := distme.RandomDense(rng, 1024, 1024, 64)
	b := distme.RandomDense(rng, 1024, 1024, 64)
	fmt.Println("A:", a)
	fmt.Println("B:", b)

	// Multiply with the default strategy: the engine optimizes (P,Q,R) for
	// the cluster's memory budget and slot count (the paper's Eq. 2), then
	// runs the three steps of distributed multiplication.
	c, report, err := eng.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
		map[string]*distme.Matrix{"a": a, "b": b})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("C:", c)
	fmt.Printf("method: %v with (P,Q,R) = %v (%d tasks)\n",
		report.Method, report.Params, report.Params.Tasks())
	fmt.Printf("repartition shuffled: %s\n", metrics.FormatBytes(report.Comm.RepartitionBytes))
	fmt.Printf("aggregation shuffled: %s\n", metrics.FormatBytes(report.Comm.AggregationBytes))
	fmt.Printf("elapsed: %v\n", report.Elapsed.Round(1e6))

	// Spot-check one element against a direct dot product.
	var want float64
	for k := 0; k < a.Cols; k++ {
		want += a.At(3, k) * b.At(k, 5)
	}
	fmt.Printf("C[3,5] = %.6f (direct: %.6f)\n", c.At(3, 5), want)
}
