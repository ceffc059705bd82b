// PageRank: run the damped power iteration over a synthetic web graph
// through the engine's distributed sparse×dense multiply — one of the
// intro's motivating linear-algebra applications, and a tall-thin product
// shape (n×n times n×1) that exercises a different corner of the optimizer
// than square GEMM.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sort"

	"distme"
)

func main() {
	cfg := distme.LaptopCluster()
	cfg.LocalWorkers = runtime.GOMAXPROCS(0)
	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg})
	if err != nil {
		log.Fatal(err)
	}

	// A 512-node graph: mostly random sparse edges plus a few celebrity
	// nodes that everyone links to.
	const n = 512
	rng := rand.New(rand.NewSource(33))
	adj := distme.RandomSparse(rng, n, n, 64, 0.01)

	res, err := distme.PageRank(context.Background(), eng, adj, distme.PageRankOptions{
		Damping:       0.85,
		MaxIterations: 100,
		Tolerance:     1e-10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged in %d iterations (final delta %.2e)\n", res.Iterations, res.Delta)

	type ranked struct {
		node int
		rank float64
	}
	var top []ranked
	for i := 0; i < n; i++ {
		top = append(top, ranked{i, res.Ranks.At(i, 0)})
	}
	sort.Slice(top, func(a, b int) bool { return top[a].rank > top[b].rank })
	fmt.Println("top 5 nodes:")
	for _, r := range top[:5] {
		fmt.Printf("  node %3d: %.6f\n", r.node, r.rank)
	}
	var sum float64
	for _, r := range top {
		sum += r.rank
	}
	fmt.Printf("rank mass: %.9f (should be 1)\n", sum)
}
