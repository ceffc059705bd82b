// GNMF collaborative filtering: factorize a Netflix-shaped rating matrix
// V ≈ W×H with the multiplicative updates of the paper's Appendix A, the
// workload of Figure 8. The rating data is a synthetic stand-in with the
// real dataset's Table 3 dimensions and density (scaled for a laptop).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"distme"
	"distme/internal/metrics"
)

func main() {
	// Netflix at 0.4% scale: ≈1920 users × 71 items, density preserved.
	scaled := distme.Netflix.Scaled(0.004)
	rng := rand.New(rand.NewSource(7))
	v := scaled.RatingMatrix(rng, 32)
	fmt.Printf("%s: %d users × %d items, %d ratings (density %.4f)\n",
		scaled.Name, v.Rows, v.Cols, v.NNZ(), v.Sparsity())

	cfg := distme.LaptopCluster()
	cfg.LocalWorkers = runtime.GOMAXPROCS(0)
	eng, err := distme.NewEngine(distme.EngineConfig{
		Cluster: cfg,
		// Track layouts so V's partitioning is reused across iterations —
		// the matrix-dependency optimization DistME shares with DMac.
		TrackLayouts: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := distme.GNMF(context.Background(), eng, v, distme.GNMFOptions{
		Rank:           8,
		Iterations:     10,
		Seed:           7,
		TrackObjective: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("10 iterations in %v\n", time.Since(start).Round(time.Millisecond))
	for i, obj := range res.Objectives {
		fmt.Printf("  iteration %2d: ‖V − W·H‖F = %.4f\n", i+1, obj)
	}
	fmt.Printf("W: %v\nH: %v\n", res.W, res.H)
	fmt.Printf("total shuffle: %s\n", metrics.FormatBytes(eng.Recorder().CommunicationBytes()))

	// Predict a rating: the (user, item) entry of W×H.
	w, h := res.W, res.H
	var pred float64
	for r := 0; r < w.Cols; r++ {
		pred += w.At(0, r) * h.At(r, 0)
	}
	fmt.Printf("predicted rating for (user 0, item 0): %.4f (observed %.4f)\n", pred, v.At(0, 0))
}
