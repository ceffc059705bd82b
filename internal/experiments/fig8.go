package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"distme/internal/cluster"
	"distme/internal/ml"
	"distme/internal/systems"
	"distme/internal/workload"
)

// GNMFScale is the default dataset scale factor for measured GNMF runs: the
// Table 3 dimensions shrink by this factor with density preserved, so a
// laptop executes the same query plan the paper timed on the cluster.
const GNMFScale = 0.002

// Fig8 regenerates Figures 8(a–c): GNMF on a Table 3 dataset, accumulated
// execution time per iteration, for all seven systems — measured for real
// on the scaled synthetic stand-in.
func Fig8(d workload.Dataset, scale float64, iterations int, seed int64) (*Table, error) {
	if scale <= 0 {
		scale = GNMFScale
	}
	scaled := d.Scaled(scale)
	t := &Table{
		ID:      fig8ID(d),
		Title:   fmt.Sprintf("GNMF on %s (measured, %d users x %d items, density %.4f)", scaled.Name, scaled.Users, scaled.Items, scaled.Density()),
		Columns: []string{"system", "method mix", "total", "per-iteration (accumulated)"},
	}
	rng := rand.New(rand.NewSource(seed))
	blockSize := pickBlockSize(scaled)
	v := scaled.RatingMatrix(rng, blockSize)

	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = runtime.GOMAXPROCS(0)
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0

	rank := pickRank(scaled, blockSize)
	for _, p := range systems.All() {
		sys, err := systems.New(p, cfg)
		if err != nil {
			return nil, err
		}
		var cum []string
		var total time.Duration
		start := time.Now()
		ok := true
		for it := 1; it <= iterations; it++ {
			if _, err := ml.GNMF(context.Background(), sys, v, ml.GNMFOptions{Rank: rank, Iterations: 1, Seed: seed + int64(it)}); err != nil {
				cum = append(cum, err.Error())
				ok = false
				break
			}
			total = time.Since(start)
			cum = append(cum, total.Round(time.Millisecond).String())
		}
		status := total.Round(time.Millisecond).String()
		if !ok {
			status = "failed"
		}
		t.AddRow(p.Name, methodMix(p), status, joinCells(cum))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("rank=%d, block=%d; the real datasets are proprietary — synthetic stand-ins carry Table 3's dimensions and density scaled by %g", rank, blockSize, scale))
	return t, nil
}

func fig8ID(d workload.Dataset) string {
	switch d.Name {
	case workload.MovieLens.Name:
		return "fig8a"
	case workload.Netflix.Name:
		return "fig8b"
	case workload.YahooMusic.Name:
		return "fig8c"
	default:
		return "fig8"
	}
}

// pickBlockSize keeps the scaled grid a sensible handful of blocks.
func pickBlockSize(d workload.Dataset) int {
	small := d.Items
	if d.Users < small {
		small = d.Users
	}
	bs := int(small / 6)
	if bs < 4 {
		bs = 4
	}
	if bs > 128 {
		bs = 128
	}
	return bs
}

// pickRank scales the paper's factor dimension 200 down with the dataset.
func pickRank(d workload.Dataset, blockSize int) int {
	r := blockSize / 2
	if r < 2 {
		r = 2
	}
	return r
}

// methodMix summarizes what strategies the profile will pick for GNMF's
// product shapes.
func methodMix(p systems.Profile) string {
	switch {
	case p.Name == "DistME(C)" || p.Name == "DistME(G)":
		return "CuboidMM(auto)"
	default:
		return "BMM/CPMM per chooser"
	}
}

func joinCells(cells []string) string {
	out := ""
	for i, c := range cells {
		if i > 0 {
			out += " "
		}
		out += c
	}
	return out
}

// Fig8d regenerates Figure 8(d): GNMF on YahooMusic while sweeping the
// factor dimension, measured at scale. At paper scale the sweep is
// {200, 500, 1000}; the scaled ranks keep the same 1:2.5:5 proportions.
func Fig8d(scale float64, seed int64) (*Table, error) {
	if scale <= 0 {
		scale = GNMFScale
	}
	scaled := workload.YahooMusic.Scaled(scale)
	t := &Table{
		ID:      "fig8d",
		Title:   fmt.Sprintf("GNMF on %s while varying the factor dimension (measured)", scaled.Name),
		Columns: []string{"factor dim", "SystemML(C)", "SystemML(G)", "DistME(C)", "DistME(G)"},
	}
	rng := rand.New(rand.NewSource(seed))
	blockSize := pickBlockSize(scaled)
	v := scaled.RatingMatrix(rng, blockSize)

	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = runtime.GOMAXPROCS(0)
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0

	base := pickRank(scaled, blockSize)
	ranks := []int{base, base * 5 / 2, base * 5}
	for _, rank := range ranks {
		row := []interface{}{fmt.Sprintf("%d", rank)}
		for _, p := range []systems.Profile{systems.SystemMLC, systems.SystemMLG, systems.DistMEC, systems.DistMEG} {
			sys, err := systems.New(p, cfg)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			_, err = ml.GNMF(context.Background(), sys, v, ml.GNMFOptions{Rank: rank, Iterations: 2, Seed: seed})
			if err != nil {
				row = append(row, "failed")
				continue
			}
			row = append(row, time.Since(start).Round(time.Millisecond).String())
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "paper: MatFast O.O.M. beyond factor dimension 500; DistME(G) outperforms SystemML(G) by 3.88x at 1000")
	return t, nil
}
