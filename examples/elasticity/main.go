// Elasticity: the same multiplication under a shrinking per-task memory
// budget θt. The optimizer answers with progressively finer cuboid
// partitionings — trading communication for feasibility — until even a
// single voxel cannot fit, which is the boundary where every method dies.
// This is the paper's core claim: CuboidMM spans the whole spectrum between
// the fast-but-fragile corner methods and the scalable-but-slow RMM.
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
	rng := rand.New(rand.NewSource(11))
	a := distme.RandomDense(rng, 768, 768, 64)
	b := distme.RandomDense(rng, 768, 768, 64)
	s := distme.ShapeOf(a, b)
	fmt.Printf("shape: %d×%d×%d blocks, |A|=|B|=%s, |C|=%s\n\n",
		s.I, s.K, s.J, metrics.FormatBytes(s.ABytes), metrics.FormatBytes(s.CBytes))

	fmt.Printf("%-12s %-12s %-8s %-16s %s\n", "θt", "(P*,Q*,R*)", "tasks", "communication", "outcome")
	for θt := int64(16 << 20); θt >= 8<<10; θt /= 4 {
		cfg := distme.LaptopCluster()
		cfg.LocalWorkers = runtime.GOMAXPROCS(0)
		cfg.Nodes, cfg.TasksPerNode = 3, 3
		cfg.TaskMemBytes = θt
		eng, err := distme.NewEngine(distme.EngineConfig{Cluster: cfg})
		if err != nil {
			log.Fatal(err)
		}
		_, report, err := eng.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
			map[string]*distme.Matrix{"a": a, "b": b})
		if err != nil {
			fmt.Printf("%-12s %-12s %-8s %-16s %v\n",
				metrics.FormatBytes(θt), "-", "-", "-", err)
			continue
		}
		fmt.Printf("%-12s %-12v %-8d %-16s ok\n",
			metrics.FormatBytes(θt), report.Params, report.Params.Tasks(),
			metrics.FormatBytes(report.Comm.CommunicationBytes()))
	}
	fmt.Println("\nshrinking θt forces more, smaller cuboids (higher P·Q·R) and more")
	fmt.Println("communication — elasticity is this trade made automatically (paper §3.2).")
}
