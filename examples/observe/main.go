// Observe: run one traced multiply, walk the resulting span tree, and write
// a Chrome trace_event timeline — the five-minute tour of the observability
// surface documented in docs/OBSERVABILITY.md.
//
// Load trace.json into chrome://tracing or https://ui.perfetto.dev to see
// the repartition / local-multiply / aggregation phases, one task span per
// cuboid, and the simulated GPU's device timeline grafted underneath.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"distme"
	"distme/internal/gpu"
)

func main() {
	cfg := distme.LaptopCluster()
	cfg.LocalWorkers = runtime.GOMAXPROCS(0)

	// A tracer on the engine config records a span tree per multiply;
	// without one, tracing is off and costs nothing. The local multiplier is
	// the simulated GPU, recording its stream timeline for the graft below.
	tracer := distme.NewTracer()
	g := gpu.NewMultiplier(gpu.TaskSpec(cfg))
	g.Device.EnableTrace(1 << 15)
	eng, err := distme.NewEngine(distme.EngineConfig{
		Cluster: cfg,
		Local:   g,
		Tracer:  tracer,
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	a := distme.RandomDense(rng, 768, 768, 64)
	b := distme.RandomDense(rng, 768, 768, 64)

	_, report, err := eng.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
		map[string]*distme.Matrix{"a": a, "b": b})
	if err != nil {
		log.Fatal(err)
	}

	// Report.Trace holds just this multiply's spans, already snapshotted;
	// the device's timeline is grafted under its root span.
	tr := report.Trace
	g.Device.Graft(tracer, tr)
	fmt.Printf("multiply %v (P,Q,R)=%v recorded %d spans\n",
		report.Method, report.Params, len(tr.Spans))

	// Group spans by name to see where the time went — the same numbers the
	// Chrome timeline shows visually. Device spans are named per block
	// ("h2d A(3,1)", "kernel t4 sub(0,2,1)"), so bucket those by their
	// operation prefix instead.
	type bucket struct {
		name  string
		n     int
		total float64
	}
	byName := map[string]*bucket{}
	for _, s := range tr.Spans {
		name := s.Name
		if s.Kind.String() == "device" {
			name = strings.Fields(s.Name)[0] + " (device)"
		}
		b := byName[name]
		if b == nil {
			b = &bucket{name: name}
			byName[name] = b
		}
		b.n++
		b.total += s.End.Sub(s.Start).Seconds() * 1e3
	}
	buckets := make([]*bucket, 0, len(byName))
	for _, b := range byName {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].total > buckets[j].total })
	fmt.Println("\nspan name                 count   total ms")
	for _, b := range buckets {
		fmt.Printf("%-24s %6d   %8.2f\n", b.name, b.n, b.total)
	}

	if err := tr.WriteFile("trace.json"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote trace.json — open it in chrome://tracing or ui.perfetto.dev")
}
