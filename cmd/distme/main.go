// Command distme is the engine's command-line interface.
//
// Subcommands:
//
//	multiply  run one distributed multiplication and print the report
//	optimize  print the optimal (P*,Q*,R*) for a multiplication shape
//	gnmf      factorize a synthetic rating matrix with GNMF
//	gen       generate a random block matrix file
//	info      describe a block matrix file
//
// Run `distme <subcommand> -h` for flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"distme"
	"distme/internal/distnet"
	"distme/internal/gpu"
	"distme/internal/metrics"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "multiply":
		err = cmdMultiply(os.Args[2:])
	case "optimize":
		err = cmdOptimize(os.Args[2:])
	case "gnmf":
		err = cmdGNMF(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "rmul":
		err = cmdRemoteMultiply(os.Args[2:])
	case "pagerank":
		err = cmdPageRank(os.Args[2:])
	case "als":
		err = cmdALS(os.Args[2:])
	case "svd":
		err = cmdSVD(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "distme: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "distme: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: distme <subcommand> [flags]

subcommands:
  multiply   run one distributed multiplication and print the report
  optimize   print the optimal (P*,Q*,R*) for a multiplication shape
  gnmf       factorize a synthetic rating matrix with GNMF
  gen        generate a random block matrix file
  info       describe a block matrix file
  rmul       multiply on remote distme-worker processes over TCP
  pagerank   run PageRank over a synthetic graph
  als        alternating-least-squares factorization
  svd        randomized truncated SVD
  explain    show the plan for a multiplication without running it`)
}

// laptopConfig builds the single-machine cluster used by the CLI.
func laptopConfig(taskMemMB int64) distme.ClusterConfig {
	cfg := distme.LaptopCluster()
	cfg.LocalWorkers = runtime.GOMAXPROCS(0)
	if taskMemMB > 0 {
		cfg.TaskMemBytes = taskMemMB << 20
	}
	cfg.DiskCapacityBytes = 0
	return cfg
}

func cmdMultiply(args []string) error {
	fs := flag.NewFlagSet("multiply", flag.ExitOnError)
	m := fs.Int("m", 512, "rows of A")
	k := fs.Int("k", 512, "columns of A / rows of B")
	n := fs.Int("n", 512, "columns of B")
	bs := fs.Int("block", 64, "block size")
	sparsity := fs.Float64("sparsity", 1.0, "density of inputs (1 = dense)")
	method := fs.String("method", "auto", "auto|bmm|cpmm|rmm")
	useGPU := fs.Bool("gpu", false, "use the simulated GPU for local multiplication")
	taskMemMB := fs.Int64("taskmem", 0, "per-task memory budget θt in MiB (0 = default)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, dev := engineConfig(laptopConfig(*taskMemMB), *useGPU)
	eng, err := distme.NewEngine(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	var a, b *distme.Matrix
	if *sparsity >= 1 {
		a = distme.RandomDense(rng, *m, *k, *bs)
		b = distme.RandomDense(rng, *k, *n, *bs)
	} else {
		a = distme.RandomSparse(rng, *m, *k, *bs, *sparsity)
		b = distme.RandomSparse(rng, *k, *n, *bs, *sparsity)
	}

	opts := distme.MulOptions{}
	switch strings.ToLower(*method) {
	case "auto":
		opts.Method = distme.MethodAuto
	case "bmm":
		opts.Method = distme.MethodBMM
	case "cpmm":
		opts.Method = distme.MethodCPMM
	case "rmm":
		opts.Method = distme.MethodRMM
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	start := time.Now()
	c, report, err := eng.Run(context.Background(), distme.PlanMul(distme.PlanVar("a"), distme.PlanVar("b")),
		map[string]*distme.Matrix{"a": a, "b": b}, distme.WithMulOptions(opts))
	if err != nil {
		return err
	}
	fmt.Printf("C = A x B: %dx%d, %d blocks, nnz=%d\n", c.Rows, c.Cols, c.NumBlocks(), c.NNZ())
	fmt.Printf("method:       %v  params=%v\n", report.Method, report.Params)
	fmt.Printf("elapsed:      %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("repartition:  %s\n", metrics.FormatBytes(report.Comm.RepartitionBytes))
	fmt.Printf("aggregation:  %s\n", metrics.FormatBytes(report.Comm.AggregationBytes))
	if dev != nil {
		st := dev.Stats()
		fmt.Printf("pci-e:        %s (utilization %.1f%%)\n",
			metrics.FormatBytes(st.PCIEBytes()), 100*st.Utilization())
	}
	return nil
}

// engineConfig configures an engine on the given cluster. With useGPU its
// local multiplication runs on one task's slice of the cluster's simulated
// GPUs, whose device it also returns; on the CPU the device is nil.
func engineConfig(cl distme.ClusterConfig, useGPU bool) (distme.EngineConfig, *gpu.Device) {
	cfg := distme.EngineConfig{Cluster: cl}
	if !useGPU {
		return cfg, nil
	}
	m := gpu.NewMultiplier(gpu.TaskSpec(cl))
	cfg.Local = m
	return cfg, m.Device
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	m := fs.Int64("m", 100_000, "rows of A (elements)")
	k := fs.Int64("k", 100_000, "columns of A / rows of B (elements)")
	n := fs.Int64("n", 100_000, "columns of B (elements)")
	bs := fs.Int64("block", 1000, "block size")
	memGB := fs.Float64("taskmem", 6, "per-task memory budget θt in GB")
	nodes := fs.Int("nodes", 9, "cluster nodes M")
	tpn := fs.Int("tasks", 10, "concurrent tasks per node Tc")
	sparsity := fs.Float64("sparsity", 1.0, "density of inputs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	i := int((*m + *bs - 1) / *bs)
	j := int((*n + *bs - 1) / *bs)
	kk := int((*k + *bs - 1) / *bs)
	bytesOf := func(r, c int64) int64 {
		if *sparsity > 0 && *sparsity < 0.5 {
			return int64(float64(r*c)**sparsity) * 16
		}
		return r * c * 8
	}
	s := distme.Shape{
		I: i, J: j, K: kk,
		ABytes: bytesOf(*m, *k),
		BBytes: bytesOf(*k, *n),
		CBytes: *m * *n * 8,
	}
	slots := *nodes * *tpn
	p, err := distme.Optimize(s, int64(*memGB*1e9), slots)
	if err != nil {
		return err
	}
	fmt.Printf("shape:        %dx%dx%d blocks (block=%d)\n", s.I, s.K, s.J, *bs)
	fmt.Printf("(P*,Q*,R*):   %v  (%d tasks over %d slots)\n", p, p.Tasks(), slots)
	fmt.Printf("Eq.(4) cost:  %s\n", metrics.FormatBytes(int64(s.CostBytes(p))))
	fmt.Printf("Eq.(3) mem:   %s per task (budget %s)\n",
		metrics.FormatBytes(int64(s.MemBytes(p))), metrics.FormatBytes(int64(*memGB*1e9)))
	return nil
}

func cmdGNMF(args []string) error {
	fs := flag.NewFlagSet("gnmf", flag.ExitOnError)
	dataset := fs.String("dataset", "netflix", "movielens|netflix|yahoomusic")
	ratings := fs.String("ratings", "", "load real ratings from a 'user item rating' file instead of generating")
	scale := fs.Float64("scale", 0.002, "dataset scale factor")
	rank := fs.Int("rank", 8, "factor dimension")
	iters := fs.Int("iters", 5, "iterations")
	useGPU := fs.Bool("gpu", false, "use the simulated GPU")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var v *distme.Matrix
	var name string
	if *ratings != "" {
		f, err := os.Open(*ratings)
		if err != nil {
			return err
		}
		defer f.Close()
		v, err = distme.LoadRatings(f, 64)
		if err != nil {
			return err
		}
		name = *ratings
	} else {
		d, err := datasetByName(*dataset)
		if err != nil {
			return err
		}
		scaled := d.Scaled(*scale)
		rng := rand.New(rand.NewSource(*seed))
		blockSize := int(scaled.Items / 8)
		if blockSize < 4 {
			blockSize = 4
		}
		v = scaled.RatingMatrix(rng, blockSize)
		name = scaled.Name
	}
	fmt.Printf("V: %s → %d users x %d items, %d ratings (density %.5f)\n",
		name, v.Rows, v.Cols, v.NNZ(), v.Sparsity())

	cfg, _ := engineConfig(laptopConfig(0), *useGPU)
	cfg.TrackLayouts = true
	eng, err := distme.NewEngine(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := distme.GNMF(context.Background(), eng, v, distme.GNMFOptions{
		Rank: *rank, Iterations: *iters, Seed: *seed, TrackObjective: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("GNMF rank=%d, %d iterations in %v\n", *rank, *iters, time.Since(start).Round(time.Millisecond))
	for i, obj := range res.Objectives {
		fmt.Printf("  iteration %2d: ||V - W·H||F = %.4f\n", i+1, obj)
	}
	fmt.Printf("communication: %s\n", metrics.FormatBytes(eng.Recorder().CommunicationBytes()))
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	rows := fs.Int("rows", 1024, "rows")
	cols := fs.Int("cols", 1024, "columns")
	bs := fs.Int("block", 64, "block size")
	sparsity := fs.Float64("sparsity", 1.0, "density (1 = dense)")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "matrix.dmeb", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	var m *distme.Matrix
	if *sparsity >= 1 {
		m = distme.RandomDense(rng, *rows, *cols, *bs)
	} else {
		m = distme.RandomSparse(rng, *rows, *cols, *bs, *sparsity)
	}
	if err := distme.SaveMatrixFile(*out, m); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %v\n", *out, m)
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: distme info <file>")
	}
	m, err := distme.LoadMatrixFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d x %d, block=%d, grid %dx%d\n", fs.Arg(0), m.Rows, m.Cols, m.BlockSize, m.IB, m.JB)
	fmt.Printf("blocks stored: %d, nnz: %d (density %.5f)\n", m.NumBlocks(), m.NNZ(), m.Sparsity())
	fmt.Printf("stored bytes:  %s (dense would be %s)\n",
		metrics.FormatBytes(m.StoredBytes()), metrics.FormatBytes(m.DenseBytes()))
	return nil
}

func cmdRemoteMultiply(args []string) error {
	fs := flag.NewFlagSet("rmul", flag.ExitOnError)
	workers := fs.String("workers", "", "comma-separated worker addresses (distme-worker processes)")
	m := fs.Int("m", 512, "rows of A")
	k := fs.Int("k", 512, "columns of A / rows of B")
	n := fs.Int("n", 512, "columns of B")
	bs := fs.Int("block", 64, "block size")
	aFile := fs.String("a", "", "load A from a .dmeb file instead of generating")
	bFile := fs.String("b", "", "load B from a .dmeb file instead of generating")
	memGB := fs.Float64("workermem", 1, "per-worker memory budget in GB for the optimizer")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers == "" {
		return fmt.Errorf("rmul: -workers required (start distme-worker processes first)")
	}
	d, err := distnet.DialOptions(strings.Split(*workers, ","), distnet.Options{})
	if err != nil {
		return err
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(*seed))
	var a, b *distme.Matrix
	if *aFile != "" {
		if a, err = distme.LoadMatrixFile(*aFile); err != nil {
			return err
		}
	} else {
		a = distme.RandomDense(rng, *m, *k, *bs)
	}
	if *bFile != "" {
		if b, err = distme.LoadMatrixFile(*bFile); err != nil {
			return err
		}
	} else {
		b = distme.RandomDense(rng, *k, *n, *bs)
	}
	start := time.Now()
	c, params, err := d.Execute(context.Background(), a, b, distnet.MultiplyOptions{WorkerMemBytes: int64(*memGB * 1e9)})
	if err != nil {
		return err
	}
	sent, recv := d.WireBytes()
	fmt.Printf("C = A x B on %d workers: %dx%d, params %v\n", d.Workers(), c.Rows, c.Cols, params)
	fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("wire traffic: sent %s, received %s (real socket bytes)\n",
		metrics.FormatBytes(sent), metrics.FormatBytes(recv))
	return nil
}

func cmdPageRank(args []string) error {
	fs := flag.NewFlagSet("pagerank", flag.ExitOnError)
	n := fs.Int("n", 512, "graph size (nodes)")
	density := fs.Float64("density", 0.01, "edge density")
	iters := fs.Int("iters", 100, "max iterations")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: laptopConfig(0)})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	adj := distme.RandomSparse(rng, *n, *n, 64, *density)
	res, err := distme.PageRank(context.Background(), eng, adj, distme.PageRankOptions{MaxIterations: *iters})
	if err != nil {
		return err
	}
	fmt.Printf("PageRank over %d nodes: converged in %d iterations (delta %.2e)\n",
		*n, res.Iterations, res.Delta)
	best, bestRank := 0, 0.0
	for i := 0; i < *n; i++ {
		if r := res.Ranks.At(i, 0); r > bestRank {
			best, bestRank = i, r
		}
	}
	fmt.Printf("top node: %d with rank %.6f\n", best, bestRank)
	return nil
}

func cmdALS(args []string) error {
	fs := flag.NewFlagSet("als", flag.ExitOnError)
	dataset := fs.String("dataset", "netflix", "movielens|netflix|yahoomusic")
	scale := fs.Float64("scale", 0.002, "dataset scale factor")
	rank := fs.Int("rank", 8, "factor dimension")
	iters := fs.Int("iters", 5, "iterations")
	lambda := fs.Float64("lambda", 0.1, "ridge regularizer")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := datasetByName(*dataset)
	if err != nil {
		return err
	}
	scaled := d.Scaled(*scale)
	rng := rand.New(rand.NewSource(*seed))
	blockSize := int(scaled.Items / 8)
	if blockSize < 4 {
		blockSize = 4
	}
	v := scaled.RatingMatrix(rng, blockSize)
	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: laptopConfig(0), TrackLayouts: true})
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := distme.ALS(context.Background(), eng, v, distme.ALSOptions{
		Rank: *rank, Iterations: *iters, Lambda: *lambda, Seed: *seed, TrackObjective: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ALS on %s (%dx%d): rank=%d λ=%g, %d iterations in %v\n",
		scaled.Name, v.Rows, v.Cols, *rank, *lambda, *iters, time.Since(start).Round(time.Millisecond))
	for i, obj := range res.Objectives {
		fmt.Printf("  iteration %2d: objective = %.4f\n", i+1, obj)
	}
	return nil
}

func cmdSVD(args []string) error {
	fs := flag.NewFlagSet("svd", flag.ExitOnError)
	m := fs.Int("m", 512, "rows")
	n := fs.Int("n", 384, "columns")
	bs := fs.Int("block", 64, "block size")
	rank := fs.Int("rank", 8, "singular triplets to compute")
	power := fs.Int("power", 2, "power iterations")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: laptopConfig(0)})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	a := distme.RandomDense(rng, *m, *n, *bs)
	start := time.Now()
	res, err := distme.SVD(context.Background(), eng, a, distme.SVDOptions{
		Rank: *rank, Oversample: 8, PowerIterations: *power, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("randomized SVD of %dx%d, rank %d in %v\n", *m, *n, *rank, time.Since(start).Round(time.Millisecond))
	fmt.Printf("singular values: ")
	for _, s := range res.S {
		fmt.Printf("%.3f ", s)
	}
	fmt.Println()
	return nil
}

func datasetByName(name string) (distme.Dataset, error) {
	switch strings.ToLower(name) {
	case "movielens":
		return distme.MovieLens, nil
	case "netflix":
		return distme.Netflix, nil
	case "yahoomusic":
		return distme.YahooMusic, nil
	default:
		return distme.Dataset{}, fmt.Errorf("unknown dataset %q", name)
	}
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	m := fs.Int("m", 512, "rows of A")
	k := fs.Int("k", 512, "columns of A / rows of B")
	n := fs.Int("n", 512, "columns of B")
	bs := fs.Int("block", 64, "block size")
	sparsity := fs.Float64("sparsity", 1.0, "density of inputs (1 = dense)")
	method := fs.String("method", "auto", "auto|bmm|cpmm|rmm")
	useGPU := fs.Bool("gpu", false, "include the GPU subcuboid plan")
	taskMemMB := fs.Int64("taskmem", 0, "per-task memory budget θt in MiB (0 = default)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl := laptopConfig(*taskMemMB)
	eng, err := distme.NewEngine(distme.EngineConfig{Cluster: cl})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	var a, b *distme.Matrix
	if *sparsity >= 1 {
		a = distme.RandomDense(rng, *m, *k, *bs)
		b = distme.RandomDense(rng, *k, *n, *bs)
	} else {
		a = distme.RandomSparse(rng, *m, *k, *bs, *sparsity)
		b = distme.RandomSparse(rng, *k, *n, *bs, *sparsity)
	}
	var mth distme.Method
	switch strings.ToLower(*method) {
	case "auto":
		mth = distme.MethodAuto
	case "bmm":
		mth = distme.MethodBMM
	case "cpmm":
		mth = distme.MethodCPMM
	case "rmm":
		mth = distme.MethodRMM
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	ex, err := eng.Explain(a, b, distme.MulOptions{Method: mth})
	if err != nil {
		return err
	}
	fmt.Printf("plan for %dx%dx%d (block %d, sparsity %g):\n%v", *m, *k, *n, *bs, *sparsity, ex)
	if *useGPU && mth != distme.MethodRMM {
		_, sub, err := gpu.AveragePlan(distme.ShapeOf(a, b), ex.Params, gpu.TaskSpec(cl).MemPerTaskBytes)
		if err == nil {
			fmt.Printf("  gpu plan:     %v subcuboids, %d iterations/task\n", sub, sub.Subcuboids())
		}
	}
	return nil
}
