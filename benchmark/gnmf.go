package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"distme/internal/bmat"
	"distme/internal/distnet"
	"distme/internal/ml"
	"distme/internal/obs"
	"distme/internal/plan"
)

// gnmfStack is the session side of the system: workers, driver, one
// session, and a GNMF pipeline whose V, W and H live on the workers.
type gnmfStack struct {
	*stack
	sess *distnet.Session
	pipe *ml.GNMFPipeline[*distnet.Handle]
}

func (g *gnmfStack) close() {
	ctx := context.Background()
	if g.pipe != nil {
		g.pipe.Close(ctx)
	}
	if g.sess != nil {
		g.sess.Close(ctx)
	}
	g.stack.close()
}

// setupGNMF is the workload's set-up: bring the stack up, open the session,
// upload V and the seeded factors, and run the warm-up iterations.
func setupGNMF(cfg stackConfig, v *bmat.BlockMatrix, opt ml.GNMFOptions) (*gnmfStack, time.Duration, error) {
	ctx := context.Background()
	t0 := time.Now()
	st, err := startStack(cfg)
	if err != nil {
		return nil, 0, err
	}
	g := &gnmfStack{stack: st}
	if g.sess, err = st.driver.NewSession(ctx); err != nil {
		g.close()
		return nil, 0, fmt.Errorf("new session: %w", err)
	}
	if g.pipe, err = ml.NewGNMFPipeline[*distnet.Handle](ctx, g.sess, v, opt); err != nil {
		g.close()
		return nil, 0, err
	}
	for i := 0; i < gnmfWarmup; i++ {
		if err := g.pipe.Step(ctx); err != nil {
			g.close()
			return nil, 0, err
		}
	}
	return g, time.Since(t0), nil
}

// materializedTwin repeats the warm-up iterations with every operand up and
// every intermediate back through the driver; the resident factors must
// match it bit for bit.
func materializedTwin(sess *distnet.Session, v *bmat.BlockMatrix, opt ml.GNMFOptions) (w, h *bmat.BlockMatrix, err error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(opt.Seed))
	w = bmat.RandomDense(rng, v.Rows, opt.Rank, v.BlockSize)
	h = bmat.RandomDense(rng, opt.Rank, v.Cols, v.BlockSize)
	for i := 0; i < gnmfWarmup; i++ {
		binds := map[string]*bmat.BlockMatrix{"v": v, "w": w, "h": h}
		if h, err = sess.RunMaterialized(ctx, ml.GNMFHExpr(), binds); err != nil {
			return nil, nil, err
		}
		binds["h"] = h
		if w, err = sess.RunMaterialized(ctx, ml.GNMFWExpr(), binds); err != nil {
			return nil, nil, err
		}
	}
	return w, h, nil
}

// iterate is gnmf_resident's closed loop, one part of it: one job is one
// iteration, the next starts when the previous returned.
func iterate(g *gnmfStack, ph *phase, seconds float64, maxJobs int, tl *tally) error {
	pt := &part{done: make([]int, 1), busy: make([]time.Duration, 1)}
	pt.before = readCounters(g.stack)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) && (maxJobs == 0 || pt.done[0] < maxJobs) {
		t0 := time.Now()
		tl.attempted++
		if err := g.pipe.Step(context.Background()); err != nil {
			// A failed update leaves the factors undefined: stop here.
			tl.fail(err)
			return err
		}
		ph.samples[0].add(jobRec{lat: time.Since(t0)})
		pt.done[0]++
	}
	pt.busy[0] = time.Since(start)
	pt.after = readCounters(g.stack)
	ph.parts = append(ph.parts, pt)
	return nil
}

// runGNMF measures gnmf_resident: distnet used the other way, through
// resident handles and Session.Run pipelines, with no serving plane.
func runGNMF(o runOpts) (results, tally, error) {
	res := results{}
	var tl tally
	ctx := context.Background()
	census := runtime.NumGoroutine()
	ref, err := newReference()
	if err != nil {
		return nil, tl, err
	}
	defer ref.eng.Close()

	rng := rand.New(rand.NewSource(o.seed*1_000_003 + 11))
	v := bmat.RandomSparse(rng, o.gnmf.rows, o.gnmf.cols, o.gnmf.block, o.gnmf.density)
	opt := ml.GNMFOptions{Rank: o.gnmf.rank, Seed: o.seed}
	cfg := stackConfig{seed: o.seed}

	var g *gnmfStack
	var setups []float64
	for rep := 0; rep < o.setupReps; rep++ {
		if g != nil {
			g.close()
			if err := settle(census); err != nil {
				return nil, tl, err
			}
		}
		var d time.Duration
		if g, d, err = setupGNMF(cfg, v, opt); err != nil {
			return nil, tl, err
		}
		setups = append(setups, d.Seconds())
	}
	res.set("setup_s", median(setups), len(setups))

	// Off the clock: the warm-up factors against the materialized twin, and
	// the objective the final one must not exceed.
	tl.attempted++
	warm, err := g.pipe.Factors(ctx)
	if err != nil {
		g.close()
		return nil, tl, err
	}
	tw, th, err := materializedTwin(g.sess, v, opt)
	if err != nil {
		g.close()
		return nil, tl, fmt.Errorf("materialized twin: %w", err)
	}
	if !bitEqual(warm.W, tw) || !bitEqual(warm.H, th) {
		tl.fail(fmt.Errorf("resident factors differ from the RunMaterialized twin after %d iterations", gnmfWarmup))
	}
	objWarm, err := ml.GNMFObjective(ref.eng, v, warm.W, warm.H)
	if err != nil {
		g.close()
		return nil, tl, err
	}

	seconds := o.seconds
	if o.traced {
		seconds /= 2
	}
	ph := newPhase(false, 1, o.seed)
	runtime.GC() // every run's measured phase starts from a collected heap
	p0 := time.Now()
	for i := 0; i < parts; i++ {
		if err := iterate(g, ph, seconds/parts, o.maxJobs, &tl); err != nil {
			g.close()
			return nil, tl, err
		}
	}
	o.bench.AddCompleted(obs.SpanData{Name: "bench.phase.untraced", Kind: obs.KindBench, Start: p0, End: time.Now()})
	last, err := g.pipe.Factors(ctx)
	g.close()
	if err != nil {
		return nil, tl, err
	}
	if err := settle(census); err != nil {
		return nil, tl, err
	}
	objLast, err := ml.GNMFObjective(ref.eng, v, last.W, last.H)
	if err != nil {
		return nil, tl, err
	}
	if math.IsNaN(objLast) || math.IsInf(objLast, 0) || objLast > objWarm*(1+1e-9) {
		tl.fail(fmt.Errorf("objective went from %g after warm-up to %g at the end", objWarm, objLast))
	}
	phaseMetrics(res, ph)

	if o.traced {
		if err := tracedGNMF(o, cfg, v, opt, res, ph, &tl); err != nil {
			return nil, tl, err
		}
		if err := settle(census); err != nil {
			return nil, tl, err
		}
	}
	return res, tl, nil
}

// tracedGNMF is the traced run of gnmf_resident: it times the calls an
// iteration is made of, one by one, then runs the loop again with the
// program's tracer on.
func tracedGNMF(o runOpts, cfg stackConfig, v *bmat.BlockMatrix, opt ml.GNMFOptions, res results, untraced *phase, tl *tally) error {
	ctx := context.Background()
	prog := obs.NewTracerLimit(1 << 20)
	cfg.tracer = prog
	g, _, err := setupGNMF(cfg, v, opt)
	if err != nil {
		return err
	}
	defer g.close()
	root := o.bench.Start(0, "bench.ladder", obs.KindBench)

	// One iteration taken apart: compile and price both updates, upload a
	// V, run the H update, the W update against the new H, and fetch a
	// factor as a caller would to look at it. Each step is timed from here
	// and recorded as a benchmark-side span.
	hv, hw, hh := g.pipe.Handles()
	binds := map[string]*distnet.Handle{"v": hv, "w": hw, "h": hh}
	updates := []plan.Expr{ml.GNMFHExpr(), ml.GNMFWExpr()}
	var extra, newH, newW *distnet.Handle
	type step struct {
		span, label string
		fn          func() error
		ds          []time.Duration
	}
	compile := &step{span: "bench.plan.compile", label: "plan.Compile (both updates)", fn: func() error {
		for _, x := range updates {
			if _, err := plan.Compile(x); err != nil {
				return err
			}
		}
		return nil
	}}
	price := &step{span: "bench.session.price", label: "Session.Price (both updates)", fn: func() error {
		for _, x := range updates {
			if _, _, err := g.sess.Price(x, binds); err != nil {
				return err
			}
		}
		return nil
	}}
	put := &step{span: "bench.session.put", label: "Session.Put V", fn: func() (err error) {
		extra, err = g.sess.Put(ctx, v)
		return err
	}}
	steps := []*step{compile, price, put,
		{span: "bench.session.run.h", label: "Session.Run H update", fn: func() (err error) {
			newH, err = g.sess.Run(ctx, updates[0], binds)
			return err
		}},
		{span: "bench.session.run.w", label: "Session.Run W update", fn: func() (err error) {
			newW, err = g.sess.Run(ctx, updates[1], map[string]*distnet.Handle{"v": hv, "w": hw, "h": newH})
			return err
		}},
		{span: "bench.session.fetch", label: "Session.Fetch W", fn: func() error {
			_, err := g.sess.Fetch(ctx, newW)
			return err
		}},
	}
	for job := 0; job < o.ladderJobs; job++ {
		for _, st := range steps {
			t0 := time.Now()
			err := st.fn()
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("%s: %w", st.label, err)
			}
			o.bench.AddCompleted(obs.SpanData{
				Name: st.span, Kind: obs.KindBench, Parent: root.ID(), Start: t0, End: t1,
				Attrs: []obs.Attr{{Key: "job", Value: fmt.Sprint(job)}},
			})
			st.ds = append(st.ds, t1.Sub(t0))
		}
		for _, h := range []*distnet.Handle{extra, newH, newW} {
			if err := g.sess.Free(ctx, h); err != nil {
				return err
			}
		}
	}
	n := o.ladderJobs
	res.set("plan.compile_us", us(medianDur(compile.ds)), n)
	res.set("distnet.price_us", us(medianDur(price.ds)), n)
	res.set("distnet.put_ms", ms(medianDur(put.ds)), n)
	fmt.Fprintf(o.report, "ladder gnmf_resident (median of %d):\n", n)
	for _, st := range steps {
		fmt.Fprintf(o.report, "  %-30s %10.3f ms\n", st.label, ms(medianDur(st.ds)))
	}
	root.End()

	mark := prog.Len()
	p0 := time.Now()
	ph := newPhase(false, 1, o.seed)
	err = iterate(g, ph, o.seconds/2, o.maxJobs, tl)
	o.bench.AddCompleted(obs.SpanData{Name: "bench.phase.traced", Kind: obs.KindBench, Start: p0, End: time.Now()})
	if err != nil {
		return err
	}
	obsMetrics(res, prog.SnapshotSince(mark), untraced, ph)

	// The serving plane and the single-multiply rungs are not on this path.
	res.na("core.optimize_us",
		"matrix.kernel_ms", "matrix.flops", "matrix.gflops", "matrix.aggregate_ms",
		"engine.run_ms", "engine.repartition_mb", "engine.aggregation_mb",
		"codec.encode_ms", "codec.decode_ms", "codec.digest_ms", "codec.wire_mb", "codec.encode_mb_s", "codec.decode_mb_s",
		"storage.write_ms", "storage.read_ms", "storage.framed_mb",
		"distnet.push_ms", "distnet.pull_ms", "serve.inproc_ms")
	return nil
}
