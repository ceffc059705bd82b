package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"distme/internal/bmat"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/distnet"
	"distme/internal/matrix"
	"distme/internal/obs"
	"distme/internal/serve"
	"distme/internal/storage"
)

// rung is one step of the layer ladder: the same multiply through one more
// layer of the system. base is the rung it is compared with — the one it
// wraps, which for the serving rungs is the push plane, not pull. run
// returns the product and the time of the layer's calls alone.
type rung struct {
	name string
	base int
	run  func(op operands, p core.Params) (*bmat.BlockMatrix, time.Duration, error)
	ds   []time.Duration
}

// The rungs, bottom up.
const (
	rungKernel = iota
	rungEngine
	rungPush
	rungPull
	rungInproc
	rungRPC
)

// kernel is the bottom rung: matrix.MulAdd over the job's block triples,
// nothing else. It returns the product and the floating-point operations.
func kernel(a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, float64) {
	c := bmat.New(a.Rows, b.Cols, a.BlockSize)
	var flops float64
	for i := 0; i < a.IB; i++ {
		for j := 0; j < b.JB; j++ {
			var acc *matrix.Dense
			for k := 0; k < a.JB; k++ {
				x, y := a.Block(i, k), b.Block(k, j)
				if x == nil || y == nil {
					continue
				}
				acc = matrix.MulAdd(acc, x, y)
				_, n := y.Dims()
				if x.Format() == matrix.FormatDense {
					m, kk := x.Dims()
					flops += 2 * float64(m) * float64(kk) * float64(n)
				} else {
					flops += 2 * float64(x.NNZ()) * float64(n)
				}
			}
			if acc != nil {
				c.SetBlock(i, j, acc)
			}
		}
	}
	return c, flops
}

// aggregate times what the driver does with R partial products: AddInto of
// R-1 partials into the first, for every block of C.
func aggregate(c *bmat.BlockMatrix, r int) time.Duration {
	var total time.Duration
	for _, k := range c.Keys() {
		src := c.Block(k.I, k.J)
		dst := src.Dense()
		t0 := time.Now()
		for p := 1; p < r; p++ {
			matrix.AddInto(dst, src)
		}
		total += time.Since(t0)
	}
	return total
}

// sideCosts times the codec and the storage format on one job's A, B and C,
// the way distnet's wire and serve's RPC use them.
type sideCosts struct {
	encode, decode, digest time.Duration
	wireBytes              int64
	write, read            time.Duration
	framedBytes            int64
}

func timeSides(mats ...*bmat.BlockMatrix) (sideCosts, error) {
	var sc sideCosts
	var blocks []matrix.Block
	for _, m := range mats {
		for _, k := range m.Keys() {
			blocks = append(blocks, m.Block(k.I, k.J))
		}
	}
	// Encode as the frame writer does: structure into a reused buffer, raw
	// float64 values left in place as the scatter-gather tail.
	buf := codec.GetBuffer()
	t0 := time.Now()
	for _, b := range blocks {
		var err error
		if buf, _, _, err = codec.AppendWireSG(buf[:0], b, codec.EncodingFP64); err != nil {
			return sc, err
		}
	}
	sc.encode = time.Since(t0)
	codec.PutBuffer(buf)

	tags := make([]uint8, len(blocks))
	payloads := make([][]byte, len(blocks))
	for i, b := range blocks {
		var err error
		if payloads[i], tags[i], err = codec.AppendWireEnc(nil, b, codec.EncodingFP64); err != nil {
			return sc, err
		}
		sc.wireBytes += codec.EncodedBytes(b)
	}
	t0 = time.Now()
	for i := range blocks {
		if _, err := codec.Decode(tags[i], payloads[i]); err != nil {
			return sc, err
		}
	}
	sc.decode = time.Since(t0)

	t0 = time.Now()
	for _, b := range blocks {
		if _, err := codec.DigestOf(b); err != nil {
			return sc, err
		}
	}
	sc.digest = time.Since(t0)

	for _, m := range mats {
		var framed bytes.Buffer
		t0 = time.Now()
		if err := storage.Write(&framed, m); err != nil {
			return sc, err
		}
		sc.write += time.Since(t0)
		sc.framedBytes += int64(framed.Len())
		t0 = time.Now()
		if _, err := storage.Read(bytes.NewReader(framed.Bytes())); err != nil {
			return sc, err
		}
		sc.read += time.Since(t0)
	}
	return sc, nil
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its child spans cover.
func selfTimes(tr obs.Trace) (self map[string]time.Duration, count map[string]int) {
	children := map[obs.SpanID][]obs.SpanData{}
	for _, s := range tr.Spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range tr.Spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		self[s.Name] += s.Duration() - covered
		count[s.Name]++
	}
	return self, count
}

// obsMetrics attributes the traced phase's time to the program's own spans
// and compares the traced median job with the untraced one.
func obsMetrics(res results, tr obs.Trace, untraced, traced *phase) {
	self, count := selfTimes(tr)
	for _, name := range obsSpans {
		res.set("obs."+name+"_self_ms", per(ms(self[name]), traced.jobs()), count[name])
	}
	if base := ms(medianDur(untraced.lats())); base > 0 {
		res.set("obs.trace_overhead_pct", 100*(ms(medianDur(traced.lats()))-base)/base, traced.jobs())
	} else {
		res.na("obs.trace_overhead_pct")
	}
}

// tracedServe is the traced run of a serve workload. On a fresh stack with
// the program's tracer on it repeats the closed loop, for span attribution
// and the tracing overhead, then climbs the ladder: ladderJobs multiplies
// through each rung, every call timed from here and recorded as a
// benchmark-side span.
func tracedServe(sp *spec, o runOpts, cfg stackConfig, ref *reference, res results, untraced *phase, tl *tally) error {
	ctx := context.Background()
	prog := obs.NewTracerLimit(1 << 20)
	cfg.tracer = prog
	st, _, _, err := setupServe(cfg, sp.warmOperands(o.seed, 2), tl)
	if err != nil {
		return err
	}
	defer st.close()

	mark := prog.Len()
	p0 := time.Now()
	ph := newPhase(true, sp.clients, o.seed)
	runPart(st, sp, sp.gens(o.seed, 3), ph, o.seconds/2, o.maxJobs, tl)
	o.bench.AddCompleted(obs.SpanData{Name: "bench.phase.traced", Kind: obs.KindBench, Start: p0, End: time.Now()})
	obsMetrics(res, prog.SnapshotSince(mark), untraced, ph)

	sess, err := st.driver.NewSession(ctx)
	if err != nil {
		return fmt.Errorf("new session: %w", err)
	}
	defer sess.Close(ctx)
	root := o.bench.Start(0, "bench.ladder", obs.KindBench)
	defer root.End()

	theta := sp.thetaT
	if theta == 0 {
		theta = 1 << 30 // serve.Config's default
	}
	var optimize, aggs, puts, pulls []time.Duration
	var flops, gflops, repart, aggBytes []float64
	var sides []sideCosts
	rungs := []*rung{
		{name: "matrix kernel", base: -1, run: func(op operands, p core.Params) (*bmat.BlockMatrix, time.Duration, error) {
			t0 := time.Now()
			c, f := kernel(op.a, op.b)
			d := time.Since(t0)
			flops = append(flops, f)
			gflops = append(gflops, f/1e9/d.Seconds())
			aggs = append(aggs, aggregate(c, p.R))
			// Beside the ladder: what pricing this job costs the server.
			t0 = time.Now()
			got, err := core.OptimizeWire(core.ShapeOf(op.a, op.b), theta, workerCount, core.WireCost{InputRatio: 1, AggRatio: 1})
			optimize = append(optimize, time.Since(t0))
			if err == nil && got != p {
				err = fmt.Errorf("core.OptimizeWire returned %v, the recorded plan is %v", got, p)
			}
			return c, d, err
		}},
		{name: "engine.Run", base: rungKernel, run: func(op operands, p core.Params) (*bmat.BlockMatrix, time.Duration, error) {
			t0 := time.Now()
			c, rep, err := ref.multiply(op.a, op.b, p)
			d := time.Since(t0)
			if err == nil {
				repart = append(repart, mb(rep.Comm.RepartitionBytes))
				aggBytes = append(aggBytes, mb(rep.Comm.AggregationBytes))
			}
			return c, d, err
		}},
		{name: "distnet push", base: rungEngine, run: func(op operands, p core.Params) (*bmat.BlockMatrix, time.Duration, error) {
			t0 := time.Now()
			c, _, err := st.driver.Execute(ctx, op.a, op.b, distnet.MultiplyOptions{Params: &p, Transfer: core.TransferPush})
			return c, time.Since(t0), err
		}},
		{name: "distnet put+pull", base: rungPush, run: func(op operands, p core.Params) (*bmat.BlockMatrix, time.Duration, error) {
			t0 := time.Now()
			ha, err := sess.Put(ctx, op.a)
			if err != nil {
				return nil, 0, err
			}
			hb, err := sess.Put(ctx, op.b)
			if err != nil {
				return nil, 0, err
			}
			t1 := time.Now()
			c, _, err := sess.Multiply(ctx, ha, hb, distnet.MultiplyOptions{Params: &p, Transfer: core.TransferPull})
			t2 := time.Now()
			if err != nil {
				return nil, 0, err
			}
			puts, pulls = append(puts, t1.Sub(t0)), append(pulls, t2.Sub(t1))
			for _, h := range []*distnet.Handle{ha, hb} {
				if err := sess.Free(ctx, h); err != nil {
					return nil, 0, err
				}
			}
			return c, t2.Sub(t0), nil
		}},
		{name: "serve in-process", base: rungPush, run: func(op operands, p core.Params) (*bmat.BlockMatrix, time.Duration, error) {
			t0 := time.Now()
			id, err := st.server.Submit(serve.SubmitRequest{A: op.a, B: op.b})
			if err != nil {
				return nil, 0, err
			}
			c, _, err := st.server.Result(ctx, id)
			d := time.Since(t0)
			st.server.Forget(id)
			return c, d, err
		}},
		{name: "serve RPC", base: rungInproc, run: func(op operands, p core.Params) (*bmat.BlockMatrix, time.Duration, error) {
			rec, c, err := runJob(st, st.clients[0], op)
			if err != nil {
				return nil, 0, err
			}
			// Beside the ladder: the codec and the storage format on this
			// job's own A, B and C.
			sc, err := timeSides(op.a, op.b, c)
			sides = append(sides, sc)
			return c, rec.lat, err
		}},
	}

	// Every rung draws its own stream, so a cold workload stays cold on
	// each one, and every rung sees the same shapes in the same order.
	var pullTrace obs.Trace
	for r, rg := range rungs {
		gen := sp.gens(o.seed, 4+r)[0]
		mark := prog.Len()
		for job := 0; job < o.ladderJobs; job++ {
			op := gen()
			tl.attempted++
			t0 := time.Now()
			c, d, err := rg.run(op, sp.plans[dimsKey(op.a, op.b)])
			o.bench.AddCompleted(obs.SpanData{
				Name: "bench.rung." + rg.name, Kind: obs.KindBench, Parent: root.ID(), Start: t0, End: t0.Add(d),
				Attrs: []obs.Attr{{Key: "job", Value: fmt.Sprint(job)}},
			})
			if err == nil {
				err = freivalds(c, op)
			}
			if err != nil {
				tl.fail(fmt.Errorf("ladder, %s: %w", rg.name, err))
				continue
			}
			rg.ds = append(rg.ds, d)
		}
		if r == rungPull {
			pullTrace = prog.SnapshotSince(mark)
		}
	}

	n := o.ladderJobs
	res.set("core.optimize_us", us(medianDur(optimize)), n)
	res.set("matrix.kernel_ms", ms(medianDur(rungs[rungKernel].ds)), n)
	res.set("matrix.flops", median(flops), n)
	res.set("matrix.gflops", median(gflops), n)
	res.set("matrix.aggregate_ms", ms(medianDur(aggs)), n)
	res.set("engine.run_ms", ms(medianDur(rungs[rungEngine].ds)), n)
	res.set("engine.repartition_mb", median(repart), n)
	res.set("engine.aggregation_mb", median(aggBytes), n)
	res.set("distnet.push_ms", ms(medianDur(rungs[rungPush].ds)), n)
	res.set("distnet.put_ms", ms(medianDur(puts)), n)
	res.set("distnet.pull_ms", ms(medianDur(pulls)), n)
	res.set("serve.inproc_ms", ms(medianDur(rungs[rungInproc].ds)), n)

	// side is the median over the ladder's jobs of one codec or storage cost.
	side := func(name string, f func(sideCosts) float64) {
		xs := make([]float64, len(sides))
		for i, sc := range sides {
			xs[i] = f(sc)
		}
		res.set(name, median(xs), n)
	}
	side("codec.encode_ms", func(sc sideCosts) float64 { return ms(sc.encode) })
	side("codec.decode_ms", func(sc sideCosts) float64 { return ms(sc.decode) })
	side("codec.digest_ms", func(sc sideCosts) float64 { return ms(sc.digest) })
	side("codec.wire_mb", func(sc sideCosts) float64 { return mb(sc.wireBytes) })
	side("codec.encode_mb_s", func(sc sideCosts) float64 { return mb(sc.wireBytes) / sc.encode.Seconds() })
	side("codec.decode_mb_s", func(sc sideCosts) float64 { return mb(sc.wireBytes) / sc.decode.Seconds() })
	side("storage.write_ms", func(sc sideCosts) float64 { return ms(sc.write) })
	side("storage.read_ms", func(sc sideCosts) float64 { return ms(sc.read) })
	side("storage.framed_mb", func(sc sideCosts) float64 { return mb(sc.framedBytes) })

	// wire.pull and peer.fetch are emitted only on the pull plane, which the
	// closed loop never takes: attribute them over the pull rung instead.
	self, count := selfTimes(pullTrace)
	for _, name := range []string{"wire.pull", "peer.fetch"} {
		res.set("obs."+name+"_self_ms", per(ms(self[name]), len(rungs[rungPull].ds)), count[name])
	}
	// Expression pipelines are gnmf_resident's path.
	res.na("plan.compile_us", "distnet.price_us")

	fmt.Fprintf(o.report, "ladder %s (median of %d jobs, tracer on):\n", sp.name, n)
	fmt.Fprintf(o.report, "  %-20s %12s   %s\n", "rung", "ms", "over the rung it wraps")
	for _, rg := range rungs {
		d := ms(medianDur(rg.ds))
		if rg.base < 0 {
			fmt.Fprintf(o.report, "  %-20s %12.3f\n", rg.name, d)
			continue
		}
		base := rungs[rg.base]
		fmt.Fprintf(o.report, "  %-20s %12.3f   %+.3f over %s\n", rg.name, d, d-ms(medianDur(base.ds)), base.name)
	}
	fmt.Fprintf(o.report, "  beside the ladder: core.OptimizeWire %.1f us; codec encode %.3f / decode %.3f / digest %.3f ms; storage write %.3f / read %.3f ms\n",
		res["core.optimize_us"].v, res["codec.encode_ms"].v, res["codec.decode_ms"].v, res["codec.digest_ms"].v,
		res["storage.write_ms"].v, res["storage.read_ms"].v)
	return nil
}
