package distnet

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/codec"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// The one cuboid job path's contract, as one table: whatever way a (p,q)
// column obtains its slices — pushed inline, pulled by manifest, downgraded
// mid-job — and whether it goes out as one call or, over the call bound, as
// its R cuboids, the product is the same bytes, the
// bytes core.MultiplyCuboid computes on the simulated cluster, and the job is
// metered, gauged and traced the same way.

// gaugeCtx samples Driver.ActiveJobs every time the job path polls its
// context — which it does before each scheduling attempt, from inside the
// job — so "the gauge read 1 during the job" is observed without sleeping.
type gaugeCtx struct {
	context.Context
	d    *Driver
	peak atomic.Int64
}

func (c *gaugeCtx) Err() error {
	if n := c.d.ActiveJobs(); n > c.peak.Load() {
		c.peak.Store(n)
	}
	return c.Context.Err()
}

// observeJob runs one multiply at params and asserts everything the shared
// path owes every transfer mode: a JobMeter on the context saw all P·Q·R
// cuboids commit with reply bytes, ActiveJobs read 1 during the job and 0
// after, and the trace holds one distnet.multiply root labelled with the
// transfer mode, one cuboid child per (p,q) column — P·Q of them, each with
// slabs = R — and one aggregate.
func observeJob(t *testing.T, d *Driver, tr *obs.Tracer, params core.Params, transfer core.Transfer,
	run func(ctx context.Context) (*bmat.BlockMatrix, error)) *bmat.BlockMatrix {
	t.Helper()
	tr.Reset()
	meter := &JobMeter{}
	ctx := &gaugeCtx{Context: WithJobMeter(context.Background(), meter), d: d}
	got, err := run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	st := meter.Stats()
	if st.Cuboids != int64(params.Tasks()) || st.ReplyBytes <= 0 {
		t.Errorf("job meter saw %d cuboids and %d reply bytes, want %d cuboids and reply bytes > 0",
			st.Cuboids, st.ReplyBytes, params.Tasks())
	}
	if peak, now := ctx.peak.Load(), d.ActiveJobs(); peak != 1 || now != 0 {
		t.Errorf("ActiveJobs read %d during the job and %d after, want 1 and 0", peak, now)
	}

	spans := tr.Snapshot().Spans
	_, byName := spanIndex(spans)
	checkNoOrphans(t, spans)
	if len(byName["distnet.multiply"]) != 1 {
		t.Fatalf("%d distnet.multiply roots, want 1", len(byName["distnet.multiply"]))
	}
	root := byName["distnet.multiply"][0]
	if label := spanAttr(root, "transfer"); label != transfer.String() {
		t.Errorf("root span transfer = %q, want %q", label, transfer)
	}
	checkOneSpanPerColumn(t, spans, "cuboid", params)
	for _, c := range byName["cuboid"] {
		if c.Parent != root.ID {
			t.Errorf("cuboid span %d not parented to the root", c.ID)
		}
	}
	if agg := byName["aggregate"]; len(agg) != 1 || agg[0].Parent != root.ID {
		t.Errorf("%d aggregate spans under the root, want 1", len(agg))
	}
	return got
}

func TestCuboidPathParity(t *testing.T) {
	params := core.Params{P: 2, Q: 2, R: 2}
	shapes := []struct {
		name string
		make func(rng *rand.Rand) (a, b *bmat.BlockMatrix)
	}{
		{"sparse×dense", func(rng *rand.Rand) (a, b *bmat.BlockMatrix) {
			return bmat.RandomSparse(rng, 48, 40, 8, 0.2), bmat.RandomDense(rng, 40, 32, 8)
		}},
		{"dense×dense", func(rng *rand.Rand) (a, b *bmat.BlockMatrix) {
			return bmat.RandomDense(rng, 40, 48, 8), bmat.RandomDense(rng, 48, 40, 8)
		}},
	}
	rows := []struct {
		name     string
		transfer core.Transfer
		kill     bool // kill one band owner once the operands are resident
		split    bool // a θt of one byte: every column goes out as its R cuboids
	}{
		{name: "push", transfer: core.TransferPush},
		{name: "pull", transfer: core.TransferPull},
		{name: "pull, killed peer", transfer: core.TransferPull, kill: true},
		{name: "push, columns over θt", transfer: core.TransferPush, split: true},
		{name: "pull, columns over θt", transfer: core.TransferPull, split: true},
	}

	for si, shape := range shapes {
		a, b := shape.make(rand.New(rand.NewSource(int64(1600 + si))))
		// The reference is the other plane: core.MultiplyCuboid over the
		// simulated cluster at the same (P,Q,R). Plan order, kernel and fold
		// are shared, so the two planes agree to the bit per plan
		// (bitIdentical compares values, the engine side's CSR blocks
		// decompacted).
		cfg := cluster.LaptopConfig()
		cfg.TaskMemBytes = 1 << 30
		cfg.DiskCapacityBytes = 0
		cl, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.MultiplyCuboid(context.Background(), a, b, params, core.Env{Cluster: cl})
		if err != nil {
			t.Fatal(err)
		}

		for _, row := range rows {
			t.Run(shape.name+"/"+row.name, func(t *testing.T) {
				addrs, workers := startWorkers(t, 3)
				tr := obs.NewTracer()
				opts := fastOpts()
				opts.DisableHeartbeat = true // a death surfaces through the calls themselves
				opts.Tracer = tr
				d, err := DialOptions(addrs, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				mo := MultiplyOptions{Params: &params, Transfer: row.transfer}
				if row.split {
					mo.WorkerMemBytes = 1
				}

				// Pull multiplies resident handles; push ships the operands.
				run := func(ctx context.Context) (*bmat.BlockMatrix, error) {
					c, _, err := d.Execute(ctx, a, b, mo)
					return c, err
				}
				if row.transfer == core.TransferPull {
					s := newSession(t, d)
					ha, err := s.Put(context.Background(), a)
					if err != nil {
						t.Fatal(err)
					}
					hb, err := s.Put(context.Background(), b)
					if err != nil {
						t.Fatal(err)
					}
					run = func(ctx context.Context) (*bmat.BlockMatrix, error) {
						c, _, err := s.Multiply(ctx, ha, hb, mo)
						return c, err
					}
				}
				if row.kill {
					killWorker(workers[0])
				}

				before := d.NetStats()
				bitIdentical(t, observeJob(t, d, tr, params, row.transfer, run), want)
				delta := d.NetStats().Sub(before)

				// A column goes out as one call of R slabs, or over the call
				// bound as R calls of one: an rpc.multiply span per call —
				// more where a dead peer's calls were retried.
				calls, slabs := params.P*params.Q, params.R
				if row.split {
					calls, slabs = params.Tasks(), 1
				}
				_, byName := spanIndex(tr.Snapshot().Spans)
				if n := len(byName["rpc.multiply"]); n < calls || (!row.kill && n != calls) {
					t.Errorf("%d rpc.multiply spans, want %d", n, calls)
				}
				for _, s := range byName["rpc.multiply"] {
					if got := spanAttr(s, "slabs"); got != fmt.Sprint(slabs) {
						t.Errorf("rpc.multiply span %d: slabs = %q, want %d", s.ID, got, slabs)
					}
				}

				switch {
				case row.kill:
					if delta.PullFallbacks == 0 {
						t.Error("no cuboid downgraded despite a dead band owner")
					}
					if distinct := int64(len(a.Keys()) + len(b.Keys())); delta.BlocksPrepared == 0 || delta.BlocksPrepared > distinct {
						t.Errorf("downgrades prepared %d blocks, want 1..%d (each distinct block at most once)", delta.BlocksPrepared, distinct)
					}
				case row.transfer == core.TransferPull:
					if delta.BlocksPrepared != 0 || delta.PullFallbacks != 0 {
						t.Errorf("failure-free pull prepared %d blocks and downgraded %d cuboids, want none", delta.BlocksPrepared, delta.PullFallbacks)
					}
				}
			})
		}
	}
}

// TestColumnOverCallBoundGoesOutAsCuboids: planning sends a (p,q) column as
// one call while its operands fit the call bound, and as its R cuboids — one
// slab each, the k ranges Box.Slab cuts — once they do not. The bound is θt
// and never more than half a wire frame: a column of 80 blocks of 32 MiB
// (2.5 GiB, one block's storage behind every record) is split even under a
// 64 GiB θt, into cuboids of 640 MiB that a frame holds. At R = 1 the column
// is the cuboid, and nothing is left to split.
func TestColumnOverCallBoundGoesOutAsCuboids(t *testing.T) {
	big := matrix.NewDense(2048, 2048)
	tall, wide := bmat.New(2048, 40*2048, 2048), bmat.New(40*2048, 2048, 2048)
	for k := 0; k < 40; k++ {
		tall.SetBlock(0, k, big)
		wide.SetBlock(k, 0, big)
	}
	rng := rand.New(rand.NewSource(1611))
	small, smallB := bmat.RandomDense(rng, 16, 32, 8), bmat.RandomDense(rng, 32, 16, 8)
	for _, tc := range []struct {
		name     string
		a, b     *bmat.BlockMatrix
		R        int
		workerθt int64
		calls    int
	}{
		{"2.5 GiB column, θt 64 GiB", tall, wide, 4, 64 << 30, 4},
		{"2.5 GiB column at R = 1", tall, wide, 1, 64 << 30, 1},
		{"small column, default θt", small, smallB, 2, 0, 1},
		{"small column, θt of one byte", small, smallB, 4, 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := core.Params{P: 1, Q: 1, R: tc.R}
			r := &cuboidRun{d: &Driver{}, job: &cuboidJob{
				blockSize: tc.a.BlockSize, params: params,
				callBytes: MultiplyOptions{WorkerMemBytes: tc.workerθt}.callBytes(),
				fill: func(args *multiplyArgs) {
					args.ABlocks = boxRecs(tc.a, args.ILo, args.IHi, args.KLo, args.KHi)
					args.BBlocks = boxRecs(tc.b, args.KLo, args.KHi, args.JLo, args.JHi)
				},
			}}
			box := core.Box{IHi: tc.a.IB, JHi: tc.b.JB, KHi: tc.a.JB}
			col := r.planColumn(0, 0, box)
			if col.whole.slabs != tc.R || col.whole.box() != box {
				t.Fatalf("whole column: %d slabs over %+v, want %d over %+v", col.whole.slabs, col.whole.box(), tc.R, box)
			}
			if len(col.calls) != tc.calls {
				t.Fatalf("%d calls, want %d", len(col.calls), tc.calls)
			}
			if tc.calls == 1 {
				if col.calls[0] != col.whole {
					t.Fatal("a column inside the bound goes out as other than its whole call")
				}
				return
			}
			var records int
			for rr, call := range col.calls {
				if call.slabs != 1 || call.box() != box.Slab(rr, tc.R) {
					t.Errorf("call %d: %d slabs over %+v, want cuboid %d, one slab over %+v", rr, call.slabs, call.box(), rr, box.Slab(rr, tc.R))
				}
				if got := call.inputBytes(tc.a.BlockSize); got > codec.MaxFrameBytes/2 {
					t.Errorf("call %d: %d operand bytes, over half a frame", rr, got)
				}
				records += len(call.ABlocks) + len(call.BBlocks)
			}
			if want := len(col.whole.ABlocks) + len(col.whole.BBlocks); records != want {
				t.Errorf("the cuboids carry %d records, the column %d", records, want)
			}
		})
	}
	// An operand pulled from a handle that kept no source has manifest
	// entries and no records: each counts as a dense block.
	pulled := &multiplyArgs{aManifest: &codec.Manifest{Entries: make([]codec.ManifestEntry, 3)}, BBlocks: []blockRec{{Block: big}}}
	if got, want := pulled.inputBytes(2048), int64(4*2048*2048*8); got != want {
		t.Errorf("3 pulled entries and one 32 MiB record: %d operand bytes, want %d", got, want)
	}
}
