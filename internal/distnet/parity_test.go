package distnet

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/obs"
)

// The one cuboid job path's contract, as one table: whatever way a (p,q)
// column obtains its slices — pushed inline, pulled from bands, downgraded
// mid-job — and whether it goes out as one call, over the call bound as
// links cut on one holder, or as the links of a k-ordered chain, the product is the same
// bytes, the bytes core.MultiplyCuboid computes on the simulated cluster, and
// the job is metered, gauged and traced the same way.

// gaugeCtx samples Driver.ActiveJobs every time the job path polls its
// context — which it does before each scheduling attempt, from inside the
// job — so "the gauge read 1 during the job" is observed without sleeping.
type gaugeCtx struct {
	context.Context
	d    *Driver
	peak atomic.Int64
}

func (c *gaugeCtx) Err() error {
	if n := c.d.activeJobs.Load(); n > c.peak.Load() {
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
	if peak, now := ctx.peak.Load(), d.activeJobs.Load(); peak != 1 || now != 0 {
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
	// On three workers a push plan of R ≥ 2 and several columns runs as the
	// k-ordered chain — every band it would replicate crosses the driver
	// once — on two holders, whatever θt: a θt of one byte only cuts each
	// holder's slabs into links of one, and here a holder has one slab. R = 1
	// and pull keep homes, where a θt of one byte cuts each column into R
	// links of one slab on its holder.
	rows := []struct {
		name     string
		params   core.Params
		transfer core.Transfer
		chain    bool // the plan's placement is the chain
		kill     bool // kill one band owner once the operands are resident
		split    bool // a θt of one byte: every link is one slab
	}{
		{name: "push", params: core.Params{P: 2, Q: 2, R: 1}, transfer: core.TransferPush},
		{name: "push, chain", params: core.Params{P: 2, Q: 2, R: 2}, transfer: core.TransferPush, chain: true},
		{name: "pull", params: core.Params{P: 2, Q: 2, R: 2}, transfer: core.TransferPull},
		{name: "pull, killed peer", params: core.Params{P: 2, Q: 2, R: 2}, transfer: core.TransferPull, kill: true},
		{name: "push, columns over θt", params: core.Params{P: 2, Q: 2, R: 2}, transfer: core.TransferPush, chain: true, split: true},
		{name: "pull, columns over θt", params: core.Params{P: 2, Q: 2, R: 2}, transfer: core.TransferPull, split: true},
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
		wants := map[core.Params]*bmat.BlockMatrix{}
		for _, row := range rows {
			if wants[row.params] == nil {
				if wants[row.params], err = core.MultiplyCuboid(context.Background(), a, b, row.params, core.Env{Cluster: cl}); err != nil {
					t.Fatal(err)
				}
			}
		}

		for _, row := range rows {
			params, want := row.params, wants[row.params]
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

				// A column goes out as one call of R slabs, over the call
				// bound as R links of one, or as the chain's two links of
				// R/2: an rpc.multiply span per link — more where a dead
				// peer's links were retried.
				calls, slabs, placement := params.P*params.Q, params.R, core.PlaceHomes
				switch {
				case row.chain:
					calls, slabs, placement = 2*params.P*params.Q, params.R/2, core.PlaceChain
				case row.split:
					calls, slabs = params.Tasks(), 1
				}
				_, byName := spanIndex(tr.Snapshot().Spans)
				if got := spanAttr(byName["distnet.multiply"][0], "placement"); got != placement.String() {
					t.Errorf("placement %q, want %v", got, placement)
				}
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

// TestColumnOverCallBoundGoesOutAsCuboids: planning cuts a (p,q) column into
// links — one contiguous slab group on one holder each — while its operands
// fit the call bound a homes column is one link, its whole call; over it,
// each holder's slabs are cut into consecutive links on that holder. Every
// link is inside the bound unless it is one slab, and the links carry the
// column's records exactly once. The bound is θt and never more than half a
// wire frame: a column of 80 blocks of 32 MiB (2.5 GiB, one block's storage
// behind every record) is cut even under a 64 GiB θt, into links of one
// 640 MiB slab that a frame holds. At R = 1 the column is the cuboid, and
// nothing is left to cut. A homes column's links share one holder; under
// the chain each holder's group is cut on its own: on four holders the
// 2.5 GiB column's links are one slab a holder, on two each holder's
// 1.25 GiB group is cut in two.
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
		holders  int   // 0: homes
		groups   []int // each link's holder group, in slab order
	}{
		{"2.5 GiB column, θt 64 GiB", tall, wide, 4, 64 << 30, 0, []int{0, 0, 0, 0}},
		{"2.5 GiB column at R = 1", tall, wide, 1, 64 << 30, 0, []int{0}},
		{"small column, default θt", small, smallB, 2, 0, 0, []int{0}},
		{"small column, θt of one byte", small, smallB, 4, 1, 0, []int{0, 0, 0, 0}},
		{"2.5 GiB column on four holders", tall, wide, 4, 64 << 30, 4, []int{0, 1, 2, 3}},
		{"2.5 GiB column on two holders", tall, wide, 4, 64 << 30, 2, []int{0, 0, 1, 1}},
		{"small column on two holders, θt of one byte", small, smallB, 4, 1, 2, []int{0, 0, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := core.Params{P: 1, Q: 1, R: tc.R}
			r := &cuboidRun{d: &Driver{}, job: &cuboidJob{
				rows: tc.a.Rows, inner: tc.a.Cols, cols: tc.b.Cols, blockSize: tc.a.BlockSize, params: params,
				callBytes: MultiplyOptions{WorkerMemBytes: tc.workerθt}.callBytes(),
				fill: func(args *multiplyArgs) {
					box := args.operandBox()
					args.ABlocks = boxRecs(tc.a, box.ILo, box.IHi, box.KLo, box.KHi)
					args.BBlocks = boxRecs(tc.b, box.KLo, box.KHi, box.JLo, box.JHi)
				},
			}}
			box := core.Box{IHi: tc.a.IB, JHi: tc.b.JB, KHi: tc.a.JB}
			whole := r.newCall(0, 0, box, nil)
			wholes := []*multiplyArgs{whole}
			slabs := r.slabBytes(wholes, tc.a.JB)
			if tc.holders > 0 {
				// One column ties the placements, so the chain is never
				// chosen for it; its cut is planned on the holders given.
				if got := core.ChoosePlacement(params, r.faces(wholes, slabs), tc.holders); got != core.PlaceHomes {
					t.Errorf("one column on %d workers: %v, want homes", tc.holders, got)
				}
			}
			var holders []*member
			for g := 0; g < tc.holders; g++ {
				holders = append(holders, &member{addr: fmt.Sprintf("w%d", g)})
			}
			r.cut(wholes, slabs, holders)
			col := r.columns[0]
			if len(col.links) != len(tc.groups) {
				t.Fatalf("%d links, want %d", len(col.links), len(tc.groups))
			}
			if len(col.links) == 1 {
				if col.links[0] != whole {
					t.Fatal("a column of one link goes out as other than its whole call")
				}
				return
			}
			seen := map[bmat.BlockKey]bool{}
			records, next := 0, 0
			for i, link := range col.links {
				l := link.link
				if l.lo != next || l.group != tc.groups[i] || link.slabs != tc.R || link.box() != box {
					t.Errorf("link %d: slabs [%d,%d) of %d over %+v in group %d, want from slab %d in group %d",
						i, l.lo, l.hi, link.slabs, link.box(), l.group, next, tc.groups[i])
				}
				next = l.hi
				var n int64
				for _, list := range [2][]blockRec{link.ABlocks, link.BBlocks} {
					for _, rec := range list {
						n += rec.Block.SizeBytes()
					}
				}
				if n > r.job.callBytes && l.hi-l.lo > 1 {
					t.Errorf("link %d: %d slabs of %d operand bytes, over the %d-byte bound", i, l.hi-l.lo, n, r.job.callBytes)
				}
				for _, rec := range link.ABlocks {
					seen[bmat.BlockKey{I: -1 - rec.Key.I, J: rec.Key.J}] = true
				}
				for _, rec := range link.BBlocks {
					seen[rec.Key] = true
				}
				records += len(link.ABlocks) + len(link.BBlocks)
			}
			if want := len(whole.ABlocks) + len(whole.BBlocks); next != tc.R || records != want || len(seen) != want {
				t.Errorf("links end at slab %d carrying %d records, %d distinct; want %d and the column's %d", next, records, len(seen), tc.R, want)
			}
		})
	}

	// An operand pulled from a handle that kept no source is a band
	// reference and no records: each slot of its box counts as a dense block
	// of its slab. A's box of two block rows over four k and one 32 MiB B
	// record at k = 2, in two slabs of two, size as 4 dense blocks of A a
	// slab and one of B.
	r := &cuboidRun{job: &cuboidJob{blockSize: 2048, params: core.Params{P: 1, Q: 1, R: 2}}}
	pulled := &multiplyArgs{IHi: 2, JHi: 1, KHi: 4, pull: true, aRef: bandRef{handle: 1, sourceless: true},
		BBlocks: []blockRec{{Key: bmat.BlockKey{I: 2}, Block: big}}}
	dense := int64(2048 * 2048 * 8)
	got := r.slabBytes([]*multiplyArgs{pulled}, 4)[0]
	if want := [2][]int64{{4 * dense, 4 * dense}, {0, dense}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("a sourceless 2x4-block box and one 32 MiB record: %v operand bytes by slab, want %v", got, want)
	}
}
