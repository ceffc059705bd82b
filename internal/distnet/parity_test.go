package distnet

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/obs"
)

// The one cuboid job path's contract, as one table: whatever way a cuboid
// obtains its slices — pushed inline, pulled by manifest, downgraded mid-job,
// batched, restored from a checkpoint — the product is the same bytes, the
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

// observeJob runs one multiply that must dispatch `cuboids` cuboids and
// asserts everything the shared path owes every transfer mode: a JobMeter on
// the context saw each cuboid commit with reply bytes, ActiveJobs read 1
// during the job and 0 after, and the trace holds one distnet.multiply root
// labelled with the transfer mode, one cuboid child per cuboid and one
// aggregate.
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
	label := ""
	for _, a := range root.Attrs {
		if a.Key == "transfer" {
			label = a.Value
		}
	}
	if label != transfer.String() {
		t.Errorf("root span transfer = %q, want %q", label, transfer)
	}
	checkOneSpanPerCuboid(t, spans, "cuboid", params)
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
		resume   bool // checkpoint, lose two cuboids, run again
	}{
		{name: "push", transfer: core.TransferPush},
		{name: "pull", transfer: core.TransferPull},
		{name: "pull, killed peer", transfer: core.TransferPull, kill: true},
		{name: "push, resumed", transfer: core.TransferPush, resume: true},
		{name: "pull, resumed", transfer: core.TransferPull, resume: true},
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
				if row.resume {
					mo.CheckpointDir = t.TempDir()
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

				if row.resume {
					for _, idx := range []int{2, 5} {
						if err := os.Remove(fmt.Sprintf("%s/cuboid-%05d.dmeb", mo.CheckpointDir, idx)); err != nil {
							t.Fatal(err)
						}
					}
					served := func() (n int) {
						for _, w := range workers {
							n += w.Multiplies()
						}
						return n
					}
					before := served()
					got, err := run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					bitIdentical(t, got, want)
					if n := served() - before; n != 2 {
						t.Errorf("resume recomputed %d cuboids, want exactly the 2 lost", n)
					}
				}
			})
		}
	}
}
