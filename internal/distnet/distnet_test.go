package distnet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"testing/quick"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/engine"
	"distme/internal/matrix"
	"distme/internal/ml"
	"distme/internal/plan"
)

// startWorkers brings up n workers on loopback and returns their addresses
// plus the worker handles; listeners close with the test.
func startWorkers(t *testing.T, n int) ([]string, []*Worker) {
	t.Helper()
	var addrs []string
	var workers []*Worker
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		w, err := ServeOptions(l, WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, l.Addr().String())
		workers = append(workers, w)
	}
	return addrs, workers
}

func TestRemoteMultiplyMatchesLocal(t *testing.T) {
	addrs, workers := startWorkers(t, 3)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Workers() != 3 {
		t.Fatalf("Workers = %d", d.Workers())
	}

	rng := rand.New(rand.NewSource(170))
	a := bmat.RandomDense(rng, 24, 32, 8)
	b := bmat.RandomDense(rng, 32, 16, 8)
	got, err := execute(d, a, b, core.Params{P: 3, Q: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("remote product differs from local reference")
	}

	// The plan runs as the k-ordered chain on min(R, 3) = 2 holders, each
	// serving its slab of all 6 columns; homes would send each of A's row
	// bands to two workers.
	if got := servedCounts(workers); !equalSorted(got, []int{0, 6, 6}) {
		t.Errorf("workers served %v cuboids, want two 6 and one 0", got)
	}
}

// servedCounts is how many multiply calls each worker has served.
func servedCounts(workers []*Worker) []int {
	n := make([]int, len(workers))
	for i, w := range workers {
		n[i] = w.Multiplies()
	}
	return n
}

// equalSorted reports whether got, sorted, is want.
func equalSorted(got, want []int) bool {
	got = slices.Clone(got)
	slices.Sort(got)
	return slices.Equal(got, want)
}

func TestRemoteMultiplySparse(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(171))
	a := bmat.RandomSparse(rng, 20, 20, 5, 0.2)
	b := bmat.RandomDense(rng, 20, 20, 5)
	got, err := execute(d, a, b, core.Params{P: 2, Q: 2, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("sparse blocks corrupted over the wire")
	}
}

func TestRemoteMultiplyProperty(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bs := 2 + rng.Intn(3)
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := bmat.RandomDense(rng, m, k, bs)
		b := bmat.RandomDense(rng, k, n, bs)
		s := core.ShapeOf(a, b)
		p := core.Params{P: 1 + rng.Intn(s.I), Q: 1 + rng.Intn(s.J), R: 1 + rng.Intn(s.K)}
		got, err := execute(d, a, b, p)
		if err != nil {
			return false
		}
		return got.ToDense().EqualApprox(matrix.Mul(a.ToDense(), b.ToDense()).Dense(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWireBytesReflectTraffic(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(172))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	sent0, recv0 := d.WireBytes()
	if _, err := execute(d, a, b, core.Params{P: 2, Q: 2, R: 2}); err != nil {
		t.Fatal(err)
	}
	sent, recv := d.WireBytes()
	// Repartition really crossed the socket: at least the input payloads
	// (each block replicated per Q/P) must have been sent.
	minSent := 2*a.StoredBytes() + 2*b.StoredBytes()
	if sent-sent0 < minSent {
		t.Fatalf("sent %d bytes, expected at least %d (Q·|A|+P·|B|)", sent-sent0, minSent)
	}
	// Aggregation ran on the worker: C came back once, folded — at least |C|
	// of tiles, and short of the R·|C| = 2·|C| the partials would be.
	c := int64(a.Rows) * int64(b.Cols) * 8
	if got := recv - recv0; got < c || got >= 2*c {
		t.Fatalf("received %d bytes, expected at least |C| = %d and under 2·|C| = %d", got, c, 2*c)
	}
}

func TestMultiplyAutoRemote(t *testing.T) {
	addrs, _ := startWorkers(t, 4)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(173))
	a := bmat.RandomDense(rng, 32, 32, 8)
	b := bmat.RandomDense(rng, 32, 32, 8)
	got, params, err := d.Execute(context.Background(), a, b, MultiplyOptions{WorkerMemBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if params.Tasks() < 4 {
		t.Fatalf("auto params %v underuse 4 workers", params)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("auto remote multiply wrong")
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := DialOptions(nil, Options{}); err == nil {
		t.Fatal("empty address list accepted")
	}
	if _, err := DialOptions([]string{"127.0.0.1:1"}, Options{}); err == nil {
		t.Fatal("dead address accepted")
	}
}

func TestDriverRejectsBadInputs(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(174))
	a := bmat.RandomDense(rng, 8, 8, 4)
	bad := bmat.RandomDense(rng, 6, 8, 4)
	if _, err := execute(d, a, bad, core.Params{P: 1, Q: 1, R: 1}); err == nil {
		t.Fatal("nonconformable accepted")
	}
	if _, err := execute(d, a, a, core.Params{P: 9, Q: 1, R: 1}); err == nil {
		t.Fatal("out-of-grid params accepted")
	}
}

func TestClosedDriverFails(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	rng := rand.New(rand.NewSource(175))
	a := bmat.RandomDense(rng, 4, 4, 2)
	if _, err := execute(d, a, a, core.Params{P: 1, Q: 1, R: 1}); err == nil {
		t.Fatal("closed driver accepted work")
	}
}

func TestWorkerPing(t *testing.T) {
	w := &Worker{}
	var reply pingReply
	if err := w.ping(nil, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Hostname == "" {
		t.Fatal("empty hostname")
	}
}

func TestWorkerMalformedBox(t *testing.T) {
	w := &Worker{}
	var reply multiplyReply
	if err := w.multiply(&multiplyArgs{ILo: 2, IHi: 1}, &reply); err == nil {
		t.Fatal("malformed box accepted")
	}
	// A box no block set could fill must be refused before it sizes a table.
	if err := w.multiply(&multiplyArgs{IHi: 1 << 40, JHi: 1 << 40, KHi: 1}, &reply); err == nil {
		t.Fatal("oversized box accepted")
	}
}

// executeOps is ml.Ops over a driver: every product crosses the wire as
// one Driver.Execute at a single cuboid, every other operator runs on the
// embedded engine.
type executeOps struct {
	*engine.Engine
	d *Driver
}

func (o executeOps) Multiply(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	params := core.Params{P: 1, Q: 1, R: 1}
	c, _, err := o.d.Execute(ctx, a, b, MultiplyOptions{Params: &params})
	return c, err
}

// TestGNMFOverTheWire runs GNMF as a resident pipeline on two workers and
// holds it to the same query on a local engine.
func TestGNMFOverTheWire(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(176))
	v := bmat.RandomSparse(rng, 24, 20, 4, 0.2)
	gopts := ml.GNMFOptions{Rank: 4, Iterations: 2, Seed: 11}
	remote := gnmfPipeline(t, d, v, gopts)
	local, err := ml.GNMF(context.Background(), localEngine(t), v, gopts)
	if err != nil {
		t.Fatal(err)
	}
	if !remote.W.ToDense().EqualApprox(local.W.ToDense(), 1e-12) {
		t.Fatal("remote GNMF W diverges from local")
	}
	if !remote.H.ToDense().EqualApprox(local.H.ToDense(), 1e-12) {
		t.Fatal("remote GNMF H diverges from local")
	}
	if d.NetStats().PipelineOps == 0 {
		t.Fatal("no operator ran on the workers")
	}
}

func BenchmarkRemoteMultiply(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	if _, err := ServeOptions(l, WorkerOptions{}); err != nil {
		b.Fatal(err)
	}
	d, err := DialOptions([]string{l.Addr().String()}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(1))
	a := bmat.RandomDense(rng, 256, 256, 32)
	m2 := bmat.RandomDense(rng, 256, 256, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execute(d, a, m2, core.Params{P: 2, Q: 2, R: 2}); err != nil {
			b.Fatal(err)
		}
	}
	sent, recv := d.WireBytes()
	b.ReportMetric(float64(sent+recv)/float64(b.N), "wire-B/op")
}

func TestDriverFailsOverDeadWorker(t *testing.T) {
	// Worker 0 dies after the ping handshake; its cuboids must reassign to
	// worker 1 and the product must still be correct.
	deadL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ServeOptions(deadL, WorkerOptions{}); err != nil {
		t.Fatal(err)
	}
	liveAddrs, liveWorkers := startWorkers(t, 1)

	d, err := DialOptions([]string{deadL.Addr().String(), liveAddrs[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Kill worker 0: close its listener AND its accepted connection dies
	// with the test process's half — closing the listener stops new conns;
	// to break the live RPC connection, close the client from our side is
	// not possible, so shut the whole listener and rely on the worker's
	// accept loop exiting, then close the TCP conn via the driver's socket
	// being reset when the remote process would die. In-process we emulate
	// the crash by closing the listener and the server-side conns it owns.
	deadL.Close()
	// The rpc connection itself is still alive in-process (both halves are
	// ours), so sever it explicitly through the client: the first Call on a
	// closed client errors, which is exactly the failover trigger.
	d.members[0].mu.Lock()
	deadClient := d.members[0].client
	d.members[0].mu.Unlock()
	deadClient.Close()

	rng := rand.New(rand.NewSource(177))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	got, err := execute(d, a, b, core.Params{P: 2, Q: 2, R: 2})
	if err != nil {
		t.Fatalf("failover did not recover: %v", err)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("failover product wrong")
	}
	if liveWorkers[0].Multiplies() != 8 {
		t.Fatalf("live worker served %d cuboids, want all 8", liveWorkers[0].Multiplies())
	}
}

func TestPlanEvalOverTheWire(t *testing.T) {
	// A compiled plan evaluated over executeOps: its multiplications cross
	// real sockets, everything else runs locally.
	addrs, _ := startWorkers(t, 2)
	d, err := DialOptions(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	eng := localEngine(t)

	rng := rand.New(rand.NewSource(178))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	prog, err := plan.Compile(plan.Mul(plan.T(plan.V("A")), plan.V("B")))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ops := executeOps{eng, d}
	got, err := plan.EvalWith(prog, map[string]*bmat.BlockMatrix{"A": a, "B": b},
		func(n plan.NodeInfo, x, y *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
			switch n.Kind {
			case plan.OpMul:
				return ops.Multiply(ctx, x, y)
			case plan.OpTranspose:
				return ops.Transpose(ctx, x)
			default:
				return nil, fmt.Errorf("unexpected %v in Aᵀ×B", n.Kind)
			}
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	at, err := eng.Transpose(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Multiply(ctx, at, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().EqualApprox(want.ToDense(), 1e-12) {
		t.Fatal("plan over the wire diverged")
	}
	sent, _ := d.WireBytes()
	if sent == 0 {
		t.Fatal("no bytes crossed the wire")
	}
}
