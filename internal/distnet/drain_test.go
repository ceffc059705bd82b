package distnet_test

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/distnet"
	"distme/internal/serve"
)

// TestDrainingWorkerIsNotSchedulable drains one of three workers — it
// answers every call, heartbeats included, with the draining sentinel while
// its connection stays up — and holds every view of the membership to the
// same count: Driver.Workers, ClusterHealth's LiveWorkers, and the slots
// serve prices a job submitted during the drain for.
func TestDrainingWorkerIsNotSchedulable(t *testing.T) {
	var addrs []string
	var workers []*distnet.Worker
	for i := 0; i < 3; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w, err := distnet.ServeOptions(l, distnet.WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Shutdown(context.Background()) })
		addrs = append(addrs, l.Addr().String())
		workers = append(workers, w)
	}
	// A member that keeps missing beats stays connected: the test looks at
	// the draining member, not at the detector retiring it.
	d, err := distnet.DialOptions(addrs, distnet.Options{
		HeartbeatInterval: 10 * time.Millisecond,
		PingTimeout:       time.Second,
		CallTimeout:       10 * time.Second,
		SuspectAfter:      1,
		DeadAfter:         1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	distnet.RefuseAsDraining(workers[2])
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if h := d.ClusterHealth(); h.Workers[2].Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the detector never heard the draining refusal")
		}
	}
	if n, live := d.Workers(), d.ClusterHealth().LiveWorkers; n != 2 || live != 2 {
		t.Fatalf("Workers() = %d, ClusterHealth().LiveWorkers = %d during the drain, want 2 and 2", n, live)
	}

	s, err := serve.New(d, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(4302))
	a, b := bmat.RandomDense(rng, 32, 32, 8), bmat.RandomDense(rng, 32, 32, 8)
	// Under serve's default θt this shape is (1,2,1) on two slots and
	// (1,3,1) on three.
	shape := core.ShapeOf(a, b)
	two, err := core.Optimize(shape, 1<<30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if three, _ := core.Optimize(shape, 1<<30, 3); three == two {
		t.Fatalf("the shape prices %v on both two and three slots; it cannot tell them apart", two)
	}
	id, err := s.Submit(serve.SubmitRequest{A: a, B: b})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Params != two {
		t.Fatalf("serve priced the job at %v, want %v: the draining worker counted as a slot", st.Params, two)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := s.Result(ctx, id); err != nil {
		t.Fatal(err)
	}
	if n := workers[2].Multiplies(); n != 0 {
		t.Fatalf("the draining worker served %d cuboids", n)
	}
}
