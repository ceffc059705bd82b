package serve

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"distme/internal/bmat"
	"distme/internal/codec"
)

// wireBytes is what a matrix's blocks occupy on either socket.
func wireBytes(m *bmat.BlockMatrix) int64 {
	var n int64
	for _, k := range m.Keys() {
		n += codec.EncodedBytes(m.Block(k.I, k.J))
	}
	return n
}

// TestOneCopyOperandPath pins the data path's allocation budget end to end:
// client → distme-serve → driver → two loopback workers and back. Every
// hop receives a payload once, into the slices the decoded blocks keep, and
// sends it from where it lies, so a job may allocate little more than the
// bytes it moves: operands once at the server, cuboid requests once at the
// workers, partials once where they are computed and once at the driver,
// the product once at the client. A reintroduced staging copy (a whole-frame
// buffer, an encode-into-buffer send, a re-framing between planes) adds at
// least one payload's worth and breaks the bound.
func TestOneCopyOperandPath(t *testing.T) {
	c := startCluster(t, 2)
	// θt small enough that both shapes split into several cuboids, so the
	// driver↔worker hop replicates blocks the way Eq.(4) counts.
	s, err := New(c.d, Config{WorkerMemBytes: 3 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl, err := ServeListener(s, l)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	cl, err := Dial(sl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(1401))
	shapes := map[string]func() (a, b *bmat.BlockMatrix){
		"dense": func() (a, b *bmat.BlockMatrix) {
			return bmat.RandomDense(rng, 512, 512, 128), bmat.RandomDense(rng, 512, 512, 128)
		},
		"sparse-dense": func() (a, b *bmat.BlockMatrix) {
			return bmat.RandomSparse(rng, 4096, 4096, 256, 0.002), bmat.RandomDense(rng, 4096, 64, 256)
		},
	}
	for name, draw := range shapes {
		run := func() (alloc uint64, payload int64) {
			a, b := draw() // fresh content: nothing is in a worker's cache
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			id, err := cl.Submit("", 0, a, b)
			if err != nil {
				t.Fatal(err)
			}
			prod, st, err := cl.Result(context.Background(), id)
			if err != nil || st.State != StateDone {
				t.Fatalf("%s: job ended %v: %v", name, st.State, err)
			}
			if err := cl.Forget(id); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if st.Params.Tasks() < 2 {
				t.Fatalf("%s: plan %v is a single cuboid", name, st.Params)
			}
			payload = wireBytes(a) + wireBytes(b) + st.Meter.RequestBytes + st.Meter.ReplyBytes + wireBytes(prod)
			return after.TotalAlloc - before.TotalAlloc, payload
		}
		run() // fills the buffer pools and the codecs' scratch
		alloc, payload := run()
		ratio := float64(alloc) / float64(payload)
		t.Logf("%s: allocated %.1f MB for %.1f MB of payload (%.2fx)", name, float64(alloc)/1e6, float64(payload)/1e6, ratio)
		if ratio > 2.5 {
			t.Errorf("%s: job allocated %.2fx its payload bytes (%d for %d); the budget is 2.5x", name, ratio, alloc, payload)
		}
	}
}
