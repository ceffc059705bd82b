package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/distnet"
	"distme/internal/metrics"
)

// ExtChurn measures the elastic real-network layer under membership churn:
// the same cuboid multiply runs with workers killed (and one joining)
// between dial and execution, and the report shows what the recovery
// machinery did — retries, reconnect attempts, local fallbacks — plus the
// property the paper's elasticity story hinges on: the output never
// changes, whatever the membership did.
func ExtChurn(seed int64) (*Table, error) {
	t := &Table{
		ID:    "ext-churn",
		Title: "EXTENSION: cuboid multiply under worker churn (kill/join mid-plan)",
		Columns: []string{"scenario", "live workers", "retries", "dead",
			"local fallbacks", "joined", "output identical", "elapsed"},
	}

	rng := rand.New(rand.NewSource(seed))
	a := bmat.RandomDense(rng, 128, 128, 16)
	b := bmat.RandomDense(rng, 128, 128, 16)
	params := core.Params{P: 2, Q: 2, R: 2}

	// Failure-free reference product.
	want, err := func() (*bmat.BlockMatrix, error) {
		pool, addrs, err := churnPool(3)
		if err != nil {
			return nil, err
		}
		defer pool.Close(context.Background())
		d, err := distnet.DialOptions(addrs, distnet.Options{})
		if err != nil {
			return nil, err
		}
		defer d.Close()
		c, _, err := d.Execute(context.Background(), a, b, distnet.MultiplyOptions{Params: &params})
		return c, err
	}()
	if err != nil {
		return nil, err
	}

	scenarios := []struct {
		name string
		kill int  // workers crashed after dial, before the multiply
		join bool // a fresh worker joins before the multiply
	}{
		{"no churn", 0, false},
		{"kill 1 of 3", 1, false},
		{"kill 2 of 3, join 1", 2, true},
		{"kill all 3", 3, false},
	}
	for _, sc := range scenarios {
		pool, addrs, err := churnPool(3)
		if err != nil {
			return nil, err
		}
		rec := &metrics.Recorder{}
		d, err := distnet.DialOptions(addrs, distnet.Options{
			HeartbeatInterval: 25 * time.Millisecond,
			RetryBackoff:      time.Millisecond,
			MaxBackoff:        10 * time.Millisecond,
			Recorder:          rec,
		})
		if err != nil {
			pool.Close(context.Background())
			return nil, err
		}
		for _, addr := range addrs[:sc.kill] {
			pool.Kill(addr)
		}
		if sc.join {
			addr, err := pool.Grow(context.Background())
			if err != nil {
				d.Close()
				pool.Close(context.Background())
				return nil, err
			}
			if err := d.AddWorker(addr); err != nil {
				d.Close()
				pool.Close(context.Background())
				return nil, err
			}
		}

		start := time.Now()
		got, _, err := d.Execute(context.Background(), a, b, distnet.MultiplyOptions{Params: &params})
		elapsed := time.Since(start)
		if err != nil {
			d.Close()
			pool.Close(context.Background())
			return nil, fmt.Errorf("churn %q: %w", sc.name, err)
		}
		stats := d.NetStats()
		t.AddRow(sc.name,
			fmt.Sprintf("%d", d.Workers()),
			fmt.Sprintf("%d", stats.CuboidRetries),
			fmt.Sprintf("%d", stats.WorkersDeclaredDead),
			fmt.Sprintf("%d", stats.LocalFallbacks),
			fmt.Sprintf("%d", stats.WorkersJoined),
			fmt.Sprintf("%v", bytesEqual(got, want)),
			fmt.Sprintf("%.1fms", float64(elapsed.Microseconds())/1000))
		d.Close()
		pool.Close(context.Background())
	}
	t.Notes = append(t.Notes,
		"killed workers crash hard (no drain); their cuboids reassign to survivors, and with the pool fully drained the driver computes locally",
		"'output identical' compares every float64 bitwise against the failure-free product — the elasticity layer never changes the answer")
	return t, nil
}

// bytesEqual reports float64-bitwise equality of two block matrices.
func bytesEqual(x, y *bmat.BlockMatrix) bool {
	dx, dy := x.ToDense(), y.ToDense()
	if dx.RowsN != dy.RowsN || dx.ColsN != dy.ColsN {
		return false
	}
	for i := range dx.Data {
		if math.Float64bits(dx.Data[i]) != math.Float64bits(dy.Data[i]) {
			return false
		}
	}
	return true
}

// churnPool starts n in-process workers and returns their addresses in
// start order: the kills follow this list, since Addrs iterates a map.
func churnPool(n int) (*distnet.InProcPool, []string, error) {
	pool := &distnet.InProcPool{}
	addrs := make([]string, n)
	for i := range addrs {
		addr, err := pool.Grow(context.Background())
		if err != nil {
			pool.Close(context.Background())
			return nil, nil, err
		}
		addrs[i] = addr
	}
	return pool, addrs, nil
}
