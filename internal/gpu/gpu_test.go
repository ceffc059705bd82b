package gpu

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/matrix"
)

// testSpec is a small, deterministic device for unit tests.
func testSpec(mem int64) Spec {
	return Spec{
		MemPerTaskBytes: mem,
		PCIEBandwidth:   1e6, // 1 MB/s: transfers visibly dominate
		Flops:           1e8,
		MaxStreams:      8,
	}
}

// fullCuboid wraps a whole multiplication as a single cuboid.
func fullCuboid(a, b *bmat.BlockMatrix) *core.Cuboid {
	return &core.Cuboid{
		ILo: 0, IHi: a.IB, JLo: 0, JHi: b.JB, KLo: 0, KHi: a.JB,
		A: a, B: b,
	}
}

// byKey indexes a multiplier's partial list by C block position.
func byKey(list []core.Partial) map[bmat.BlockKey]*matrix.Dense {
	m := make(map[bmat.BlockKey]*matrix.Dense, len(list))
	for _, p := range list {
		m[p.Key] = p.Block
	}
	return m
}

func TestGPUMultiplyMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	a := bmat.RandomDense(rng, 16, 12, 4)
	b := bmat.RandomDense(rng, 12, 8, 4)
	c := fullCuboid(a, b)

	cpu, err := core.CPUMultiplier{}.Multiply(c)
	if err != nil {
		t.Fatal(err)
	}
	g := NewMultiplier(testSpec(1 << 20))
	got, err := g.Multiply(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cpu) {
		t.Fatalf("GPU produced %d blocks, CPU %d", len(got), len(cpu))
	}
	gotAt := byKey(got)
	for _, want := range cpu {
		if !gotAt[want.Key].EqualApprox(want.Block, 1e-9) {
			t.Fatalf("block %v differs", want.Key)
		}
	}
}

// TestGPUStreamedEqualsUnstreamedProperty: forcing tiny θg (many subcuboid
// iterations) must not change the result — the C-resident accumulation is
// exact.
func TestGPUStreamedEqualsUnstreamedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bs := 2 + rng.Intn(3)
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		var a *bmat.BlockMatrix
		if rng.Intn(2) == 0 {
			a = bmat.RandomDense(rng, m, k, bs)
		} else {
			a = bmat.RandomSparse(rng, m, k, bs, 0.5)
		}
		b := bmat.RandomDense(rng, k, n, bs)
		c := fullCuboid(a, b)
		cpu, _ := core.CPUMultiplier{}.Multiply(c)

		// Tight device: barely one voxel's working set.
		voxelBytes := int64(3 * bs * bs * 8)
		g := NewMultiplier(testSpec(4 * voxelBytes))
		got, err := g.Multiply(c)
		if err != nil {
			// Genuinely too small is acceptable only if even a voxel
			// exceeds the budget, which testSpec avoids.
			return false
		}
		if len(got) != len(cpu) {
			return false
		}
		gotAt := byKey(got)
		for _, want := range cpu {
			if !gotAt[want.Key].EqualApprox(want.Block, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGPUMemoryHighWaterWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := bmat.RandomDense(rng, 24, 24, 4)
	b := bmat.RandomDense(rng, 24, 24, 4)
	θ := int64(4 * 1024)
	g := NewMultiplier(testSpec(θ))
	if _, err := g.Multiply(fullCuboid(a, b)); err != nil {
		t.Fatal(err)
	}
	st := g.Device.Stats()
	if st.MemHighWater > θ {
		t.Fatalf("device high water %d exceeds θg %d", st.MemHighWater, θ)
	}
	if st.Iterations < 2 {
		t.Fatalf("tight budget should force multiple iterations, got %d", st.Iterations)
	}
}

// TestGPUPCIETrafficMatchesEq6 checks the bus accounting against Eq.(6) on
// an exactly divisible cuboid: Q2·|A| + P2·|B| H2D plus |C| D2H.
func TestGPUPCIETrafficMatchesEq6(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	a := bmat.RandomDense(rng, 16, 16, 4) // 4×4 blocks, 128 B each… (4×4×8=128)
	b := bmat.RandomDense(rng, 16, 16, 4)
	c := fullCuboid(a, b)
	sh := c.Shape()

	// Budget admits (1,1,2): per-iteration = |A|/2 + |B|/2 + |C|.
	perIter := sh.ABytes/2 + sh.BBytes/2 + sh.CBytes
	g := NewMultiplier(testSpec(perIter))
	if _, err := g.Multiply(c); err != nil {
		t.Fatal(err)
	}
	st := g.Device.Stats()
	if st.H2DBytes != sh.ABytes+sh.BBytes {
		t.Fatalf("H2D = %d, want |A|+|B| = %d", st.H2DBytes, sh.ABytes+sh.BBytes)
	}
	if st.D2HBytes != sh.CBytes {
		t.Fatalf("D2H = %d, want |C| = %d", st.D2HBytes, sh.CBytes)
	}
}

// TestGPUCResidencySavesTraffic: splitting along k (R2 grows) must not grow
// C traffic — the buffer stays resident — while splitting along j (Q2) must
// re-send A.
func TestGPUCResidencySavesTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	a := bmat.RandomDense(rng, 8, 32, 4) // A dominates
	b := bmat.RandomDense(rng, 32, 8, 4)
	c := fullCuboid(a, b)
	sh := c.Shape()

	run := func(θ int64) Stats {
		g := NewMultiplier(testSpec(θ))
		if _, err := g.Multiply(c); err != nil {
			t.Fatal(err)
		}
		return g.Device.Stats()
	}
	// Loose: everything fits, one iteration.
	loose := run(sh.ABytes + sh.BBytes + sh.CBytes)
	// Tight on k: forces R2 > 1 but C still fits.
	tight := run(sh.CBytes + (sh.ABytes+sh.BBytes)/4)

	if loose.D2HBytes != tight.D2HBytes {
		t.Fatalf("k-axis splitting changed C traffic: %d vs %d", loose.D2HBytes, tight.D2HBytes)
	}
	if tight.Iterations <= loose.Iterations {
		t.Fatal("tight budget should stream more subcuboids")
	}
	if tight.H2DBytes != loose.H2DBytes {
		t.Fatalf("pure k-split with (1,1,R2) should not replicate inputs: %d vs %d", tight.H2DBytes, loose.H2DBytes)
	}
}

func TestGPUUtilizationBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	g := NewMultiplier(testSpec(1 << 20))
	if _, err := g.Multiply(fullCuboid(a, b)); err != nil {
		t.Fatal(err)
	}
	u := g.Device.Stats().Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %g outside (0, 1]", u)
	}
}

// TestGPUComputeBoundVsCopyBoundUtilization reproduces the qualitative
// behavior behind Figure 7(g): a compute-heavy device setup (fast bus, slow
// cores) is busier than a copy-bound one (slow bus, fast cores).
func TestGPUComputeBoundVsCopyBoundUtilization(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	c := fullCuboid(a, b)

	compute := testSpec(1 << 20)
	compute.PCIEBandwidth = 1e9
	compute.Flops = 1e6
	gc := NewMultiplier(compute)
	if _, err := gc.Multiply(c); err != nil {
		t.Fatal(err)
	}

	copybound := testSpec(1 << 20)
	copybound.PCIEBandwidth = 1e3
	copybound.Flops = 1e12
	gb := NewMultiplier(copybound)
	if _, err := gb.Multiply(c); err != nil {
		t.Fatal(err)
	}

	if gc.Device.Stats().Utilization() <= gb.Device.Stats().Utilization() {
		t.Fatalf("compute-bound utilization %g should exceed copy-bound %g",
			gc.Device.Stats().Utilization(), gb.Device.Stats().Utilization())
	}
}

func TestGPUInfeasibleCuboid(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	a := bmat.RandomDense(rng, 4, 4, 4)
	b := bmat.RandomDense(rng, 4, 4, 4)
	g := NewMultiplier(testSpec(16)) // 16 bytes: even one voxel fails
	_, err := g.Multiply(fullCuboid(a, b))
	if !errors.Is(err, core.ErrInfeasible) && !errors.Is(err, ErrDeviceOutOfMemory) {
		t.Fatalf("err = %v, want infeasible/ErrDeviceOutOfMemory", err)
	}
}

func TestBlockLevelMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	a := matrix.RandomDense(rng, 6, 8)
	b := matrix.RandomDense(rng, 8, 5)
	bl := NewMultiplier(testSpec(1 << 20))
	got, err := bl.MultiplyPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(a, b).Dense()
	if !got.EqualApprox(want, 1e-9) {
		t.Fatal("block-level product wrong")
	}
	// Per-voxel path pays D2H of C every time — no residency.
	st := bl.Device.Stats()
	if st.D2HBytes != 6*5*8 {
		t.Fatalf("D2H = %d, want 240", st.D2HBytes)
	}
}

// TestBlockLevelLowerUtilizationThanStreamed shows the RMM handicap the
// paper describes: block-level GPU use cannot hide copies behind kernels.
func TestBlockLevelLowerUtilizationThanStreamed(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)

	spec := testSpec(1 << 20)
	streamed := NewMultiplier(spec)
	if _, err := streamed.Multiply(fullCuboid(a, b)); err != nil {
		t.Fatal(err)
	}

	bl := NewMultiplier(spec)
	for i := 0; i < a.IB; i++ {
		for j := 0; j < b.JB; j++ {
			for k := 0; k < a.JB; k++ {
				if _, err := bl.MultiplyPair(a.Block(i, k), b.Block(k, j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if bl.Device.Stats().PCIEBytes() <= streamed.Device.Stats().PCIEBytes() {
		t.Fatal("block-level path should move more PCI-E data than streamed path")
	}
	if bl.Device.Stats().Utilization() >= streamed.Device.Stats().Utilization() {
		t.Fatalf("block-level utilization %g should be below streamed %g",
			bl.Device.Stats().Utilization(), streamed.Device.Stats().Utilization())
	}
}

func TestDeviceStatsReset(t *testing.T) {
	d := NewDevice(testSpec(1 << 20))
	tl := newTaskTimeline(d.Spec(), 2)
	tl.h2d(0, 100, "x")
	d.merge(tl)
	if d.Stats().H2DBytes != 100 {
		t.Fatal("merge lost bytes")
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("ResetStats left residue")
	}
}

func TestStatsUtilizationEdge(t *testing.T) {
	if (Stats{}).Utilization() != 0 {
		t.Fatal("empty stats utilization should be 0")
	}
	s := Stats{KernelBusy: 2, Makespan: 1}
	if s.Utilization() != 1 {
		t.Fatal("utilization must clamp to 1")
	}
}

func TestSharedBusContentionLowersUtilization(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	c := fullCuboid(a, b)

	// Partitioned model: each of 4 sequential tasks gets a private slice.
	part := NewMultiplier(testSpec(1 << 20))
	for i := 0; i < 4; i++ {
		if _, err := part.Multiply(c); err != nil {
			t.Fatal(err)
		}
	}

	// Shared model: the same 4 tasks queue on one physical bus.
	shared := NewMultiplier(testSpec(1 << 20))
	shared.Device.SetSharedBus(true)
	for i := 0; i < 4; i++ {
		if _, err := shared.Multiply(c); err != nil {
			t.Fatal(err)
		}
	}

	pu := part.Device.Stats().Utilization()
	su := shared.Device.Stats().Utilization()
	if su >= pu {
		t.Fatalf("contended bus utilization (%.3f) should fall below partitioned (%.3f)", su, pu)
	}
	// Contention must not change the arithmetic.
	got, err := shared.Multiply(c)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.CPUMultiplier{}.Multiply(c)
	gotAt := byKey(got)
	for _, w := range want {
		if !gotAt[w.Key].EqualApprox(w.Block, 1e-9) {
			t.Fatal("shared-bus run changed the product")
		}
	}
}

func TestSharedBusSingleTaskUnaffectedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	c := fullCuboid(a, b)

	part := NewMultiplier(testSpec(1 << 20))
	if _, err := part.Multiply(c); err != nil {
		t.Fatal(err)
	}
	shared := NewMultiplier(testSpec(1 << 20))
	shared.Device.SetSharedBus(true)
	if _, err := shared.Multiply(c); err != nil {
		t.Fatal(err)
	}
	if part.Device.Stats().PCIEBytes() != shared.Device.Stats().PCIEBytes() {
		t.Fatal("bus model must not change traffic volume")
	}
}

func TestTraceReproducesFigure5Timeline(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	// Figure 5's setting: a cuboid with multiple k-subcuboids streamed on
	// per-j streams with the C buffer resident.
	a := bmat.RandomDense(rng, 8, 32, 4)
	b := bmat.RandomDense(rng, 32, 12, 4)
	c := fullCuboid(a, b)
	sh := c.Shape()

	g := NewMultiplier(testSpec(sh.CBytes + (sh.ABytes+sh.BBytes)/4))
	g.Device.EnableTrace(4096)
	if _, err := g.Multiply(c); err != nil {
		t.Fatal(err)
	}
	events := g.Device.Trace()
	if len(events) == 0 {
		t.Fatal("trace empty")
	}
	var h2d, kernels, d2h int
	var prevCopyEnd float64
	for _, ev := range events {
		switch ev.Kind {
		case "h2d":
			h2d++
			// Copies are serialized: each starts no earlier than the
			// previous copy ended (§4.3's non-overlapping H2D).
			if float64(ev.Start) < prevCopyEnd-1e-12 {
				t.Fatalf("copy %s overlaps the previous one", ev.Label)
			}
			prevCopyEnd = float64(ev.End)
		case "kernel":
			kernels++
		case "d2h":
			d2h++
			prevCopyEnd = float64(ev.End)
		}
		if ev.End < ev.Start {
			t.Fatalf("event %s ends before it starts", ev.Label)
		}
	}
	if h2d == 0 || kernels == 0 || d2h == 0 {
		t.Fatalf("trace missing event kinds: h2d=%d kernels=%d d2h=%d", h2d, kernels, d2h)
	}
	// C' crosses the bus exactly once per (p2, q2) column.
	if d2h != 1 {
		t.Fatalf("C buffer copied back %d times, want 1 (residency)", d2h)
	}
	if s := FormatTrace(events[:10]); s == "" {
		t.Fatal("trace should render")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a := bmat.RandomDense(rng, 8, 8, 4)
	b := bmat.RandomDense(rng, 8, 8, 4)
	g := NewMultiplier(testSpec(1 << 20))
	if _, err := g.Multiply(fullCuboid(a, b)); err != nil {
		t.Fatal(err)
	}
	if len(g.Device.Trace()) != 0 {
		t.Fatal("trace recorded without EnableTrace")
	}
}

func TestTraceLimitRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a := bmat.RandomDense(rng, 16, 16, 4)
	b := bmat.RandomDense(rng, 16, 16, 4)
	g := NewMultiplier(testSpec(1 << 20))
	g.Device.EnableTrace(5)
	if _, err := g.Multiply(fullCuboid(a, b)); err != nil {
		t.Fatal(err)
	}
	if n := len(g.Device.Trace()); n > 5 {
		t.Fatalf("trace holds %d events, limit 5", n)
	}
}
