package systems

import (
	"context"
	"math/rand"
	"testing"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/engine"
	"distme/internal/matrix"
	"distme/internal/ml"
)

// Every comparison system runs the same ml queries, so a System must be an
// ml.Ops with no adapter (the assertion lives in the test file because
// package ml's own tests import this package).
var _ ml.Ops = (*System)(nil)

func testCluster() cluster.Config {
	cfg := cluster.LaptopConfig()
	cfg.LocalWorkers = 4
	cfg.TaskMemBytes = 1 << 30
	cfg.DiskCapacityBytes = 0
	return cfg
}

func TestAllProfilesComputeSameProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	a := bmat.RandomSparse(rng, 16, 12, 4, 0.4)
	b := bmat.RandomDense(rng, 12, 16, 4)
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	for _, p := range All() {
		sys, err := New(p, testCluster())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got, err := sys.Multiply(context.Background(), a, b)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !got.ToDense().EqualApprox(want, 1e-9) {
			t.Errorf("%s: wrong product", p.Name)
		}
		if (sys.GPU != nil) != p.UseGPU {
			t.Errorf("%s: device %v with UseGPU %v", p.Name, sys.GPU, p.UseGPU)
		} else if p.UseGPU && sys.GPU.Stats().Kernels == 0 {
			t.Errorf("%s: GPU profile ran no kernels", p.Name)
		}
	}
}

func TestSystemMLChooserMatchesPaper(t *testing.T) {
	cfg := cluster.PaperConfig()
	// Fig 7(a) general matrices: B too big to broadcast per task → CPMM.
	general := core.Shape{I: 40, J: 40, K: 40, ABytes: 12.8e9, BBytes: 12.8e9, CBytes: 12.8e9}
	if opt := chooseSystemML(general, cfg); opt.Method != engine.MethodCPMM {
		t.Fatalf("general matrices: SystemML chose %v, want CPMM", opt.Method)
	}
	// Fig 7(c) two large dimensions: |C| enormous → RMM (the paper:
	// "MatFast uses CPMM, while SystemML uses RMM").
	twoLarge := core.Shape{I: 1000, J: 1000, K: 1, ABytes: 8e9, BBytes: 8e9, CBytes: 8e12}
	if opt := chooseSystemML(twoLarge, cfg); opt.Method != engine.MethodRMM {
		t.Fatalf("two large dims: SystemML chose %v, want RMM", opt.Method)
	}
	if opt := chooseMatFast(twoLarge, cfg); opt.Method != engine.MethodCPMM {
		t.Fatalf("two large dims: MatFast chose %v, want CPMM", opt.Method)
	}
	// Small matrices: broadcast.
	small := core.Shape{I: 4, J: 4, K: 4, ABytes: 1e6, BBytes: 1e6, CBytes: 1e6}
	if opt := chooseSystemML(small, cfg); opt.Method != engine.MethodBMM {
		t.Fatalf("small matrices: SystemML chose %v, want BMM", opt.Method)
	}
	if opt := chooseMatFast(small, cfg); opt.Method != engine.MethodBMM {
		t.Fatalf("small matrices: MatFast chose %v, want BMM", opt.Method)
	}
}

func TestDistMEChooserIsAuto(t *testing.T) {
	s := core.Shape{I: 10, J: 10, K: 10, ABytes: 1, BBytes: 1, CBytes: 1}
	if opt := chooseDistME(s, cluster.PaperConfig()); opt.Method != engine.MethodAuto {
		t.Fatalf("DistME chose %v, want MethodAuto", opt.Method)
	}
}

func TestProfileFlags(t *testing.T) {
	if !DistMEG.UseGPU || DistMEC.UseGPU {
		t.Fatal("GPU flags wrong on DistME profiles")
	}
	if !DMac.TrackLayouts {
		t.Fatal("DMac must track layouts")
	}
	if SystemMLC.TrackLayouts {
		t.Fatal("SystemML must not track layouts")
	}
	if len(All()) != 7 {
		t.Fatalf("All() lists %d systems, want 7 (Figure 8)", len(All()))
	}
}

// TestDistMEMovesLessThanSystemML reproduces the Figure 7(f) ordering on a
// general-matrices workload at laptop scale: DistME's cuboid choice shuffles
// less than SystemML's CPMM.
func TestDistMEMovesLessThanSystemML(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	a := bmat.RandomDense(rng, 36, 36, 3)
	b := bmat.RandomDense(rng, 36, 36, 3)
	cfg := testCluster()
	cfg.Nodes, cfg.TasksPerNode = 3, 3
	cfg.TaskMemBytes = 64 << 10 // tight enough that strategy matters

	run := func(p Profile) int64 {
		sys, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := sys.MultiplyReport(context.Background(), a, b)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		return rep.Comm.CommunicationBytes()
	}
	sysml := run(SystemMLC)
	distme := run(DistMEC)
	if distme >= sysml {
		t.Fatalf("DistME moved %d, SystemML %d: expected DistME lower", distme, sysml)
	}
}

func TestMatFastOOMOnOutputHeavyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	// Two large dimensions with small K: B is too big to broadcast, so
	// MatFast falls back to CPMM, whose tiny task count concentrates the
	// huge |C| in few tasks → O.O.M., while DistME survives via (P,Q,1).
	a := bmat.RandomDense(rng, 96, 4, 2)
	b := bmat.RandomDense(rng, 4, 96, 2)
	cfg := testCluster()
	cfg.Nodes, cfg.TasksPerNode = 2, 2
	cfg.TaskMemBytes = 4 << 10

	mf, err := New(MatFastC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.Multiply(context.Background(), a, b); err == nil {
		t.Fatal("MatFast should fail on output-heavy shape")
	}

	dm, err := New(DistMEC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dm.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatalf("DistME failed where it should survive: %v", err)
	}
	want := matrix.Mul(a.ToDense(), b.ToDense()).Dense()
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("DistME product wrong")
	}
}

func TestSystemDelegates(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	sys, err := New(DistMEC, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	a := bmat.RandomDense(rng, 8, 8, 4)
	tr, err := sys.Transpose(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.ToDense().Equal(a.ToDense().Transpose()) {
		t.Fatal("Transpose delegate wrong")
	}
	h, err := sys.Hadamard(context.Background(), a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !h.ToDense().EqualApprox(matrix.Hadamard(a.ToDense(), a.ToDense()), 1e-12) {
		t.Fatal("Hadamard delegate wrong")
	}
	d, err := sys.DivElem(context.Background(), a, a, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !d.ToDense().EqualApprox(matrix.DivElem(a.ToDense(), a.ToDense(), 1e-12), 1e-12) {
		t.Fatal("DivElem delegate wrong")
	}
}
