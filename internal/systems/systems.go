// Package systems reproduces the comparison systems of the paper's §6.3 and
// §6.4 as strategy profiles over the shared engine: SystemML and MatFast
// (with and without the GPU retrofit the authors applied), DMac, and DistME
// itself. Each profile implements the system's published multiplication-
// method chooser; what §6.3/6.4 measure is exactly this choice plus layout
// reuse, so running the choosers on one engine isolates the comparison the
// paper makes.
package systems

import (
	"context"
	"fmt"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/core"
	"distme/internal/engine"
	"distme/internal/gpu"
	"distme/internal/plan"
)

// Profile describes one comparison system.
type Profile struct {
	// Name as the paper's figures label it, e.g. "SystemML(C)".
	Name string
	// TrackLayouts enables matrix-dependency reuse (DMac, MatFast, DistME).
	TrackLayouts bool
	// UseGPU enables the GPU local-multiplication path — the "(G)"
	// variants.
	UseGPU bool
	// Choose picks the multiplication strategy for one product.
	Choose func(s core.Shape, cfg cluster.Config) engine.MulOptions
}

// chooseSystemML is SystemML's multiplication chooser: broadcast (BMM) when
// the smaller input fits in a task's budget, cross-product (CPMM) when the
// per-task output fits, replication (RMM) otherwise.
func chooseSystemML(s core.Shape, cfg cluster.Config) engine.MulOptions {
	if fitsBMM(s, cfg) {
		return engine.MulOptions{Method: engine.MethodBMM}
	}
	if fitsCPMM(s, cfg) {
		return engine.MulOptions{Method: engine.MethodCPMM}
	}
	return engine.MulOptions{Method: engine.MethodRMM}
}

// chooseMatFast is MatFast's (naive-version) chooser: BMM for broadcastable
// inputs, CPMM otherwise — no RMM fallback, which is why it hits O.O.M. on
// output-heavy shapes (Figure 7(c)).
func chooseMatFast(s core.Shape, cfg cluster.Config) engine.MulOptions {
	if fitsBMM(s, cfg) {
		return engine.MulOptions{Method: engine.MethodBMM}
	}
	return engine.MulOptions{Method: engine.MethodCPMM}
}

// chooseDistME is DistME's chooser: the Eq.(2) optimizer.
func chooseDistME(core.Shape, cluster.Config) engine.MulOptions {
	return engine.MulOptions{Method: engine.MethodAuto}
}

// fitsBMM checks whether broadcasting B is safe, using the conservative
// Table 2 estimate |A|/T + |B| + |C|/T ≤ θt — SystemML's broadcast decision
// requires the broadcast operand to fit the per-executor budget.
func fitsBMM(s core.Shape, cfg cluster.Config) bool {
	return s.MemBytes(s.BMMParams()) <= float64(cfg.TaskMemBytes)
}

// fitsCPMM checks CPMM's physical working set: a CPMM task holds its input
// slices (|A|+|B|)/K and streams partial C blocks straight into the
// aggregation shuffle, which is how CPMM survives |C| ≫ θt on general
// matrices (§6.2) yet dies when a single input slice outgrows the budget.
func fitsCPMM(s core.Shape, cfg cluster.Config) bool {
	inputs := float64(s.ABytes+s.BBytes) / float64(s.K)
	return inputs <= float64(cfg.TaskMemBytes)
}

// Profiles.
var (
	// SystemMLC is SystemML on CPUs.
	SystemMLC = Profile{Name: "SystemML(C)", Choose: chooseSystemML}
	// SystemMLG is the authors' GPU retrofit of SystemML.
	SystemMLG = Profile{Name: "SystemML(G)", Choose: chooseSystemML, UseGPU: true}
	// MatFastC is the naive MatFast on CPUs.
	MatFastC = Profile{Name: "MatFast(C)", Choose: chooseMatFast, TrackLayouts: true}
	// MatFastG is the authors' GPU retrofit of MatFast.
	MatFastG = Profile{Name: "MatFast(G)", Choose: chooseMatFast, TrackLayouts: true, UseGPU: true}
	// DMac exploits matrix dependencies on top of a CPMM/BMM chooser.
	DMac = Profile{Name: "DMac", Choose: chooseMatFast, TrackLayouts: true}
	// DistMEC is this paper's system on CPUs.
	DistMEC = Profile{Name: "DistME(C)", Choose: chooseDistME, TrackLayouts: true}
	// DistMEG is this paper's system with GPU acceleration.
	DistMEG = Profile{Name: "DistME(G)", Choose: chooseDistME, TrackLayouts: true, UseGPU: true}
)

// All lists the seven systems of Figure 8.
func All() []Profile {
	return []Profile{MatFastC, MatFastG, SystemMLC, SystemMLG, DMac, DistMEC, DistMEG}
}

// System is a comparison system instantiated on a cluster: a profile bound
// to an engine.
type System struct {
	Profile Profile
	Engine  *engine.Engine
	// GPU is the simulated device the engine multiplies on, one task's MPS
	// slice of the cluster's GPUs; nil for the CPU profiles.
	GPU *gpu.Device
}

// New instantiates a profile on the given cluster envelope.
func New(p Profile, clusterCfg cluster.Config) (*System, error) {
	cfg := engine.Config{Cluster: clusterCfg, TrackLayouts: p.TrackLayouts}
	var dev *gpu.Device
	if p.UseGPU {
		m := gpu.NewMultiplier(gpu.TaskSpec(clusterCfg))
		cfg.Local, dev = m, m.Device
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("systems: %s: %w", p.Name, err)
	}
	return &System{Profile: p, Engine: e, GPU: dev}, nil
}

// Multiply runs one product with the system's own strategy choice.
func (s *System) Multiply(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	c, _, err := s.MultiplyReport(ctx, a, b)
	return c, err
}

// MultiplyReport runs one product and returns the engine report, which
// records the strategy the system chose and the traffic it caused.
func (s *System) MultiplyReport(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, *engine.Report, error) {
	opts := s.Profile.Choose(core.ShapeOf(a, b), s.Engine.Cluster().Config())
	return s.Engine.Run(ctx, plan.Mul(plan.V("a"), plan.V("b")),
		map[string]*bmat.BlockMatrix{"a": a, "b": b}, engine.WithMulOptions(opts))
}

// Transpose delegates to the engine.
func (s *System) Transpose(ctx context.Context, a *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	return s.Engine.Transpose(ctx, a)
}

// Hadamard delegates to the engine.
func (s *System) Hadamard(ctx context.Context, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	return s.Engine.Hadamard(ctx, a, b)
}

// DivElem delegates to the engine.
func (s *System) DivElem(ctx context.Context, a, b *bmat.BlockMatrix, eps float64) (*bmat.BlockMatrix, error) {
	return s.Engine.DivElem(ctx, a, b, eps)
}
