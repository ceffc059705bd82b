package core

import "fmt"

// Pull-mode pricing: Eq.(4) split by who moves the bytes. Push mode ships
// every cuboid slice from the driver, so the driver NIC pays the full
// Q·|A| + P·|B|. Pull mode ships each operand once (or not at all, when it
// is already resident on the workers) and lets workers fetch the replicas
// they need from peers — the same total bytes, but the replica traffic
// spreads across W parallel worker↔worker links while driver traffic
// serializes through one NIC. The pull cost therefore charges driver bytes
// at face value and peer bytes at 1/W, which is what makes the two modes
// comparable on the axis that bounds wall clock.

// Transfer selects how cuboid operand slices reach the workers.
type Transfer int

const (
	// TransferAuto prices both modes with OptimizeTransfer and picks the
	// cheaper per job.
	TransferAuto Transfer = iota
	// TransferPush is the classic mode: the driver pushes every slice.
	TransferPush
	// TransferPull ships a placement manifest; workers fetch slices from
	// peers (or the driver as last resort).
	TransferPull
)

// String names the transfer mode.
func (t Transfer) String() string {
	switch t {
	case TransferAuto:
		return "auto"
	case TransferPush:
		return "push"
	case TransferPull:
		return "pull"
	default:
		return fmt.Sprintf("transfer(%d)", int(t))
	}
}

// Valid reports whether t is a known mode.
func (t Transfer) Valid() bool {
	return t == TransferAuto || t == TransferPush || t == TransferPull
}

// PullCost parameterizes the pull-mode evaluation of Eq.(4).
type PullCost struct {
	// Workers is the peer fan-out: the number of parallel worker↔worker
	// links replica traffic spreads across. Values below 1 mean 1.
	Workers int
	// SeedResident drops the one-copy driver seed term |A| + |B| — the
	// operands are already resident on the workers as handles, so pull mode
	// moves no operand bytes through the driver at all.
	SeedResident bool
}

func (pc PullCost) normalized() PullCost {
	if pc.Workers < 1 {
		pc.Workers = 1
	}
	return pc
}

// CostBytesPull evaluates Eq.(4) for pull mode: the driver seeds one copy
// of each operand (unless it is already resident), workers replicate the
// rest from peers at fan-out W, and aggregation R·|C| (charged only when
// R>1) still crosses the driver link:
//
//	InputRatio·(|A| + |B|)                      driver seed (0 if resident)
//	+ InputRatio·((Q−1)·|A| + (P−1)·|B|) / W    peer replication
//	+ AggRatio·R·|C|  (iff R > 1)               aggregation
//
// The sum of the first two numerators equals push's Q·|A| + P·|B| exactly —
// pull never moves fewer total bytes, it moves them over more links.
func (s Shape) CostBytesPull(p Params, w WireCost, pc PullCost) float64 {
	w = w.normalized()
	pc = pc.normalized()
	cost := 0.0
	if !pc.SeedResident {
		cost += w.InputRatio * float64(s.ABytes+s.BBytes)
	}
	peer := float64(p.Q-1)*float64(s.ABytes) + float64(p.P-1)*float64(s.BBytes)
	cost += w.InputRatio * peer / float64(pc.Workers)
	if p.R > 1 {
		cost += w.AggRatio * float64(p.R) * float64(s.CBytes)
	}
	return cost
}

// OptimizePull is OptimizeWire with the cost evaluated as CostBytesPull:
// the feasible (P,Q,R) minimizing the pull-mode Eq.(4).
func OptimizePull(s Shape, taskMemBytes int64, slots int, w WireCost, pc PullCost) (Params, error) {
	return search(s, taskMemBytes, slots, func(p Params) float64 { return s.CostBytesPull(p, w, pc) })
}

// OptimizeTransfer solves Eq.(2) across both transfer modes: it returns the
// cheaper of OptimizeWire's push plan (priced CostBytesWire) and
// OptimizePull's pull plan (priced CostBytesPull), and which mode won.
// Pull is selected exactly when its Eq.(4) evaluation is strictly cheaper;
// ties keep push, the established mode.
func OptimizeTransfer(s Shape, taskMemBytes int64, slots int, w WireCost, pc PullCost) (Params, Transfer, error) {
	push, err := OptimizeWire(s, taskMemBytes, slots, w)
	if err != nil {
		return Params{}, TransferPush, err
	}
	pull, err := OptimizePull(s, taskMemBytes, slots, w, pc)
	if err != nil {
		return Params{}, TransferPush, err
	}
	if s.CostBytesPull(pull, w, pc) < s.CostBytesWire(push, w) {
		return pull, TransferPull, nil
	}
	return push, TransferPush, nil
}
