package core

import "fmt"

// Transfer names how cuboid operand slices reach the workers. The operands'
// residence settles it: driver-side operands are pushed, resident ones
// pulled, so no cost model chooses between the two.
type Transfer int

const (
	// TransferAuto is the zero value: the plane of the entry point called.
	TransferAuto Transfer = iota
	// TransferPush: the driver ships every slice of its own operands.
	TransferPush
	// TransferPull names the operands' bands; workers fetch slices of
	// resident operands from peers (or the driver as last resort).
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
