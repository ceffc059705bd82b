package workload

import (
	"fmt"
	"math/rand"

	"distme/internal/bmat"
)

// ServeJob is one multiply job drawn from a serving-plane mix: a labeled
// operand pair from one of the §6.1 shape families.
type ServeJob struct {
	Kind string
	A, B *bmat.BlockMatrix
}

// ServeMix is a pre-generated pool of mixed-shape jobs for open-loop load
// generation: operands are built once up front so a high offered rate
// measures the serving plane, not the random-matrix generator. Draws by
// index are deterministic and safe from many goroutines.
type ServeMix struct {
	jobs []ServeJob
}

// NewServeMix builds the default mixed-shape pool: every §6.1 family at
// small and medium scale, variants instances per shape with distinct
// seeded contents. blockSize <= 0 defaults to 8.
func NewServeMix(seed int64, blockSize, variants int) *ServeMix {
	shapes := []struct {
		Family   Family
		N, Fixed int
	}{
		{General, 32, 0},
		{General, 64, 0},
		{CommonLargeDim, 96, 16},
		{CommonLargeDim, 192, 16},
		{TwoLargeDims, 64, 16},
		{TwoLargeDims, 96, 16},
	}
	if blockSize <= 0 {
		blockSize = 8
	}
	if variants < 1 {
		variants = 1
	}
	rng := rand.New(rand.NewSource(seed))
	m := &ServeMix{}
	for _, sh := range shapes {
		for v := 0; v < variants; v++ {
			a, b := SyntheticPair(rng, sh.Family, sh.N, sh.Fixed, blockSize, 1.0)
			i, k, j := sh.Family.Dims(sh.N, sh.Fixed)
			m.jobs = append(m.jobs, ServeJob{
				Kind: fmt.Sprintf("%dx%dx%d", i, k, j),
				A:    a,
				B:    b,
			})
		}
	}
	return m
}

// Len is the pool size.
func (m *ServeMix) Len() int { return len(m.jobs) }

// Job returns the i-th draw, cycling through the pool. Consecutive indices
// interleave shapes so any submission window is mixed.
func (m *ServeMix) Job(i int) ServeJob {
	if i < 0 {
		i = -i
	}
	// A stride coprime with the pool length scatters neighboring indices
	// across shape families.
	return m.jobs[(i*7+i/len(m.jobs))%len(m.jobs)]
}
