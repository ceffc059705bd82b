package cluster

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff is the retry-delay policy every retry loop in the tree shares —
// the elastic task scheduler here and the network driver's cuboid
// dispatch: capped exponential steps with full jitter. The delay before the
// retry that follows the nth consecutive failure is uniform in
// (0, min(base·2ⁿ⁻¹, limit)], so work that failed together retries spread out
// instead of stampeding the same recovering resource. Jitter changes only
// retry timing, never results.
type Backoff struct {
	base, limit time.Duration

	mu  sync.Mutex
	src *rand.Rand
}

// NewBackoff builds a policy drawing its jitter from src (JitterSource).
func NewBackoff(base, limit time.Duration, src *rand.Rand) *Backoff {
	return &Backoff{base: base, limit: limit, src: src}
}

// JitterSource is the jitter source for a configured seed: a non-zero seed
// pins the whole delay sequence (deterministic tests), 0 seeds from the clock.
func JitterSource(seed int64) *rand.Rand {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return rand.New(rand.NewSource(seed))
}

// Delay returns the jittered delay after the nth failure (1-based). Safe for
// concurrent use; each call draws once from the source.
func (b *Backoff) Delay(failures int) time.Duration {
	d := b.base
	for i := 1; i < failures && d < b.limit; i++ {
		d *= 2
	}
	d = min(d, b.limit)
	if d <= 0 {
		return d
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Duration(b.src.Int63n(int64(d)) + 1)
}
