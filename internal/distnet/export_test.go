package distnet

import "time"

// RefuseAsDraining puts w where a drain that has outlasted its window
// leaves it: every call, reads included, is refused with ErrWorkerDraining,
// while its connections stay open.
func RefuseAsDraining(w *Worker) {
	w.mu.Lock()
	w.draining, w.drainUntil = true, time.Now()
	w.mu.Unlock()
}
