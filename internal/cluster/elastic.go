package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distme/internal/metrics"
)

// The elastic task scheduler: every task set the cluster runs goes through
// this machinery, which re-executes failed attempts with capped exponential
// backoff, launches speculative copies of stragglers once three quarters
// of the wave have finished (first result wins; the loser's attempt
// context is cancelled), and cancels promptly — within one backoff step —
// when the job context is done. Task bodies must be idempotent and commit
// their side effects at most once (the executors commit under a mutex with
// first-writer-wins), which is what makes re-execution and speculation safe
// and keeps results bit-identical to a failure-free run.

// ErrCancelled reports that a job's context was cancelled; it always wraps
// the context's error, so errors.Is matches both.
var ErrCancelled = errors.New("cluster: job cancelled")

// ErrRetriesExhausted reports that a task failed more often than the
// configured retry budget allows; it wraps the task's last error.
var ErrRetriesExhausted = errors.New("cluster: task retries exhausted")

// workItem is one scheduled execution of a task: the initial attempt, a
// retry, or a speculative copy.
type workItem struct {
	idx  int
	spec bool
}

// taskState tracks one task through the run.
type taskState struct {
	done        bool // a winning attempt committed
	failures    int  // failed attempts so far
	inFlight    int  // attempts currently executing
	speculated  bool // a speculative copy was launched
	retryQueued bool // a retry is waiting out its backoff
	nextAttempt int  // attempt numbering (drives the fault injector)
	started     time.Time
	cancels     map[int]context.CancelFunc
}

type elasticRun struct {
	c     *Cluster
	ctx   context.Context
	tasks []Task
	start time.Time

	maxRetries int
	backoff    *Backoff

	mu        sync.Mutex
	cond      *sync.Cond
	state     []taskState
	queue     []workItem
	done      int
	fatal     error
	completed []time.Duration // durations of successful attempts
	timers    []*time.Timer

	// auxWG tracks the speculation monitor and the spare workers it spawns
	// for speculative copies (so a wave of stragglers occupying every
	// regular worker cannot starve its own rescue copies).
	auxWG sync.WaitGroup
}

// Run executes the tasks with at most Slots() in flight, after checking
// each task's memory estimate against θt. A memory violation returns an
// error wrapping ErrOutOfMemory before any task runs — that failure is
// structural, so it is never retried. Attempt failures are retried up to
// TaskRetries times with capped exponential backoff; stragglers get
// speculative copies when Speculation is enabled; the first fatal error
// stops scheduling (in-flight attempts are cancelled and drained) and is
// returned. Cancelling ctx aborts the run within one backoff step with an
// error wrapping both ErrCancelled and ctx.Err().
func (c *Cluster) Run(ctx context.Context, tasks []Task) error {
	for _, t := range tasks {
		if t.MemEstimate > c.cfg.TaskMemBytes {
			return fmt.Errorf("%w: task %s needs %s, budget θt=%s",
				ErrOutOfMemory, t.Name,
				metrics.FormatBytes(t.MemEstimate), metrics.FormatBytes(c.cfg.TaskMemBytes))
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	if len(tasks) == 0 {
		return nil
	}

	workers := c.cfg.LocalWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if slots := c.cfg.Slots(); workers > slots {
		workers = slots
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	r := &elasticRun{
		c:          c,
		ctx:        ctx,
		tasks:      tasks,
		start:      time.Now(),
		maxRetries: c.cfg.TaskRetries,
		state:      make([]taskState, len(tasks)),
		queue:      make([]workItem, 0, len(tasks)),
	}
	base := c.cfg.RetryBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	r.backoff = NewBackoff(base, 16*base, JitterSource(0))
	r.cond = sync.NewCond(&r.mu)
	for i := range tasks {
		r.state[i].cancels = make(map[int]context.CancelFunc)
		r.queue = append(r.queue, workItem{idx: i})
	}

	// Wake waiting workers when the caller cancels or the job times out —
	// they re-check both conditions at the top of their pick loop.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			r.cond.Broadcast()
		case <-watchDone:
		}
	}()
	if c.cfg.JobTimeout > 0 {
		r.mu.Lock()
		r.timers = append(r.timers, time.AfterFunc(c.cfg.JobTimeout, r.cond.Broadcast))
		r.mu.Unlock()
	}

	monitorStop := make(chan struct{})
	if c.cfg.Speculation {
		r.auxWG.Add(1)
		go func() {
			defer r.auxWG.Done()
			r.monitor(monitorStop)
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.worker()
		}()
	}
	wg.Wait()
	close(watchDone)
	close(monitorStop)
	r.auxWG.Wait()

	r.mu.Lock()
	for _, t := range r.timers {
		t.Stop()
	}
	err := r.fatal
	r.mu.Unlock()
	return err
}

// finishedLocked reports whether workers should exit: a fatal error was
// recorded or every task completed.
func (r *elasticRun) finishedLocked() bool {
	return r.fatal != nil || r.done == len(r.tasks)
}

// worker pulls runnable items and executes attempts until the run finishes.
// Workers exit immediately on a fatal error; attempts already executing
// drain on their own workers before Run returns, so no task side effect
// outlives the call.
func (r *elasticRun) worker() {
	for {
		r.mu.Lock()
		var item workItem
		for {
			if r.fatal == nil {
				if err := r.ctx.Err(); err != nil {
					r.fatal = fmt.Errorf("%w: %w", ErrCancelled, err)
					r.cancelAllLocked()
				} else if jt := r.c.cfg.JobTimeout; jt > 0 && time.Since(r.start) > jt {
					r.fatal = fmt.Errorf("%w: exceeded %v", ErrTimeout, jt)
					r.cancelAllLocked()
				}
			}
			if r.finishedLocked() {
				r.mu.Unlock()
				r.cond.Broadcast()
				return
			}
			if len(r.queue) > 0 {
				item = r.queue[0]
				r.queue = r.queue[1:]
				break
			}
			r.cond.Wait()
		}
		st := &r.state[item.idx]
		if st.done {
			r.mu.Unlock()
			continue
		}
		attempt := st.nextAttempt
		st.nextAttempt++
		actx, cancel := context.WithCancel(r.ctx)
		st.cancels[attempt] = cancel
		st.inFlight++
		if st.inFlight == 1 {
			st.started = time.Now()
		}
		t := r.tasks[item.idx]
		r.mu.Unlock()

		begin := time.Now()
		err := r.c.attemptCtx(actx, t, attempt)
		dur := time.Since(begin)

		r.mu.Lock()
		cancel()
		delete(st.cancels, attempt)
		st.inFlight--
		r.settleAttemptLocked(item, st, err, dur)
		r.mu.Unlock()
		r.cond.Broadcast()
	}
}

// settleAttemptLocked updates scheduling state after one attempt finishes.
func (r *elasticRun) settleAttemptLocked(item workItem, st *taskState, err error, dur time.Duration) {
	if st.done {
		// A sibling attempt already won; this one is the cancelled (or
		// merely late) loser and its result was discarded at commit.
		return
	}
	if err == nil {
		st.done = true
		r.done++
		r.completed = append(r.completed, dur)
		if item.spec {
			atomic.AddInt64(&r.c.recorder.Elastic.Live().SpeculativeWins, 1)
		}
		// First result wins: cancel the sibling attempts still in flight.
		for _, cancel := range st.cancels {
			cancel()
		}
		return
	}
	if errors.Is(err, ErrCancelled) || errors.Is(err, context.Canceled) {
		// The attempt was cancelled, not failed; job-level cancellation is
		// detected in the pick loop.
		return
	}
	st.failures++
	if st.inFlight > 0 {
		// A sibling attempt may still win; don't spend retry budget yet.
		return
	}
	if st.failures > r.maxRetries {
		name := r.tasks[item.idx].Name
		if r.maxRetries > 0 {
			r.fatal = fmt.Errorf("task %s: %w: failed after %d attempts: %w",
				name, ErrRetriesExhausted, st.failures, err)
		} else {
			r.fatal = fmt.Errorf("task %s: %w", name, err)
		}
		r.cancelAllLocked()
		return
	}
	atomic.AddInt64(&r.c.recorder.Elastic.Live().TaskRetries, 1)
	st.retryQueued = true
	r.scheduleRetryLocked(item.idx, r.backoff.Delay(st.failures))
}

// scheduleRetryLocked enqueues a retry of task idx after the backoff. The
// timer fires into scheduler state (never a channel send), so late firings
// after the run ends are harmless.
func (r *elasticRun) scheduleRetryLocked(idx int, delay time.Duration) {
	r.timers = append(r.timers, time.AfterFunc(delay, func() {
		r.mu.Lock()
		st := &r.state[idx]
		st.retryQueued = false
		if r.fatal == nil && !st.done {
			r.queue = append(r.queue, workItem{idx: idx})
		}
		r.mu.Unlock()
		r.cond.Broadcast()
	}))
}

// cancelAllLocked cancels every in-flight attempt so the drain is prompt.
func (r *elasticRun) cancelAllLocked() {
	for i := range r.state {
		for _, cancel := range r.state[i].cancels {
			cancel()
		}
	}
}

const (
	// speculationTick is how often the straggler monitor samples the wave.
	speculationTick = 2 * time.Millisecond
	// speculationQuantile is the completed fraction of a wave required
	// before stragglers are considered.
	speculationQuantile = 0.75
	// speculationMultiplier scales the quantile completion time into the
	// straggler threshold.
	speculationMultiplier = 2
)

// monitor watches running tasks and launches one speculative copy of each
// straggler: once speculationQuantile of the wave has completed, any task
// in flight for longer than speculationMultiplier × the quantile
// completion time gets a second attempt.
func (r *elasticRun) monitor(stop <-chan struct{}) {
	ticker := time.NewTicker(speculationTick)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		r.mu.Lock()
		if r.finishedLocked() {
			r.mu.Unlock()
			return
		}
		minDone := int(speculationQuantile * float64(len(r.tasks)))
		if minDone < 1 {
			minDone = 1
		}
		if r.done < minDone {
			r.mu.Unlock()
			continue
		}
		threshold := time.Duration(speculationMultiplier * float64(r.quantileDurationLocked(speculationQuantile)))
		if threshold < speculationTick {
			threshold = speculationTick
		}
		now := time.Now()
		launched := 0
		for i := range r.state {
			st := &r.state[i]
			if st.done || st.speculated || st.inFlight == 0 {
				continue
			}
			if now.Sub(st.started) > threshold {
				st.speculated = true
				r.queue = append(r.queue, workItem{idx: i, spec: true})
				atomic.AddInt64(&r.c.recorder.Elastic.Live().SpeculativeLaunched, 1)
				launched++
			}
		}
		r.mu.Unlock()
		if launched > 0 {
			// A speculative copy exists because its original is stuck; if
			// stragglers hold every regular worker, the copy would wait for
			// the very delay it is meant to beat. Run copies on spare
			// workers — the cluster's slack capacity. The spares pick work
			// off the shared queue and exit with the run.
			for i := 0; i < launched; i++ {
				r.auxWG.Add(1)
				go func() {
					defer r.auxWG.Done()
					r.worker()
				}()
			}
			r.cond.Broadcast()
		}
	}
}

// quantileDurationLocked returns the q-th quantile of completed attempt
// durations.
func (r *elasticRun) quantileDurationLocked(q float64) time.Duration {
	if len(r.completed) == 0 {
		return 0
	}
	durs := make([]time.Duration, len(r.completed))
	copy(durs, r.completed)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	idx := int(q * float64(len(durs)))
	if idx >= len(durs) {
		idx = len(durs) - 1
	}
	return durs[idx]
}
