package distnet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The autoscaler: a policy that turns ClusterHealth snapshots into scale
// decisions, and a supervisor goroutine on the driver that applies them
// through a WorkerPool — pool.Grow → AddWorker on the way up, graceful
// pool.Shrink (drain) → RemoveWorker on the way down. Pinned session
// handles survive scale-downs via the existing two-tier recovery: draining
// members leave liveMembers, so the next session operation re-snapshots
// onto the remaining placement.

// ScaleAction is what the policy asked for on one tick.
type ScaleAction int

const (
	// ScaleHold: no change this tick.
	ScaleHold ScaleAction = iota
	// ScaleUp: grow the pool by one worker.
	ScaleUp
	// ScaleDown: drain the named worker out of rotation.
	ScaleDown
)

// String names the action for events and logs.
func (a ScaleAction) String() string {
	switch a {
	case ScaleHold:
		return "hold"
	case ScaleUp:
		return "up"
	case ScaleDown:
		return "down"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// ScaleDecision is one policy verdict. Addr names the drain victim for
// ScaleDown (ignored for the other actions); Reason is a short operator-
// facing explanation recorded in the decision log.
type ScaleDecision struct {
	Action ScaleAction
	Addr   string
	Reason string
}

// Autoscaler decides scaling from a health snapshot. Decide runs on the
// supervisor goroutine once per tick; implementations may keep state (the
// default hysteresis policy counts sustained observations) and need not be
// concurrency-safe.
type Autoscaler interface {
	Decide(h ClusterHealth) ScaleDecision
}

// A worker at or below unhealthyScore, or flapping, for unhealthyAfter
// consecutive ticks is drained out of rotation even under load.
const (
	unhealthyScore = 0.3
	unhealthyAfter = 4
)

// HysteresisPolicy is the default Autoscaler: scale up on sustained queue
// pressure or straggling, drain on sustained idleness or a flapping /
// persistently unhealthy worker, with cooldowns between decisions so one
// burst cannot thrash the pool. Thresholds are in ticks of the supervisor
// interval, which keeps the policy deterministic under a seeded soak.
type HysteresisPolicy struct {
	// MinWorkers/MaxWorkers bound the live pool (defaults 1 and 8).
	MinWorkers int
	MaxWorkers int
	// UpPressure is the queue pressure (ClusterHealth.Pressure) that, held
	// for UpAfter consecutive ticks, triggers a scale-up (defaults 0.75
	// and 3). A tick with windowed stragglers also counts as up-pressure:
	// slow workers and deep queues both mean the pool is short.
	UpPressure float64
	UpAfter    int
	// DownPressure held for DownAfter consecutive ticks triggers a drain
	// of the lowest-scoring worker (defaults 0.15 and 8).
	DownPressure float64
	DownAfter    int
	// CooldownTicks holds all decisions for this many ticks after any
	// non-hold decision (default 8), letting the last action take effect
	// before the next is considered.
	CooldownTicks int

	upTicks, downTicks, cooldown int
	unhealthy                    map[string]int
}

func (p *HysteresisPolicy) defaults() {
	if p.MinWorkers <= 0 {
		p.MinWorkers = 1
	}
	if p.MaxWorkers <= 0 {
		p.MaxWorkers = 8
	}
	if p.UpPressure <= 0 {
		p.UpPressure = 0.75
	}
	if p.UpAfter <= 0 {
		p.UpAfter = 3
	}
	if p.DownPressure <= 0 {
		p.DownPressure = 0.15
	}
	if p.DownAfter <= 0 {
		p.DownAfter = 8
	}
	if p.CooldownTicks <= 0 {
		p.CooldownTicks = 8
	}
}

// Decide implements Autoscaler with hysteresis on every edge.
func (p *HysteresisPolicy) Decide(h ClusterHealth) ScaleDecision {
	p.defaults()
	if p.cooldown > 0 {
		p.cooldown--
		return ScaleDecision{Action: ScaleHold, Reason: "cooldown"}
	}

	var stragglers int64
	for _, w := range h.Workers {
		stragglers += w.Stragglers
	}

	// Unhealthy drain first: a flapping or failing worker hurts even a
	// loaded cluster (its retries are why the queue is deep).
	if p.unhealthy == nil {
		p.unhealthy = map[string]int{}
	}
	seen := map[string]bool{}
	victim, victimTicks := "", 0
	for _, w := range h.Workers {
		if w.Score == 0 || w.Draining {
			continue // dead and draining workers are not drain candidates
		}
		seen[w.Addr] = true
		if w.Score <= unhealthyScore || w.Flapping {
			p.unhealthy[w.Addr]++
		} else {
			delete(p.unhealthy, w.Addr)
		}
		if t := p.unhealthy[w.Addr]; t >= unhealthyAfter && t > victimTicks {
			victim, victimTicks = w.Addr, t
		}
	}
	for addr := range p.unhealthy {
		if !seen[addr] {
			delete(p.unhealthy, addr)
		}
	}
	if victim != "" && h.LiveWorkers > p.MinWorkers {
		p.unhealthy = map[string]int{}
		p.upTicks, p.downTicks = 0, 0
		p.cooldown = p.CooldownTicks
		return ScaleDecision{Action: ScaleDown, Addr: victim, Reason: "unhealthy: flapping or low score"}
	}

	if h.Pressure >= p.UpPressure || stragglers > 0 {
		p.upTicks++
		p.downTicks = 0
	} else if h.Pressure <= p.DownPressure {
		p.downTicks++
		p.upTicks = 0
	} else {
		p.upTicks, p.downTicks = 0, 0
	}

	if p.upTicks >= p.UpAfter && h.LiveWorkers < p.MaxWorkers {
		p.upTicks = 0
		p.cooldown = p.CooldownTicks
		reason := fmt.Sprintf("sustained pressure %.2f", h.Pressure)
		if stragglers > 0 {
			reason = fmt.Sprintf("stragglers (%d in window), pressure %.2f", stragglers, h.Pressure)
		}
		return ScaleDecision{Action: ScaleUp, Reason: reason}
	}
	if p.downTicks >= p.DownAfter && h.LiveWorkers > p.MinWorkers {
		// Drain the lowest-scoring live worker; ties break to table order.
		best, bestScore := "", 2.0
		for _, w := range h.Workers {
			if w.Score > 0 && !w.Draining && w.Score < bestScore {
				best, bestScore = w.Addr, w.Score
			}
		}
		if best != "" {
			p.downTicks = 0
			p.cooldown = p.CooldownTicks
			return ScaleDecision{Action: ScaleDown, Addr: best,
				Reason: fmt.Sprintf("sustained idleness, pressure %.2f", h.Pressure)}
		}
	}
	return ScaleDecision{Action: ScaleHold}
}

// WorkerPool provisions and retires worker processes for the autoscaler.
// Grow starts one worker and returns its dialable address; Shrink
// gracefully stops the worker at addr (drain bounded by ctx); Owns reports
// whether addr was provisioned by this pool — the supervisor never drains
// workers it does not own, so statically-dialed members are safe from
// scale-downs.
type WorkerPool interface {
	Grow(ctx context.Context) (addr string, err error)
	Shrink(ctx context.Context, addr string) error
	Owns(addr string) bool
}

// ScaleEvent is one applied (or failed) autoscaler decision, kept in the
// driver's bounded decision log for the debug endpoint.
type ScaleEvent struct {
	Time   time.Time `json:"time"`
	Action string    `json:"action"`
	Addr   string    `json:"addr,omitempty"`
	Reason string    `json:"reason,omitempty"`
	Err    string    `json:"err,omitempty"`
}

// scaleEventCap bounds the decision log.
const scaleEventCap = 64

// AutoscalerOptions tunes the supervisor loop.
type AutoscalerOptions struct {
	// Pool provisions workers. Required.
	Pool WorkerPool
	// Policy decides; nil takes a default HysteresisPolicy.
	Policy Autoscaler
	// Interval is the tick period (default 250ms).
	Interval time.Duration
	// DrainTimeout bounds a scale-down's graceful drain (default 5s).
	DrainTimeout time.Duration
	// RetireAfter is how long a member may stay Dead before housekeeping
	// flips it to Removed so the detector stops redialing it (default 30s;
	// negative disables retirement).
	RetireAfter time.Duration
}

func (o AutoscalerOptions) withDefaults() AutoscalerOptions {
	if o.Policy == nil {
		o.Policy = &HysteresisPolicy{}
	}
	if o.Interval <= 0 {
		o.Interval = 250 * time.Millisecond
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.RetireAfter == 0 {
		o.RetireAfter = 30 * time.Second
	}
	return o
}

// scalerRun is one running supervisor.
type scalerRun struct {
	d    *Driver
	opts AutoscalerOptions
	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	events []ScaleEvent
}

// StartAutoscaler starts the self-healing supervisor: every Interval it
// snapshots ClusterHealth, asks the policy for a decision, and applies it
// through the pool. At most one supervisor runs per driver.
func (d *Driver) StartAutoscaler(opts AutoscalerOptions) error {
	if opts.Pool == nil {
		return fmt.Errorf("distnet: autoscaler needs a WorkerPool")
	}
	if err := d.checkOpen(); err != nil {
		return err
	}
	d.scalerMu.Lock()
	defer d.scalerMu.Unlock()
	if d.scaler != nil {
		return fmt.Errorf("distnet: autoscaler already running")
	}
	r := &scalerRun{
		d:    d,
		opts: opts.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	d.scaler = r
	go r.run()
	return nil
}

// StopAutoscaler stops the supervisor and waits for it to exit. It is a
// no-op when none is running; Close calls it.
func (d *Driver) StopAutoscaler() {
	d.scalerMu.Lock()
	r := d.scaler
	d.scaler = nil
	d.scalerMu.Unlock()
	if r != nil {
		close(r.stop)
		<-r.done
	}
}

// AutoscalerEvents returns the decision log (oldest first, bounded to the
// last scaleEventCap non-hold decisions). Empty when no supervisor ran.
func (d *Driver) AutoscalerEvents() []ScaleEvent {
	d.scalerMu.Lock()
	r := d.scaler
	d.scalerMu.Unlock()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ScaleEvent(nil), r.events...)
}

func (r *scalerRun) record(ev ScaleEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	if len(r.events) > scaleEventCap {
		r.events = r.events[len(r.events)-scaleEventCap:]
	}
	r.mu.Unlock()
}

func (r *scalerRun) run() {
	defer close(r.done)
	ticker := time.NewTicker(r.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.tick()
		}
	}
}

func (r *scalerRun) tick() {
	d := r.d
	if r.opts.RetireAfter >= 0 {
		for _, addr := range d.retireDead(r.opts.RetireAfter) {
			r.record(ScaleEvent{Time: time.Now(), Action: "retire", Addr: addr,
				Reason: fmt.Sprintf("dead longer than %v", r.opts.RetireAfter)})
		}
	}
	dec := r.opts.Policy.Decide(d.ClusterHealth())
	switch dec.Action {
	case ScaleUp:
		ctx, cancel := context.WithTimeout(context.Background(), r.opts.DrainTimeout)
		addr, err := r.opts.Pool.Grow(ctx)
		cancel()
		if err == nil {
			err = d.AddWorker(addr)
		}
		ev := ScaleEvent{Time: time.Now(), Action: "up", Addr: addr, Reason: dec.Reason}
		if err != nil {
			ev.Err = err.Error()
		} else {
			atomic.AddInt64(&d.rec.Net.Live().ScaleUps, 1)
		}
		r.record(ev)
	case ScaleDown:
		ev := ScaleEvent{Time: time.Now(), Action: "down", Addr: dec.Addr, Reason: dec.Reason}
		if !r.opts.Pool.Owns(dec.Addr) {
			ev.Err = "not pool-owned; refusing to drain"
			r.record(ev)
			return
		}
		// Drain first (the worker starts refusing work, in-flight RPCs
		// finish, peers may still GetBlocks during the drain window), then
		// remove the member so the detector stops redialing a gone worker.
		ctx, cancel := context.WithTimeout(context.Background(), r.opts.DrainTimeout)
		err := r.opts.Pool.Shrink(ctx, dec.Addr)
		cancel()
		if rmErr := d.RemoveWorker(dec.Addr); err == nil {
			err = rmErr
		}
		if err != nil {
			ev.Err = err.Error()
		}
		atomic.AddInt64(&d.rec.Net.Live().ScaleDowns, 1)
		r.record(ev)
	}
}
