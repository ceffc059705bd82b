package distnet

import (
	"sync"
	"time"

	"distme/internal/metrics"
)

// The health signal plane: one windowed score per worker, derived from
// signals the driver already collects — heartbeat RTTs and missed beats,
// Suspect transitions, per-cuboid retry/timeout counts, straggler RPCs, and
// the store occupancy/eviction pressure the pongs ferry back. The score
// feeds the autoscaler (autoscaler.go) and the /debug/distme endpoint.

// healthWindow is the score window: lifetime counters are differenced
// against a base snapshot at most this old, so a worker that misbehaved ten
// minutes ago but has been clean since scores healthy again.
const healthWindow = time.Second

// Score weights. A fresh Alive worker scores 1.0; signals subtract; the
// result clamps to [0, 1]. Dead and removed workers score 0 outright.
const (
	healthPenaltySuspect  = 0.4  // currently in Suspect state
	healthPenaltyMissed   = 0.15 // per consecutive missed heartbeat
	healthPenaltyDraining = 0.5  // refused work with the draining sentinel
	healthPenaltyEvent    = 0.1  // per windowed retry/timeout/straggler
	healthPenaltyEventCap = 0.5  // cap on the windowed-event subtraction
	// healthFlapTransitions is the windowed Alive/Suspect transition count
	// at which a worker counts as flapping.
	healthFlapTransitions = 2
)

// WorkerHealth is one member's health snapshot. Counter fields are windowed
// deltas (events within the last healthWindow-ish interval), not lifetimes.
type WorkerHealth struct {
	Addr     string `json:"addr"`
	State    string `json:"state"`
	Draining bool   `json:"draining"`
	// Score is the composite health in [0, 1]: 1 = healthy, 0 = dead.
	Score   float64       `json:"score"`
	LastRTT time.Duration `json:"last_rtt_ns"`
	// Missed is the consecutive failed-heartbeat count, what stands between
	// the member and the Suspect and Dead thresholds.
	Missed int `json:"missed_heartbeats"`
	// Load snapshot from the worker's last pong.
	InFlight     int64 `json:"in_flight"`
	StoreBytes   int64 `json:"store_bytes"`
	StoreHandles int64 `json:"store_handles"`
	// Windowed event counts.
	Retries            int64 `json:"retries"`
	Timeouts           int64 `json:"timeouts"`
	Stragglers         int64 `json:"stragglers"`
	SuspectTransitions int64 `json:"suspect_transitions"`
	StoreEvictions     int64 `json:"store_evictions"`
	// Flapping marks a worker bouncing between Alive and Suspect within the
	// window — the autoscaler's drain-don't-trust signal.
	Flapping bool `json:"flapping"`
}

// ClusterHealth is the driver's aggregate health snapshot.
type ClusterHealth struct {
	Workers []WorkerHealth `json:"workers"`
	// LiveWorkers counts schedulable members, the count Driver.Workers
	// returns; QueueDepth is cuboids dispatched but not yet aggregated
	// (including ones waiting for an in-flight slot).
	LiveWorkers int   `json:"live_workers"`
	QueueDepth  int64 `json:"queue_depth"`
	// Pressure is QueueDepth over the pool's in-flight capacity
	// (LiveWorkers × PerWorkerInflight): <1 means slots are free, >1 means
	// cuboids are queueing. 0 when no workers are live.
	Pressure float64 `json:"pressure"`
	// MeanScore averages the live workers' scores; MeanRPC is the rolling
	// mean of successful cuboid RPC durations (the straggler baseline).
	MeanScore float64       `json:"mean_score"`
	MeanRPC   time.Duration `json:"mean_rpc_ns"`
}

// memberEvents are one member's lifetime health events, named as the
// windowed counts of WorkerHealth they become.
type memberEvents struct {
	Retries            int64 // failed cuboid attempts retried off this member
	Timeouts           int64 // per-call deadline expiries
	Stragglers         int64 // successful-but-slow cuboid RPCs
	SuspectTransitions int64 // Alive/Suspect transitions
	StoreEvictions     int64 // the worker's own count, from its last pong
}

// healthBase is one member's lifetime-event snapshot, the subtrahend of the
// windowed deltas.
type healthBase struct {
	at     time.Time
	events memberEvents
}

// healthState holds the per-member bases. Bases roll forward only when
// older than healthWindow, so ClusterHealth is effectively pure: the
// autoscaler and the debug endpoint can both call it without consuming
// each other's deltas.
type healthState struct {
	mu    sync.Mutex
	bases map[*member]healthBase
}

// ClusterHealth snapshots per-worker health scores and cluster pressure.
// Safe to call concurrently and mid-multiply.
func (d *Driver) ClusterHealth() ClusterHealth {
	d.mu.Lock()
	members := append([]*member(nil), d.members...)
	d.mu.Unlock()
	d.ewmaMu.Lock()
	meanRPC := d.ewmaRPC
	d.ewmaMu.Unlock()

	h := ClusterHealth{QueueDepth: d.inflight.Load(), MeanRPC: meanRPC}
	now := time.Now()
	d.health.mu.Lock()
	defer d.health.mu.Unlock()
	if d.health.bases == nil {
		d.health.bases = map[*member]healthBase{}
	}
	// Drop bases of members no longer in the table (retired + reaped).
	if len(d.health.bases) > 2*len(members) {
		present := map[*member]bool{}
		for _, m := range members {
			present[m] = true
		}
		for m := range d.health.bases {
			if !present[m] {
				delete(d.health.bases, m)
			}
		}
	}

	var scoreSum float64
	for _, m := range members {
		m.mu.Lock()
		state, missed, rtt := m.state, m.missed, m.lastRTT
		connected := m.client != nil
		m.mu.Unlock()

		cur := healthBase{at: now, events: m.events.Load()}
		base, ok := d.health.bases[m]
		if !ok {
			// First sighting: no history, so the window starts empty.
			base = cur
			d.health.bases[m] = base
		} else if now.Sub(base.at) > healthWindow {
			d.health.bases[m] = cur
		}

		win := metrics.Sub(cur.events, base.events)
		wh := WorkerHealth{
			Addr:               m.addr,
			State:              state.String(),
			Draining:           m.draining.Load(),
			LastRTT:            rtt,
			Missed:             missed,
			InFlight:           m.loadInFlight.Load(),
			StoreBytes:         m.loadStoreBytes.Load(),
			StoreHandles:       m.loadStoreHandles.Load(),
			Retries:            win.Retries,
			Timeouts:           win.Timeouts,
			Stragglers:         win.Stragglers,
			SuspectTransitions: win.SuspectTransitions,
			StoreEvictions:     win.StoreEvictions,
		}
		wh.Flapping = wh.SuspectTransitions >= healthFlapTransitions

		switch {
		case state == StateDead, state == StateRemoved, !connected:
			wh.Score = 0
		default:
			score := 1.0
			if state == StateSuspect {
				score -= healthPenaltySuspect
			}
			score -= healthPenaltyMissed * float64(missed)
			if wh.Draining {
				score -= healthPenaltyDraining
			}
			events := float64(wh.Retries + wh.Timeouts + wh.Stragglers)
			if p := healthPenaltyEvent * events; p > healthPenaltyEventCap {
				score -= healthPenaltyEventCap
			} else {
				score -= p
			}
			if score < 0 {
				score = 0
			}
			wh.Score = score
			if m.schedulable() {
				h.LiveWorkers++
				scoreSum += score
			}
		}
		h.Workers = append(h.Workers, wh)
	}
	if h.LiveWorkers > 0 {
		h.MeanScore = scoreSum / float64(h.LiveWorkers)
		h.Pressure = float64(h.QueueDepth) / float64(h.LiveWorkers*d.opts.PerWorkerInflight)
	}
	return h
}
