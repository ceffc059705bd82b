package distnet

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"distme/internal/codec"
)

// The heartbeat failure detector: a background sweep that Pings every
// member on a fixed interval, drives the Alive → Suspect → Dead state
// machine on missed beats, and redials Dead members so recovered workers
// rejoin on their own — MapReduce's "the master pings every worker
// periodically" (Dean & Ghemawat 2004) adapted to a dialing driver.

// runDetector is the detector goroutine body; it exits when the driver
// closes.
func (d *Driver) runDetector() {
	defer close(d.detectorDone)
	ticker := time.NewTicker(d.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stopDetector:
			return
		case <-ticker.C:
			d.sweep()
		}
	}
}

// sweep probes every member once, concurrently, so one slow worker cannot
// delay the others' verdicts.
func (d *Driver) sweep() {
	d.mu.Lock()
	members := append([]*member(nil), d.members...)
	d.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range members {
		state, client := m.snapshot()
		switch {
		case state == StateRemoved:
			continue
		case client == nil:
			// Dead (or never-connected): attempt a reconnect so a worker
			// that came back rejoins the live set.
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				_ = d.connect(m, true)
			}(m)
		default:
			wg.Add(1)
			go func(m *member, client *codec.Client) {
				defer wg.Done()
				d.probe(m, client)
			}(m, client)
		}
	}
	wg.Wait()
}

// probe sends one heartbeat and applies the state machine.
func (d *Driver) probe(m *member, client *codec.Client) {
	atomic.AddInt64(&d.rec.Net.Live().HeartbeatsSent, 1)
	start := time.Now()
	var pong pingReply
	err := d.roundTrip(client, d.opts.PingTimeout, methodPing, 0, nil, codec.Reads(decodePingReply, &pong))
	if err == nil {
		rtt := time.Since(start)
		m.markAlive(rtt)
		m.noteLoad(&pong)
		d.rec.ObserveHeartbeatRTT(rtt)
		return
	}
	// A draining worker refuses the probe with its sentinel; flag it so the
	// scheduler stops offering it work while the missed-beat thresholds
	// retire it from the live set.
	if errors.Is(err, ErrWorkerDraining) {
		m.draining.Store(true)
	}
	atomic.AddInt64(&d.rec.Net.Live().HeartbeatMisses, 1)
	if dead, detached := m.noteMissed(d.opts.SuspectAfter, d.opts.DeadAfter); dead {
		if detached != nil {
			detached.Close()
		}
		atomic.AddInt64(&d.rec.Net.Live().WorkersDeclaredDead, 1)
	}
}
