package distnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distme/internal/codec"
	"distme/internal/metrics"
)

// Typed failure sentinels of the real-network layer. They surface at the
// package root (distme.ErrWorkerDead, distme.ErrDeadlineExceeded) and match
// via errors.Is through the driver, hybrid, and ml layers.
var (
	// ErrWorkerDead reports an RPC that failed because the worker's
	// connection is broken (or was never re-established). The failure
	// detector and the per-call transport errors both produce it.
	ErrWorkerDead = errors.New("distnet: worker dead")

	// ErrDeadlineExceeded reports an RPC that outlived its per-call
	// deadline. Errors carrying it also match context.DeadlineExceeded.
	ErrDeadlineExceeded = errors.New("distnet: rpc deadline exceeded")

	// ErrNoWorkers reports a driver whose live membership drained to zero
	// under work the driver cannot compute locally: a session operation, or
	// a pull multiply whose operand blocks it never held.
	ErrNoWorkers = errors.New("distnet: no live workers")

	// ErrDriverClosed reports an operation on a driver after Close.
	ErrDriverClosed = errors.New("distnet: driver closed")
)

// MemberState is the failure detector's verdict on one worker.
type MemberState int32

const (
	// StateAlive: the last heartbeat (or RPC) succeeded.
	StateAlive MemberState = iota
	// StateSuspect: heartbeats started missing but the member has not yet
	// crossed the dead threshold; it is scheduled only when no Alive member
	// is available.
	StateSuspect
	// StateDead: the connection is closed or past the missed-beat
	// threshold. Dead members receive no work; the detector keeps trying to
	// reconnect them so a recovered worker rejoins automatically.
	StateDead
	// StateRemoved: explicitly evicted via RemoveWorker; never redialed.
	StateRemoved
)

// String names the state for reports and logs.
func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateRemoved:
		return "removed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// member is one worker in the driver's membership table. The table entry is
// permanent for the driver's lifetime (so counters and states are
// inspectable); only the client connection inside it comes and goes.
type member struct {
	addr string
	// slots bounds in-flight Multiply RPCs on this worker. Jobs that find
	// every live member's window full wait for a slot instead of piling
	// onto one worker's pipe — which is also what lets a worker added
	// mid-multiply pick up queued cuboids immediately.
	slots chan struct{}

	// tracker remembers which block keys this worker has received within
	// the epoch window (the driver side of the worker's block cache). It
	// survives reconnects on purpose: a restarted worker refuses stale
	// references with the unknown-digest error and the tracker is
	// forgotten then.
	tracker sendTracker

	// Health-plane signals. Atomics so ClusterHealth and the autoscaler
	// read them without taking the member lock on the RPC hot path. The
	// lifetime events are monotonic; the health plane windows them by
	// keeping base snapshots (see health.go).
	draining atomic.Bool // last refusal was the draining sentinel
	events   metrics.Counters[memberEvents]

	// Load snapshot ferried back on the most recent pong.
	loadInFlight     atomic.Int64
	loadStoreBytes   atomic.Int64
	loadStoreHandles atomic.Int64

	mu        sync.Mutex
	client    *codec.Client // nil while disconnected
	state     MemberState
	missed    int // consecutive failed heartbeats
	dialing   bool
	lastRTT   time.Duration
	deadSince time.Time // when the member last crossed into Dead; zero while live
}

// newMember creates a disconnected membership entry with the driver's
// per-worker in-flight window.
func (d *Driver) newMember(addr string) *member {
	slots := make(chan struct{}, d.opts.PerWorkerInflight)
	for i := 0; i < d.opts.PerWorkerInflight; i++ {
		slots <- struct{}{}
	}
	return &member{addr: addr, state: StateDead, slots: slots}
}

// MemberInfo is a read-only snapshot of one membership entry.
type MemberInfo struct {
	Addr    string
	State   MemberState
	LastRTT time.Duration
	// Missed is the member's consecutive failed-heartbeat count at snapshot
	// time (what stands between it and the Suspect/Dead thresholds).
	Missed int
	// Draining reports that the worker's last refusal was the draining
	// sentinel: it is shutting down gracefully and receives no new work.
	Draining bool
}

// noteLoad folds a pong's load snapshot into the member's health signals.
func (m *member) noteLoad(pong *pingReply) {
	m.loadInFlight.Store(pong.InFlight)
	m.loadStoreBytes.Store(pong.StoreBytes)
	m.loadStoreHandles.Store(pong.StoreHandles)
	atomic.StoreInt64(&m.events.Live().StoreEvictions, pong.StoreEvictions)
}

// snapshot returns the state and client under the member's lock.
func (m *member) snapshot() (MemberState, *codec.Client) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state, m.client
}

// markAlive records a successful probe (heartbeat or reconnect).
func (m *member) markAlive(rtt time.Duration) {
	m.mu.Lock()
	if m.state != StateRemoved {
		m.state = StateAlive
		m.missed = 0
		m.lastRTT = rtt
		m.deadSince = time.Time{}
	}
	m.mu.Unlock()
	m.draining.Store(false)
}

// noteMissed records a failed heartbeat and applies the Suspect/Dead
// thresholds. When the member crosses the dead threshold its client is
// detached and returned so the caller can close it outside the lock.
func (m *member) noteMissed(suspectAfter, deadAfter int) (declaredDead bool, detached *codec.Client) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == StateRemoved || m.state == StateDead {
		return false, nil
	}
	m.missed++
	if m.missed >= deadAfter {
		m.state = StateDead
		m.deadSince = time.Now()
		detached = m.client
		m.client = nil
		return true, detached
	}
	if m.missed >= suspectAfter && m.state != StateSuspect {
		m.state = StateSuspect
		atomic.AddInt64(&m.events.Live().SuspectTransitions, 1)
	}
	return false, nil
}

// Members returns a snapshot of the full membership table, including dead
// and removed entries, for introspection and reports.
func (d *Driver) Members() []MemberInfo {
	d.mu.Lock()
	members := append([]*member(nil), d.members...)
	d.mu.Unlock()
	out := make([]MemberInfo, 0, len(members))
	for _, m := range members {
		m.mu.Lock()
		out = append(out, MemberInfo{Addr: m.addr, State: m.state, LastRTT: m.lastRTT, Missed: m.missed, Draining: m.draining.Load()})
		m.mu.Unlock()
	}
	return out
}

// Workers returns the count of schedulable workers: members whose
// connection is up (Alive or Suspect). Dead and removed members — and the
// closed clients they once held — are excluded, so the count is safe to
// hand to the (P,Q,R) optimizer.
func (d *Driver) Workers() int {
	d.mu.Lock()
	members := append([]*member(nil), d.members...)
	d.mu.Unlock()
	n := 0
	for _, m := range members {
		state, client := m.snapshot()
		if client != nil && (state == StateAlive || state == StateSuspect) {
			n++
		}
	}
	return n
}

// AddWorker dials addr, verifies it with a Ping, and adds it to the live
// membership. It is safe mid-multiply: in-flight jobs pick it up on their
// next scheduling attempt — the dynamic-executor-allocation move the paper
// inherits from Spark (§5).
func (d *Driver) AddWorker(addr string) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrDriverClosed
	}
	for _, m := range d.members {
		m.mu.Lock()
		dup := m.addr == addr && m.state != StateRemoved
		m.mu.Unlock()
		if dup {
			d.mu.Unlock()
			return fmt.Errorf("distnet: worker %s already a member", addr)
		}
	}
	d.mu.Unlock()

	m := d.newMember(addr)
	if err := d.connect(m, false); err != nil {
		return fmt.Errorf("distnet: add worker %s: %w", addr, err)
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		_, client := m.snapshot()
		if client != nil {
			client.Close()
		}
		return ErrDriverClosed
	}
	d.members = append(d.members, m)
	d.mu.Unlock()
	atomic.AddInt64(&d.rec.Net.Live().WorkersJoined, 1)
	return nil
}

// RemoveWorker evicts addr from the membership and closes its connection.
// It is safe mid-multiply: the member's in-flight cuboids fail their call
// and reassign to live members. Removed members are never redialed.
func (d *Driver) RemoveWorker(addr string) error {
	d.mu.Lock()
	var target *member
	for _, m := range d.members {
		m.mu.Lock()
		match := m.addr == addr && m.state != StateRemoved
		m.mu.Unlock()
		if match {
			target = m
			break
		}
	}
	d.mu.Unlock()
	if target == nil {
		return fmt.Errorf("distnet: worker %s is not a member", addr)
	}
	target.mu.Lock()
	target.state = StateRemoved
	client := target.client
	target.client = nil
	target.mu.Unlock()
	if client != nil {
		client.Close()
	}
	atomic.AddInt64(&d.rec.Net.Live().WorkersLeft, 1)
	return nil
}

// connect (re)dials a member and verifies it with a Ping. reconnect marks
// whether this is a recovery of a previously-connected member (counted
// separately from first joins). Concurrent connects to the same member
// collapse into one.
func (d *Driver) connect(m *member, reconnect bool) error {
	m.mu.Lock()
	if m.state == StateRemoved {
		m.mu.Unlock()
		return fmt.Errorf("distnet: worker %s was removed", m.addr)
	}
	if m.client != nil {
		m.mu.Unlock()
		return nil
	}
	if m.dialing {
		m.mu.Unlock()
		return fmt.Errorf("distnet: worker %s: dial already in progress", m.addr)
	}
	m.dialing = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.dialing = false
		m.mu.Unlock()
	}()

	client, err := dialWorker(m.addr, d.opts.PingTimeout, func(conn net.Conn) net.Conn {
		return &countingConn{Conn: conn, wire: d.wire}
	})
	if err != nil {
		return fmt.Errorf("%w: dial %s: %w", ErrWorkerDead, m.addr, err)
	}
	start := time.Now()
	var pong pingReply
	if err := d.roundTrip(client, d.opts.PingTimeout, methodPing, 0, nil, codec.Reads(decodePingReply, &pong)); err != nil {
		client.Close()
		return fmt.Errorf("%w: ping %s: %v", ErrWorkerDead, m.addr, err)
	}
	rtt := time.Since(start)

	m.mu.Lock()
	if m.state == StateRemoved || m.client != nil {
		m.mu.Unlock()
		client.Close()
		return nil
	}
	m.client = client
	m.state = StateAlive
	m.missed = 0
	m.lastRTT = rtt
	m.deadSince = time.Time{}
	m.mu.Unlock()
	m.draining.Store(false)
	m.noteLoad(&pong)
	if reconnect {
		atomic.AddInt64(&d.rec.Net.Live().Reconnects, 1)
	}
	return nil
}

// reserveHomes advances the scheduling cursor past n cuboids and returns
// where it stood: a job's cuboid idx has ring position base+idx as its
// home, fixed at plan time, so which worker it lands on — and so which of
// its blocks go as digest references — does not depend on goroutine timing.
func (d *Driver) reserveHomes(n int) (base int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	base = d.rr
	d.rr += n
	return base
}

// acquireMember returns the first schedulable member with a free in-flight
// slot walking the ring from position start — Alive members first, Suspect
// ones only when no Alive member took the job. anyLive distinguishes "every
// live member is busy" (wait and retry) from "the pool has drained"
// (reconnect or fall back). The caller must release the member's slot after
// the call.
func (d *Driver) acquireMember(start int) (picked *member, anyLive bool) {
	d.mu.Lock()
	members := append([]*member(nil), d.members...)
	d.mu.Unlock()
	n := len(members)
	for _, want := range []MemberState{StateAlive, StateSuspect} {
		for i := 0; i < n; i++ {
			m := members[(start+i)%n]
			state, client := m.snapshot()
			if client == nil || state != want {
				continue
			}
			// A draining worker refuses new work; scheduling onto it only
			// burns a retry attempt. The detector marks it dead shortly
			// (Ping refuses too), so skip it rather than wait on its slots.
			if m.draining.Load() {
				continue
			}
			anyLive = true
			select {
			case <-m.slots:
				return m, true
			default:
			}
		}
	}
	return nil, anyLive
}

func (m *member) release() { m.slots <- struct{}{} }

// reconnectAny tries to resurrect one dead member right now (rather than
// waiting for the detector's next sweep). It reports whether any member
// came back.
func (d *Driver) reconnectAny() bool {
	d.mu.Lock()
	members := append([]*member(nil), d.members...)
	d.mu.Unlock()
	for _, m := range members {
		state, client := m.snapshot()
		if state != StateDead || client != nil {
			continue
		}
		if err := d.connect(m, true); err == nil {
			return true
		}
	}
	return false
}

// retireDead flips members that have stayed Dead for longer than olderThan
// into StateRemoved so the detector stops redialing them, and returns their
// addresses. The autoscaler's housekeeping calls this to reap workers that
// were killed (not drained) and never came back; a worker that recovers
// before the threshold rejoins normally via the detector's redial.
func (d *Driver) retireDead(olderThan time.Duration) []string {
	d.mu.Lock()
	members := append([]*member(nil), d.members...)
	d.mu.Unlock()
	var retired []string
	now := time.Now()
	for _, m := range members {
		m.mu.Lock()
		if m.state == StateDead && !m.deadSince.IsZero() && now.Sub(m.deadSince) >= olderThan {
			m.state = StateRemoved
			retired = append(retired, m.addr)
		}
		m.mu.Unlock()
	}
	for range retired {
		atomic.AddInt64(&d.rec.Net.Live().WorkersRetired, 1)
		atomic.AddInt64(&d.rec.Net.Live().WorkersLeft, 1)
	}
	return retired
}

// declareDead detaches and closes a member's client after a transport
// failure. Only the exact client the failed call used is detached, so a
// reconnect that raced in is not torn down.
func (d *Driver) declareDead(m *member, failed *codec.Client) {
	m.mu.Lock()
	detached := false
	if m.client == failed && failed != nil {
		m.client = nil
		if m.state != StateRemoved {
			m.state = StateDead
			m.deadSince = time.Now()
		}
		detached = true
	}
	m.mu.Unlock()
	if failed != nil {
		failed.Close()
	}
	if detached {
		atomic.AddInt64(&d.rec.Net.Live().WorkersDeclaredDead, 1)
	}
}
