package distnet

import (
	"context"
	"fmt"
	"net"
	"sync"
)

// InProcPool provisions in-process workers on loopback listeners, with hooks
// for proxy interposition and abrupt kills, which is what the soak harness
// drives.
type InProcPool struct {
	// Opts tunes every worker this pool serves.
	Opts WorkerOptions
	// Wrap, when set, maps a worker's real listen address to the address
	// advertised to the driver — the soak harness interposes its chaos
	// proxy here. Shrink/Owns/Kill accept the advertised address.
	Wrap func(realAddr string) string

	mu      sync.Mutex
	workers map[string]*inprocEntry // keyed by advertised address
}

type inprocEntry struct {
	w        *Worker
	listener net.Listener
	realAddr string
}

// Grow starts one worker on a fresh loopback port.
func (p *InProcPool) Grow(_ context.Context) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	w, err := ServeOptions(l, p.Opts)
	if err != nil {
		l.Close()
		return "", err
	}
	real := l.Addr().String()
	adv := real
	if p.Wrap != nil {
		adv = p.Wrap(real)
	}
	p.mu.Lock()
	if p.workers == nil {
		p.workers = map[string]*inprocEntry{}
	}
	p.workers[adv] = &inprocEntry{w: w, listener: l, realAddr: real}
	p.mu.Unlock()
	return adv, nil
}

// Shrink gracefully shuts the worker at addr down (drain bounded by ctx).
func (p *InProcPool) Shrink(ctx context.Context, addr string) error {
	p.mu.Lock()
	e := p.workers[addr]
	delete(p.workers, addr)
	p.mu.Unlock()
	if e == nil {
		return fmt.Errorf("distnet: pool does not own %s", addr)
	}
	return e.w.Shutdown(ctx)
}

// Owns reports whether addr was provisioned by this pool.
func (p *InProcPool) Owns(addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.workers[addr]
	return ok
}

// Kill tears the worker at addr down abruptly — listener and every open
// connection close with no drain, as a crash would. The entry stays owned
// so leak checks can still inspect the worker; a later Shrink reaps it.
func (p *InProcPool) Kill(addr string) bool {
	p.mu.Lock()
	e := p.workers[addr]
	p.mu.Unlock()
	if e == nil {
		return false
	}
	e.w.abort()
	return true
}

// Worker returns the pool's worker at addr (nil if not owned) so tests and
// the soak harness can assert on its store after a run.
func (p *InProcPool) Worker(addr string) *Worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.workers[addr]; e != nil {
		return e.w
	}
	return nil
}

// Addrs lists the advertised addresses this pool currently owns.
func (p *InProcPool) Addrs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.workers))
	for a := range p.workers {
		out = append(out, a)
	}
	return out
}

// Close shuts every owned worker down (graceful, bounded by ctx each).
func (p *InProcPool) Close(ctx context.Context) {
	p.mu.Lock()
	workers := p.workers
	p.workers = nil
	p.mu.Unlock()
	for _, e := range workers {
		_ = e.w.Shutdown(ctx)
	}
}
