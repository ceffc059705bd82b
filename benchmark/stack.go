package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"distme/internal/distnet"
	"distme/internal/obs"
	"distme/internal/serve"
)

// workerCount is fixed by the box: two cores, two workers.
const workerCount = 2

// stackConfig says which planes to bring up. serve nil leaves the serving
// plane out (gnmf_resident talks to the driver through a session).
type stackConfig struct {
	seed    int64
	tracer  *obs.Tracer
	serve   *serve.Config
	clients int
}

// stack is the real system in one process over loopback TCP: workers, the
// driver dialled to them, and optionally distme-serve's server, listener and
// RPC clients.
type stack struct {
	workers  []*distnet.Worker
	driver   *distnet.Driver
	server   *serve.Server
	listener *serve.Listener
	clients  []*serve.Client
}

func startStack(cfg stackConfig) (*stack, error) {
	s := &stack{}
	addrs := make([]string, 0, workerCount)
	for i := 0; i < workerCount; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("worker listen: %w", err)
		}
		w, err := distnet.ServeOptions(l, distnet.WorkerOptions{Tracer: cfg.tracer})
		if err != nil {
			l.Close()
			s.close()
			return nil, fmt.Errorf("worker serve: %w", err)
		}
		s.workers = append(s.workers, w)
		addrs = append(addrs, l.Addr().String())
	}
	// No heartbeats: WireBytes then counts job traffic only and does not
	// grow with wall time.
	d, err := distnet.DialOptions(addrs, distnet.Options{
		DisableHeartbeat: true,
		JitterSeed:       cfg.seed,
		Tracer:           cfg.tracer,
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("driver dial: %w", err)
	}
	s.driver = d
	if cfg.serve == nil {
		return s, nil
	}
	sc := *cfg.serve
	sc.Tracer = cfg.tracer
	if s.server, err = serve.New(d, sc); err != nil {
		s.close()
		return nil, fmt.Errorf("serve new: %w", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("serve listen: %w", err)
	}
	if s.listener, err = serve.ServeListener(s.server, l); err != nil {
		l.Close()
		s.close()
		return nil, fmt.Errorf("serve listener: %w", err)
	}
	for i := 0; i < cfg.clients; i++ {
		c, err := serve.Dial(s.listener.Addr())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// close shuts the stack down outside-in: clients, listener, server, driver,
// workers.
func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.listener != nil {
		s.listener.Close()
	}
	if s.server != nil {
		s.server.Close()
	}
	if s.driver != nil {
		s.driver.Close()
	}
	for _, w := range s.workers {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		w.Shutdown(ctx)
		cancel()
	}
}

// settle is the servebench rule: after a stack closes, the goroutine count
// must come back to the starting census plus four within two seconds.
func settle(census int) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= census+4 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines did not settle: %d running, census was %d", n, census)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
