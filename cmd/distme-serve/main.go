// Command distme-serve is the multi-tenant serving plane: a long-running
// server that embeds a distnet driver and accepts many concurrent multiply
// jobs over a binary wire API (submit / status / result / cancel / forget).
//
// Jobs are priced at admission with the Eq.(4) communication optimizer
// under the per-worker memory budget θt: a job whose estimated cuboid wave
// would not fit the cluster is rejected (never deadlocked), a tenant over
// its byte or flop quota gets ErrQuotaExceeded, and a full queue answers
// with a typed retry-after hint. Admitted jobs dispatch by weighted fair
// share across tenants; see docs/SERVING.md for the operator guide.
//
// Point it at running distme-worker processes:
//
//	distme-serve -addr :7090 -workers host1:7070,host2:7070
//
// or let it spin up an in-process pool for a single machine:
//
//	distme-serve -addr :7090 -local 4
//
// Tenants are declared with repeatable -tenant name[:weight[:maxqueued[:quotaMB]]]
// flags; without any, every job lands in one "default" tenant. On SIGTERM
// the server stops accepting, drains in-flight jobs (bounded by -drain),
// and prints per-tenant accounting.
//
//	distme-serve -addr :7090 -local 2 \
//	  -tenant batch:1:256:4096 -tenant online:4:64:1024 \
//	  -debug-addr 127.0.0.1:7091
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"distme/internal/distnet"
	"distme/internal/obs"
	"distme/internal/serve"
)

// tenantFlags collects repeatable -tenant name[:weight[:maxqueued[:quotaMB]]]
// values.
type tenantFlags struct {
	tenants []serve.Tenant
}

func (f *tenantFlags) String() string {
	parts := make([]string, 0, len(f.tenants))
	for _, t := range f.tenants {
		parts = append(parts, t.Name)
	}
	return strings.Join(parts, ",")
}

func (f *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if parts[0] == "" {
		return fmt.Errorf("tenant name empty in %q", v)
	}
	t := serve.Tenant{Name: parts[0]}
	if len(parts) > 1 && parts[1] != "" {
		w, err := strconv.Atoi(parts[1])
		if err != nil || w < 1 {
			return fmt.Errorf("tenant %q: weight %q must be a positive integer", t.Name, parts[1])
		}
		t.Weight = w
	}
	if len(parts) > 2 && parts[2] != "" {
		q, err := strconv.Atoi(parts[2])
		if err != nil || q < 1 {
			return fmt.Errorf("tenant %q: maxqueued %q must be a positive integer", t.Name, parts[2])
		}
		t.MaxQueued = q
	}
	if len(parts) > 3 && parts[3] != "" {
		mb, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil || mb < 1 {
			return fmt.Errorf("tenant %q: quotaMB %q must be a positive integer", t.Name, parts[3])
		}
		t.MaxInflightBytes = mb << 20
	}
	if len(parts) > 4 {
		return fmt.Errorf("tenant %q: too many fields in %q (want name[:weight[:maxqueued[:quotaMB]]])", t.Name, v)
	}
	f.tenants = append(f.tenants, t)
	return nil
}

func main() {
	addr := flag.String("addr", ":7090", "wire API listen address")
	workers := flag.String("workers", "", "comma-separated distme-worker addresses")
	local := flag.Int("local", 0, "start this many in-process workers instead of dialing -workers")
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", "tenant spec name[:weight[:maxqueued[:quotaMB]]]; repeatable (default: one \"default\" tenant)")
	workerMem := flag.Int64("worker-mem", 0, "per-worker memory budget θt in bytes for admission pricing (0 = 1 GiB)")
	capacityFraction := flag.Float64("capacity-fraction", 0, "fraction of cluster memory admission may fill (0 = 0.9)")
	maxQueued := flag.Int("max-queued", 0, "global queued-job bound (0 = 1024)")
	maxConcurrent := flag.Int("max-concurrent", 0, "dispatch parallelism bound (0 = scale with live workers)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout for in-flight jobs")
	debugAddr := flag.String("debug-addr", "", "serve /debug/distme (with a \"serve\" block) and pprof on this address (empty = off)")
	flag.Parse()

	if (*workers == "") == (*local == 0) {
		log.Fatal("distme-serve: exactly one of -workers or -local is required")
	}

	dopts := distnet.Options{DebugAddr: *debugAddr}
	if *debugAddr != "" {
		dopts.Tracer = obs.NewTracer()
	}

	var pool *distnet.InProcPool
	addrs := strings.Split(*workers, ",")
	if *local > 0 {
		pool = &distnet.InProcPool{Opts: distnet.WorkerOptions{Tracer: dopts.Tracer}}
		addrs = addrs[:0]
		for i := 0; i < *local; i++ {
			a, err := pool.Grow(context.Background())
			if err != nil {
				log.Fatalf("distme-serve: start local worker: %v", err)
			}
			addrs = append(addrs, a)
		}
	}
	d, err := distnet.DialOptions(addrs, dopts)
	if err != nil {
		log.Fatalf("distme-serve: %v", err)
	}
	defer d.Close()
	if pool != nil {
		defer pool.Close(context.Background())
	}

	s, err := serve.New(d, serve.Config{
		Tenants:           tenants.tenants,
		WorkerMemBytes:    *workerMem,
		CapacityFraction:  *capacityFraction,
		MaxQueuedJobs:     *maxQueued,
		MaxConcurrentJobs: *maxConcurrent,
		Tracer:            dopts.Tracer,
	})
	if err != nil {
		log.Fatalf("distme-serve: %v", err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("distme-serve: %v", err)
	}
	sl, err := serve.ServeListener(s, l)
	if err != nil {
		log.Fatalf("distme-serve: %v", err)
	}
	fmt.Printf("distme-serve: serving %d workers on %s (%s)\n", d.Workers(), sl.Addr(), tenantSummary(tenants.tenants))
	if *debugAddr != "" {
		fmt.Printf("distme-serve: debug endpoints on http://%s/debug/distme\n", d.DebugAddr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	log.Printf("distme-serve: %v: draining (timeout %v)", sig, *drain)

	// Stop accepting new connections first, then drain: Close cancels
	// queued jobs and waits for running ones. The drain timer bounds the
	// wait so a wedged job cannot hold shutdown forever.
	sl.Close()
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(*drain):
		log.Printf("distme-serve: drain timeout expired with jobs still running")
		os.Exit(1)
	}
	for _, ts := range s.Tenants() {
		log.Printf("distme-serve: tenant %q: %d admitted, %d completed, %d failed, %d cancelled, %d rejected (%d queue-full, %d quota), %.1f MB moved",
			ts.Tenant, ts.Admitted, ts.Completed, ts.Failed, ts.Cancelled,
			ts.RejectedQueueFull+ts.RejectedQuota+ts.RejectedInfeasible,
			ts.RejectedQueueFull, ts.RejectedQuota,
			float64(ts.MeasuredRequestBytes+ts.MeasuredReplyBytes)/(1<<20))
	}
}

func tenantSummary(ts []serve.Tenant) string {
	if len(ts) == 0 {
		return `tenant "default"`
	}
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return fmt.Sprintf("tenants %s", strings.Join(names, ","))
}
