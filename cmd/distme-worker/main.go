// Command distme-worker serves cuboid multiplications over TCP: the remote
// executor of the distnet execution path. Start several (one per machine or
// port) and point `distme rmul -workers ...` or distnet.DialOptions at them.
//
// On SIGTERM or SIGINT the worker drains gracefully: it stops accepting
// connections, finishes in-flight cuboids (bounded by -drain), then closes,
// so a scaled-down executor never drops work it already accepted.
//
// With -debug-addr the worker serves live introspection endpoints — a
// /debug/distme JSON snapshot (served cuboids, in-flight RPCs, cache
// occupancy, recent spans) and net/http/pprof — and records a span per
// served cuboid; see docs/OBSERVABILITY.md.
//
//	distme-worker -addr :7070 -drain 10s -debug-addr 127.0.0.1:7071
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distme/internal/distnet"
	"distme/internal/obs"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight RPCs")
	memBytes := flag.Int64("mem-bytes", 0, "memory budget in bytes for cached blocks, handle bands, replicas and running sums (0 = default 512 MiB, negative = unbounded)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/distme and pprof on this address (empty = off, port 0 = pick free port)")
	flag.Parse()

	wopts := distnet.WorkerOptions{MemBytes: *memBytes}
	if *debugAddr != "" {
		wopts.Tracer = obs.NewTracer()
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("distme-worker: %v", err)
	}
	w, err := distnet.ServeOptions(l, wopts)
	if err != nil {
		log.Fatalf("distme-worker: %v", err)
	}
	fmt.Printf("distme-worker: serving cuboid multiplications on %s\n", l.Addr())
	if *debugAddr != "" {
		dbg, err := w.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatalf("distme-worker: debug listener: %v", err)
		}
		defer dbg.Close()
		fmt.Printf("distme-worker: debug endpoints on http://%s/debug/distme\n", dbg.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	log.Printf("distme-worker: %v: draining (timeout %v)", sig, *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := w.Shutdown(ctx); err != nil {
		log.Printf("distme-worker: drain timeout expired: %v (served %d cuboids)", err, w.Multiplies())
		os.Exit(1)
	}
	cs := w.CacheStats()
	log.Printf("distme-worker: drained cleanly (served %d cuboids; block cache %d hits / %d misses / %d evictions)",
		w.Multiplies(), cs.Hits, cs.Misses, cs.Evictions)
}
