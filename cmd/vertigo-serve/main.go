// Command vertigo-serve is the long-running simulation daemon: an
// HTTP/JSON control plane in front of the crash-safe experiment runner.
// Tenants POST experiment specs; the daemon admission-controls them onto a
// bounded worker pool, journals every accepted job (restart resumes
// unfinished work), streams progress over SSE, and writes per-job artifact
// directories. SIGTERM drains gracefully up to -drain.
//
// Quickstart:
//
//	vertigo-serve -data /tmp/vertigo &
//	curl -s localhost:8080/api/v1/jobs -d '{"experiment":"failover","scale":"tiny"}'
//	curl -N localhost:8080/api/v1/jobs/j1/events   # SSE progress
//	curl -s localhost:8080/metrics | grep vertigo_serve
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vertigo/internal/obs"
	"vertigo/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:8080", "HTTP listen address for the control plane")
		data       = flag.String("data", "vertigo-data", "data directory (journal + per-job artifacts)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS/2)")
		queue      = flag.Int("queue", 64, "max queued jobs before 429")
		tenantMax  = flag.Int("tenant-max", 8, "max in-flight jobs per tenant before 429")
		retries    = flag.Int("retries", 3, "default retry budget for transient job failures")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown deadline on SIGTERM")
		memSoft    = flag.Uint64("mem-soft", 0, "heap soft limit in bytes; above it queued jobs are shed (0 = off)")
		runTimeout = flag.Duration("run-timeout", 2*time.Minute, "default wall-clock budget per simulation run")
		maxEvents  = flag.Uint64("max-events", 0, "default event budget per run (0 = unlimited)")
		debugAddr  = flag.String("debug-addr", "", "separate debug listener for /metrics and /statusz (default: served on -addr)")
	)
	flag.Parse()

	srv, err := serve.New(serve.Config{
		DataDir:           *data,
		Workers:           *workers,
		QueueDepth:        *queue,
		TenantMax:         *tenantMax,
		MaxRetries:        *retries,
		MemSoftLimit:      *memSoft,
		DefaultRunTimeout: *runTimeout,
		DefaultMaxEvents:  *maxEvents,
	})
	if err != nil {
		log.Fatalf("vertigo-serve: %v", err)
	}
	srv.Start()

	mux := http.NewServeMux()
	mux.Handle("/api/", srv.Handler())
	mux.Handle("/healthz", srv.Handler())
	var dbgClose io.Closer
	if *debugAddr != "" {
		// Debug plane on its own listener, shut down explicitly with the
		// daemon (unlike vertigo-exp's run-to-exit default).
		dbg, closer, err := obs.Serve(*debugAddr, obs.Default, srv.Status)
		if err != nil {
			log.Fatalf("vertigo-serve: debug listener: %v", err)
		}
		dbgClose = closer
		log.Printf("debug plane on http://%s", dbg)
	} else {
		mux.Handle("/", obs.Handler(obs.Default, srv.Status))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("vertigo-serve: %v", err)
	}
	hs := &http.Server{Handler: mux}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("vertigo-serve: %v", err)
		}
	}()
	log.Printf("vertigo-serve on http://%s (data %s, %s)", ln.Addr(), *data, describe(*workers, *queue))

	// SIGTERM/SIGINT: stop admission, drain running jobs up to -drain, then
	// exit. Jobs still queued (or killed mid-run) stay in the journal and
	// resume on the next start.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	log.Printf("draining (up to %v)...", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v (journal will resume unfinished jobs)", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	_ = hs.Shutdown(sctx)
	if dbgClose != nil {
		_ = dbgClose.Close()
	}
	log.Print("bye")
}

func describe(workers, queue int) string {
	w := "GOMAXPROCS/2 workers"
	if workers > 0 {
		w = fmt.Sprintf("%d workers", workers)
	}
	return fmt.Sprintf("%s, queue %d", w, queue)
}
