// Command sentinel-serve is planning-as-a-service: a long-running
// HTTP+JSON daemon that answers plan, simulate, and experiment (sweep)
// requests from one resident process, instead of forking a CLI per
// request. Requests multiplex onto the experiment harness's worker pool
// and share one singleflight plan cache, so concurrent identical
// requests compute once and repeats are served from memory.
//
// Service scaffolding: request validation with typed JSON errors,
// admission control with backpressure (bounded queue, 429 + Retry-After
// on saturation), /healthz and /readyz endpoints, a /metrics endpoint
// exporting plan-cache, sweep, and request counters, and graceful drain
// on SIGINT/SIGTERM — readiness flips to 503, new work is refused,
// in-flight requests finish, then the process exits 0.
//
// The HTTP API is documented in docs/SERVING.md. Served experiment
// responses are byte-identical to the equivalent sentinel-bench run.
//
// Usage:
//
//	sentinel-serve                        # listen on :8372
//	sentinel-serve -addr 127.0.0.1:9000   # explicit listen address
//	sentinel-serve -max-inflight 8 -queue 256
//	sentinel-serve -quick                 # sweep requests default to -quick
//	curl -s localhost:8372/v1/experiment?id=table1\&format=csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sentinel/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8372", "listen address")
		workers     = flag.Int("workers", 0, "experiment worker-pool width per sweep request (0 = GOMAXPROCS)")
		maxInflight = flag.Int("max-inflight", 4, "requests executing concurrently")
		queue       = flag.Int("queue", 64, "requests waiting for an execution slot before 429s start")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		quick       = flag.Bool("quick", false, "sweep requests default to trimmed (-quick) sweeps")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "sentinel-serve: ", log.LstdFlags)

	srv := serve.New(serve.Config{
		Workers:     *workers,
		MaxInFlight: *maxInflight,
		QueueDepth:  *queue,
		RetryAfter:  *retryAfter,
		Quick:       *quick,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGINT/SIGTERM begin the drain — the same shutdown plumbing the
	// sweep CLI uses (signal.NotifyContext), applied to a server:
	// readiness flips to 503, new API requests are refused with
	// Retry-After, and http.Server.Shutdown waits for in-flight
	// requests up to -drain-timeout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (max-inflight %d, queue %d)", *addr, *maxInflight, *queue)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure (or Shutdown, which
		// cannot have been called yet on this path).
		logger.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining (readiness now 503, up to %v for in-flight requests)", *drain)
	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("drain incomplete after %v: %v", *drain, err)
		fmt.Fprintln(os.Stderr, finalSummary(srv))
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve: %v", err)
	}
	logger.Printf("drained cleanly")
	fmt.Fprintln(os.Stderr, finalSummary(srv))
}

// finalSummary renders the lifetime counters on shutdown, mirroring the
// cache/summary lines sentinel-bench prints after a sweep.
func finalSummary(srv *serve.Server) string {
	return fmt.Sprintf("requests: %s\ncache: %s", srv.RequestStats(), srv.CacheStats())
}
