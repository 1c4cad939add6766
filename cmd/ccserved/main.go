// Command ccserved is the CCS scheduling service: a long-lived daemon that
// accepts instances over HTTP/JSON, coalesces identical concurrent requests
// into one solve, caches full results above the shared per-guess
// feasibility cache, and answers from a bounded worker pool with
// per-request deadlines. See internal/server for the pipeline and
// docs/ARCHITECTURE.md ("Service layer") for the design.
//
// Usage:
//
//	ccserved -addr :8080 -workers 4 -queue 256 -result-cache 1024
//
// Endpoints:
//
//	POST   /v1/solve          submit {"instance":..., "options":..., "timeout_ms":...};
//	                          ?wait=30s blocks for the result (default), ?wait=0
//	                          returns 202 with a job id immediately
//	GET    /v1/jobs/{id}      poll a submission (?wait= blocks)
//	POST   /v1/sessions       create a scheduling session (live instance +
//	                          warm solver state held server-side)
//	PATCH  /v1/sessions/{id}  apply job/machine deltas, incremental re-solve
//	GET    /v1/sessions/{id}  current schedule
//	DELETE /v1/sessions/{id}  drop the session
//	GET    /v1/sessions/{id}/export   versioned session snapshot (live migration)
//	PUT    /v1/sessions/{id}/export   import a snapshot under the given id
//	GET    /v1/sessions/{id}/watch    SSE stream of an anytime session's
//	                          refinement improvements (options.tier "anytime":
//	                          instant 2-approx answer, background ε-ladder
//	                          refinement on the -refine-workers pool;
//	                          Last-Event-ID resumes after a disconnect or
//	                          restart without duplicate generations)
//	GET    /healthz           liveness + queue gauges (200 for as long as the
//	                          process serves, draining included)
//	GET    /readyz            readiness: 503 while draining, while the queue
//	                          is over 90% full, or while checkpointing is
//	                          degraded to in-memory-only
//	GET    /metrics           counters, caches, labeled latency histograms;
//	                          JSON by default, Prometheus text exposition with
//	                          ?format=prom (or Accept: text/plain)
//	GET    /v1/debug/traces   the -trace-ring slowest solves' span timelines
//	       /v1/debug/faults   fault-injection admin (-fault-admin only)
//
// Every request gets an X-Request-Id (client-supplied ids are honored) and
// one structured log line — method, path, status, latency, outcome —
// through log/slog in the -log-format of choice; ?trace=1 on /v1/solve or
// /v1/sessions returns the solve's per-stage span timeline in result.trace.
//
// With -state-dir, sessions are durable: dirty sessions are checkpointed
// there every -checkpoint interval (atomic, checksummed files), a final
// snapshot pass runs on drain, and the next boot restores every readable
// snapshot — unreadable or version-mismatched files are skipped with a
// logged reason, never trusted. A kill -9 costs at most the work since the
// last checkpoint; restored warm state is re-verified before it can touch a
// verdict, so restarted sessions answer bit-identically to a cold solve.
//
// Resilience: solver panics are recovered into HTTP 500s (the process never
// dies for one request), keys that panic repeatedly are quarantined with 422
// for a TTL, and -soft-timeout (or soft_timeout_ms per request) answers slow
// solves with the millisecond 2-approx (certified lower bound,
// result.degraded=true) while the full solve continues. Chaos testing arms
// faults via -faults, the CCSCHED_FAULTS environment variable, or — with
// -fault-admin — at PUT /v1/debug/faults.
//
// SIGINT/SIGTERM starts a graceful shutdown: admission stops (503), the
// queue drains, and solves still running when -grace expires are canceled
// via context. The drain's final snapshot pass fsyncs and closes its files
// regardless of -grace; a failed snapshot write is logged and counted but
// never changes the exit status. A second signal forces immediate
// cancellation.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ccsched"
	"ccsched/internal/faultinject"
	"ccsched/internal/server"
)

// pprofMux builds a mux with the standard net/http/pprof endpoints. The
// handlers are registered explicitly instead of importing the package for
// its DefaultServeMux side effect, so the service handler can never leak
// them.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 0, "solver pool size (0 = 4)")
		queue         = flag.Int("queue", 256, "bounded admission queue depth (excess gets 429)")
		resultCache   = flag.Int("result-cache", 1024, "full-result LRU entries")
		defTimeout    = flag.Duration("default-timeout", 120*time.Second, "solve deadline for requests without timeout_ms")
		maxTimeout    = flag.Duration("max-timeout", 15*time.Minute, "cap on the wire-settable timeout_ms")
		maxJobs       = flag.Int("max-jobs", 100000, "largest admitted instance (jobs)")
		maxSessions   = flag.Int("max-sessions", 1024, "cap on live scheduling sessions (excess creations get 429)")
		maxBody       = flag.Int64("max-body", 32<<20, "maximum request body bytes")
		stateDir      = flag.String("state-dir", "", "directory for durable session snapshots (restore on boot, checkpoint while running, snapshot on drain); empty disables persistence")
		checkpoint    = flag.Duration("checkpoint", 0, "background checkpoint interval for dirty sessions when -state-dir is set (0 = 30s)")
		grace         = flag.Duration("grace", 30*time.Second, "shutdown drain budget before in-flight solves are canceled")
		quiet         = flag.Bool("quiet", false, "suppress per-solve and per-request logging (warnings still log)")
		logFormat     = flag.String("log-format", "text", "structured log format: text | json")
		traceRing     = flag.Int("trace-ring", 0, "slowest-traces debug ring capacity at /v1/debug/traces (0 = 16, negative disables tracing unless requested)")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060); off by default")
		softTimeout   = flag.Duration("soft-timeout", 0, "degraded-fallback deadline: synchronous solves still running this long are answered with the 2-approx while the full solve continues (0 disables; soft_timeout_ms overrides per request)")
		refineWorkers = flag.Int("refine-workers", 0, "low-priority worker pool refining anytime sessions through the ε-ladder (0 = 2; negative disables background refinement)")
		refineBudget  = flag.Float64("refine-budget", 0, "per-tenant refinement budget in ladder rungs per second (X-Tenant-Id header selects the bucket; 0 = unlimited); an exhausted tenant's ladders park, metered, until tokens refill")
		faultAdmin    = flag.Bool("fault-admin", false, "expose the fault-injection registry at /v1/debug/faults (chaos testing only; never on an exposed port)")
		faults        = flag.String("faults", "", "arm fault-injection specs at boot, comma-separated point=mode[:arg][*hits] clauses (also read from CCSCHED_FAULTS)")
	)
	flag.Parse()
	for _, specs := range []string{os.Getenv("CCSCHED_FAULTS"), *faults} {
		if specs == "" {
			continue
		}
		if err := faultinject.ArmSpecs(specs); err != nil {
			log.Fatalf("ccserved: %v", err)
		}
		log.Printf("ccserved: fault injection armed: %s", specs)
	}
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		// A dedicated listener keeps the profiling surface off the public
		// service port: the pprof mux is registered only here, never on the
		// API handler, so -pprof on an internal interface exposes nothing
		// externally. It gets the same slow-client protections as the API
		// server (long response writes stay unbounded — CPU profiles stream
		// for their full duration).
		pprofSrv = &http.Server{
			Addr:              *pprofAddr,
			Handler:           pprofMux(),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			log.Printf("ccserved: pprof listening on %s", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("ccserved: pprof listener: %v", err)
			}
		}()
	}
	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	default:
		log.Fatalf("ccserved: unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)
	svc := server.New(server.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		ResultCacheEntries: *resultCache,
		DefaultTimeout:     *defTimeout,
		MaxTimeout:         *maxTimeout,
		MaxJobs:            *maxJobs,
		MaxSessions:        *maxSessions,
		MaxBodyBytes:       *maxBody,
		StateDir:           *stateDir,
		CheckpointInterval: *checkpoint,
		SoftTimeout:        *softTimeout,
		RefineWorkers:      *refineWorkers,
		RefineBudgetPerSec: *refineBudget,
		FaultAdmin:         *faultAdmin,
		TraceRing:          *traceRing,
		Cache:              ccsched.NewFeasibilityCache(),
		Logger:             logger,
	})
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Slow-client protection: a connection dribbling its headers (or
		// idling between requests) must not hold a goroutine and fd
		// forever. Response writes stay unbounded — long ?wait= holds are
		// legitimate.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-sigs
		log.Printf("ccserved: shutting down (drain budget %s; signal again to force)", *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		go func() {
			<-sigs
			log.Printf("ccserved: forcing shutdown")
			cancel()
		}()
		if err := svc.Shutdown(ctx); err != nil {
			log.Printf("ccserved: drain incomplete, in-flight solves canceled: %v", err)
		} else {
			log.Printf("ccserved: drained cleanly")
		}
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("ccserved: http shutdown: %v", err)
		}
		if pprofSrv != nil {
			if err := pprofSrv.Shutdown(sctx); err != nil {
				log.Printf("ccserved: pprof shutdown: %v", err)
			}
		}
	}()

	w := *workers
	if w <= 0 {
		w = 4 // server.Config's default
	}
	log.Printf("ccserved: listening on %s (workers=%d queue=%d result-cache=%d)",
		*addr, w, *queue, *resultCache)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("ccserved: %v", err)
	}
	<-done
}
