// Command propserve serves the partitioning engine over HTTP.
//
// Usage:
//
//	propserve [-addr :8080] [-par 8] [-timeout 60s] [-slow-run 0]
//	          [-max-jobs 64] [-job-history 256] [-job-ttl 15m] [-cache 128]
//	          [-journal DIR] [-sched-workers N] [-tenant-rate 0]
//	          [-tenant-burst 0] [-max-body 67108864] [-batch-max 64]
//	          [-drain-timeout 15s] [-log-level info] [-log-format text]
//
// Endpoints:
//
//	POST /v1/partition      partition a netlist synchronously; the request
//	                        body is the netlist (.hgr text, or the JSON
//	                        netlist format with Content-Type:
//	                        application/json) and query parameters select
//	                        algo, runs, seed, k, r1, r2, par, timeout_ms.
//	                        Results are cached by content fingerprint
//	                        (netlist + result-determining options + k, up
//	                        to -cache entries, LRU): a repeated identical
//	                        request replays the exact bytes of the first
//	                        response, marked with an X-Cache: hit header.
//	POST /v1/repartition    incremental path: the JSON body carries a
//	                        netlist delta plus the base state — either
//	                        {"netlist": ..., "sides": [...], "delta": ...}
//	                        inline or {"base_job": "j3", "delta": ...}
//	                        referencing a finished 2-way job — and the
//	                        server applies the delta, projects the sides
//	                        through it, and warm-starts PROP from that
//	                        state instead of solving from scratch
//	POST /v1/jobs           same request as /v1/partition, asynchronously;
//	                        returns a job id. Add trace=pass (or
//	                        run/move/1) to record a JSONL convergence
//	                        trace of the job. At most -max-jobs jobs may
//	                        be pending or running at once; past that the
//	                        submit is refused with 429 + Retry-After.
//	                        With -journal set, every accepted job is
//	                        fsynced to an append-only NDJSON journal
//	                        before the 202, and a restart re-queues
//	                        whatever had not finished.
//	POST /v1/batch          many items in one request: {"items": [...]},
//	                        each item a {"netlist": ...} partition or a
//	                        {"delta": ..., "base_job"|"netlist"+"sides"}
//	                        repartition, sharing the query-string knobs.
//	                        Each item becomes a durable job; the response
//	                        streams one NDJSON line per item in completion
//	                        order, flushed as each finishes. Disconnecting
//	                        mid-stream cancels the unfinished items.
//	GET  /v1/jobs           list retained jobs; ?tenant= filters
//	GET  /v1/jobs/{id}      job state and, when done, the result; while the
//	                        job runs the reply carries a live "progress"
//	                        snapshot (current phase, run, pass, best cut so
//	                        far) updated as the engine advances. Finished
//	                        jobs are evicted after -job-ttl, or earlier
//	                        once -job-history newer ones finished
//	DELETE /v1/jobs/{id}    cancel a pending or running job
//	GET  /healthz           liveness probe (503 while draining)
//	GET  /metrics           Prometheus text metrics (jobs in flight, runs
//	                        completed, cut-size and passes-per-run
//	                        histograms, per-phase duration histograms
//	                        labeled by phase name, per-tenant admission /
//	                        rejection / completion counters and queue
//	                        depths, p50/p99 latency); ?format=json for the
//	                        JSON export
//	GET  /debug/runs        in-flight jobs with their progress snapshots
//	GET  /debug/trace/{id}  JSONL trace of a job submitted with trace=
//	GET  /debug/pprof/      CPU/heap/goroutine profiles (net/http/pprof)
//
// Multi-tenancy: requests carry an X-Tenant header (absent = the
// "default" tenant). Async and batch work is dispatched round robin
// across tenants by -sched-workers slots, so one tenant's flood cannot
// starve another; -tenant-rate/-tenant-burst add a per-tenant
// token-bucket admission quota answered with 429 when exceeded. Request
// bodies larger than -max-body are refused with 413.
//
// Every request is logged with a run ID that also labels the job's
// engine-level logs and trace events. Job completion logs carry the
// algorithm, total improvement passes and the cut; jobs whose
// compute exceeds -slow-run (0 disables) log a warning. On SIGTERM or
// SIGINT the server drains: new compute POSTs get 503 while in-flight
// jobs finish (up to -drain-timeout), then the journal is flushed and
// the process exits.
//
// Example:
//
//	curl -s -X POST --data-binary @circuit.hgr \
//	    'localhost:8080/v1/partition?algo=prop&runs=20&seed=1'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// buildLogger constructs the process logger from the -log-* flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug, info, warn, or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (use :0 for a free port; the actual address is printed)")
		par          = flag.Int("par", runtime.GOMAXPROCS(0), "max worker goroutines per partition request")
		timeout      = flag.Duration("timeout", 60*time.Second, "default per-request compute budget")
		slowRun      = flag.Duration("slow-run", 0, "warn when a job's compute exceeds this (0 = disabled)")
		maxJobs      = flag.Int("max-jobs", 64, "max pending+running async jobs (-1 = unbounded)")
		jobHistory   = flag.Int("job-history", 256, "finished jobs retained for GET (-1 = unbounded)")
		jobTTL       = flag.Duration("job-ttl", 15*time.Minute, "finished jobs evicted after this (-1s = never)")
		cacheSize    = flag.Int("cache", 128, "partition result-cache entries (-1 = disabled)")
		journalDir   = flag.String("journal", "", "job journal directory (empty = no durability)")
		schedWorkers = flag.Int("sched-workers", 0, "concurrent async job slots (0 = GOMAXPROCS, min 2)")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant admission quota, requests/sec (0 = unlimited)")
		tenantBurst  = flag.Float64("tenant-burst", 0, "per-tenant admission burst (0 = max(1, rate))")
		maxBody      = flag.Int64("max-body", 64<<20, "request body limit in bytes")
		batchMax     = flag.Int("batch-max", 64, "max items per /v1/batch request (-1 = unbounded)")
		drainTO      = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight jobs")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat    = flag.String("log-format", "text", "log format: text or json")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "propserve:", err)
		os.Exit(2)
	}
	s, err := newServer(serverConfig{
		maxPar:       *par,
		defTimeout:   *timeout,
		slowRun:      *slowRun,
		maxJobs:      *maxJobs,
		jobHistory:   *jobHistory,
		jobTTL:       *jobTTL,
		cacheSize:    *cacheSize,
		journalDir:   *journalDir,
		schedWorkers: *schedWorkers,
		tenantRate:   *tenantRate,
		tenantBurst:  *tenantBurst,
		maxBody:      *maxBody,
		batchMax:     *batchMax,
	}, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "propserve:", err)
		os.Exit(1)
	}
	hs := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Listen before announcing so ":0" callers can read the real port
	// from the line below.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "propserve:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "propserve: listening on %s (par %d, timeout %s)\n", ln.Addr(), *par, *timeout)

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "propserve:", err)
			os.Exit(1)
		}
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "propserve: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		// New compute POSTs answer 503 from here on; established requests
		// finish under the HTTP shutdown, async jobs under the scheduler
		// drain, then the journal is compacted and closed.
		s.beginDrain()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "propserve: shutdown:", err)
		}
		if err := s.drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "propserve: drain:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "propserve: drained cleanly")
	}
}
