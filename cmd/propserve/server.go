package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"prop"
	"prop/internal/cache"
	"prop/internal/jobs"
	"prop/internal/metrics"
	"prop/internal/obs"
	"prop/internal/sched"
)

// serverConfig sizes a server's resource bounds. The zero value of any
// field selects its default.
type serverConfig struct {
	maxPar       int           // cap on per-request Parallel
	defTimeout   time.Duration // per-request compute budget
	maxJobs      int           // cap on pending+running async jobs (< 0 unbounded)
	jobHistory   int           // terminal jobs retained for GET (< 0 unbounded)
	jobTTL       time.Duration // terminal jobs evicted after this (< 0 never)
	cacheSize    int           // /v1/partition result-cache entries (< 0 disables)
	slowRun      time.Duration // warn when a job's compute exceeds this (0 disables)
	maxBody      int64         // request body limit, bytes (0 selects 64 MiB)
	journalDir   string        // job journal directory ("" = memory-only)
	schedWorkers int           // concurrent async job slots
	tenantRate   float64       // per-tenant admissions/sec (0 = unlimited)
	tenantBurst  float64       // per-tenant admission burst
	batchMax     int           // max items per /v1/batch request (< 0 unbounded)

	fs  jobs.FS          // journal filesystem override (tests)
	now func() time.Time // job-store clock override (tests)
}

func (c serverConfig) withDefaults() serverConfig {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		} else if *v < 0 {
			*v = 0
		}
	}
	def(&c.maxJobs, 64)
	def(&c.jobHistory, 256)
	def(&c.cacheSize, 128)
	def(&c.batchMax, 64)
	if c.jobTTL == 0 {
		c.jobTTL = 15 * time.Minute
	} else if c.jobTTL < 0 {
		c.jobTTL = 0
	}
	if c.defTimeout == 0 {
		c.defTimeout = 60 * time.Second
	}
	if c.maxBody <= 0 {
		c.maxBody = 64 << 20
	}
	if c.schedWorkers <= 0 {
		c.schedWorkers = runtime.GOMAXPROCS(0)
		if c.schedWorkers < 2 {
			c.schedWorkers = 2
		}
	}
	return c
}

// server carries the HTTP handlers, the durable job store, the fair-share
// scheduler, and the metric instruments. One server fronts one shared
// concurrent engine configuration (maxPar worker goroutines per request
// portfolio).
type server struct {
	maxPar     int           // cap on per-request Parallel
	maxBody    int64         // request body limit, bytes
	defTimeout time.Duration // per-request compute budget
	slowRun    time.Duration // warn when a job's compute exceeds this (0 disables)
	batchMax   int           // max items per /v1/batch request (0 = unbounded)

	store   *jobs.Store                     // durable job records (journaled when configured)
	rt      *runtimeTable                   // per-job volatile state: cancel, trace, progress
	sched   *sched.Scheduler                // fair-share dispatch + per-tenant quotas
	results *cache.Cache[cache.Key, []byte] // /v1/partition result cache; nil when disabled
	start   time.Time
	log     *slog.Logger

	// draining refuses new compute POSTs with 503 while in-flight jobs
	// finish and the journal flushes.
	draining atomic.Bool
	// baseCtx parents every async job's context; stopJobs cancels them all
	// for an abrupt close.
	baseCtx  context.Context
	stopJobs context.CancelFunc

	reg          *metrics.Registry
	mJobsUp      *metrics.Gauge   // async jobs currently queued or running
	mReqUp       *metrics.Gauge   // synchronous partitions in flight
	mJobs        *metrics.Counter // async jobs accepted
	mParts       *metrics.Counter // partitions completed (sync + async)
	mReparts     *metrics.Counter // incremental repartitions completed
	mRuns        *metrics.Counter // multi-start runs completed
	mErrors      *metrics.Counter // requests rejected or failed
	mBusy        *metrics.Counter // job submissions rejected with 429
	mCutHist     *metrics.Histogram
	mPassHist    *metrics.Histogram    // improvement passes per run
	mCutImprove  *metrics.FloatGauge   // (worst-best)/worst ×100 of last portfolio
	mPhaseHist   *metrics.HistogramVec // per-phase wall durations, labeled by phase name
	mLatency     *metrics.Latency
	mTenantOK    *metrics.CounterVec   // admissions per tenant
	mTenantRej   *metrics.CounterVec   // quota rejections per tenant
	mTenantDone  *metrics.CounterVec   // completed async jobs per tenant
	mTenantDepth *metrics.GaugeVec     // scheduler queue depth per tenant
	mQueueWait   *metrics.HistogramVec // ms between submit and dispatch, per tenant
}

// newServer builds the server, opening (and replaying) the job journal
// when one is configured. Recovered jobs are re-queued before it returns.
func newServer(cfg serverConfig, logger *slog.Logger) (*server, error) {
	cfg = cfg.withDefaults()
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := metrics.NewRegistry()
	s := &server{
		maxPar:       cfg.maxPar,
		maxBody:      cfg.maxBody,
		defTimeout:   cfg.defTimeout,
		slowRun:      cfg.slowRun,
		batchMax:     cfg.batchMax,
		rt:           newRuntimeTable(),
		start:        time.Now(),
		log:          logger,
		reg:          reg,
		mJobsUp:      reg.Gauge("jobs_in_flight"),
		mReqUp:       reg.Gauge("partitions_in_flight"),
		mJobs:        reg.Counter("jobs_total"),
		mParts:       reg.Counter("partitions_total"),
		mReparts:     reg.Counter("repartitions_total"),
		mRuns:        reg.Counter("runs_completed_total"),
		mErrors:      reg.Counter("errors_total"),
		mBusy:        reg.Counter("jobs_rejected_total"),
		mCutHist:     reg.Histogram("cut_nets", 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000),
		mPassHist:    reg.Histogram("passes_per_run", 1, 2, 3, 4, 5, 6, 8, 10, 15, 20),
		mCutImprove:  reg.FloatGauge("cut_improvement_pct"),
		mPhaseHist:   reg.HistogramVec("phase_duration_ms", "phase", 1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000),
		mLatency:     reg.Latency("partition_latency", 1024),
		mTenantOK:    reg.CounterVec("tenant_admitted_total", "tenant"),
		mTenantRej:   reg.CounterVec("tenant_rejected_total", "tenant"),
		mTenantDone:  reg.CounterVec("tenant_jobs_completed_total", "tenant"),
		mTenantDepth: reg.GaugeVec("tenant_queue_depth", "tenant"),
		mQueueWait:   reg.HistogramVec("job_queue_wait_ms", "tenant", 1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000),
	}
	s.baseCtx, s.stopJobs = context.WithCancel(context.Background())
	reg.Func("uptime_seconds", func() any { return int64(time.Since(s.start).Seconds()) })
	if cfg.cacheSize > 0 {
		s.results = cache.New[cache.Key, []byte](cfg.cacheSize)
		reg.Func("result_cache_hits_total", func() any { return int64(s.results.Hits()) })
		reg.Func("result_cache_misses_total", func() any { return int64(s.results.Misses()) })
		reg.Func("result_cache_entries", func() any { return int64(s.results.Len()) })
	}
	s.sched = sched.New(sched.Config{
		Workers: cfg.schedWorkers,
		Rate:    cfg.tenantRate,
		Burst:   cfg.tenantBurst,
		OnQueueDepth: func(tenant string, depth int) {
			s.mTenantDepth.With(tenant).Set(int64(depth))
		},
	})
	store, recovered, err := jobs.Open(jobs.Config{
		Dir:       cfg.journalDir,
		FS:        cfg.fs,
		Now:       cfg.now,
		MaxActive: cfg.maxJobs,
		MaxDone:   cfg.jobHistory,
		TTL:       cfg.jobTTL,
		// Payloads carry whole netlists; an 8 MiB segment keeps compaction
		// from rewriting the live set on every append.
		SegmentBytes: 8 << 20,
		OnEvict:      func(id string) { s.rt.drop(id) },
	})
	if err != nil {
		s.sched.Close()
		return nil, err
	}
	s.store = store
	s.resume(recovered)
	return s, nil
}

// mux routes the API.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("POST /v1/partition", s.handlePartition)
	m.HandleFunc("POST /v1/repartition", s.handleRepartition)
	m.HandleFunc("POST /v1/batch", s.handleBatch)
	m.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	m.HandleFunc("GET /v1/jobs", s.handleJobList)
	m.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	m.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	m.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	m.HandleFunc("GET /healthz", s.handleHealthz)
	m.Handle("GET /metrics", s.reg)
	m.HandleFunc("GET /debug/runs", s.handleRunsList)
	m.HandleFunc("GET /debug/trace/{id}", s.handleTraceGet)
	m.HandleFunc("GET /debug/pprof/", pprof.Index)
	m.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	m.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return m
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (the /v1/batch NDJSON path) through
// the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handler wraps the mux in the request-logging middleware: every request
// gets a fresh run ID (propagated via context to the engine and the
// logs), and one structured log line records method, path, status, and
// latency.
func (s *server) handler() http.Handler {
	mux := s.mux()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.NewID()
		r = r.WithContext(obs.WithRunID(r.Context(), id))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"latency_ms", float64(time.Since(start))/float64(time.Millisecond),
			"run_id", id,
		)
	})
}

// tenantRe limits tenant names to a filesystem- and metrics-label-safe
// alphabet.
var tenantRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// defaultTenant is the quota/fair-share bucket of requests that carry no
// X-Tenant header.
const defaultTenant = "default"

// tenantOf extracts and validates the request's tenant.
func tenantOf(r *http.Request) (string, error) {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		return defaultTenant, nil
	}
	if !tenantRe.MatchString(t) {
		return "", fmt.Errorf("bad X-Tenant %q: want 1-64 chars of [A-Za-z0-9._-]", t)
	}
	return t, nil
}

// gate applies the preconditions every compute POST shares: refuse new
// work while draining, validate the tenant, and — when charge is set —
// take one admission token from the tenant's quota bucket. It reports
// the tenant and whether the request may proceed (the failure response
// has already been written when not).
func (s *server) gate(w http.ResponseWriter, r *http.Request, charge bool) (string, bool) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return "", false
	}
	tenant, err := tenantOf(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return "", false
	}
	if charge && !s.chargeQuota(tenant) {
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, fmt.Errorf("tenant %q over admission quota", tenant))
		return "", false
	}
	return tenant, true
}

// chargeQuota takes one admission token for the tenant, recording the
// outcome in the per-tenant counters.
func (s *server) chargeQuota(tenant string) bool {
	if !s.sched.Admit(tenant) {
		s.mTenantRej.With(tenant).Inc()
		return false
	}
	s.mTenantOK.With(tenant).Inc()
	return true
}

// limitBody caps the request body at the server's limit; reads past it
// fail with *http.MaxBytesError, which failParse maps to 413.
func (s *server) limitBody(w http.ResponseWriter, r *http.Request) io.ReadCloser {
	return http.MaxBytesReader(w, r.Body, s.maxBody)
}

// failParse answers a body decode error: 413 when the body blew the size
// limit, 400 otherwise. The netlist parsers may wrap or swallow the
// *http.MaxBytesError, so the message is checked as a fallback.
func (s *server) failParse(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) || strings.Contains(err.Error(), "request body too large") {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", s.maxBody))
		return
	}
	s.fail(w, http.StatusBadRequest, err)
}

// partitionRequest is the decoded form of one partition query: the
// netlist plus the knobs from the URL query string.
type partitionRequest struct {
	netlist *prop.Netlist
	opts    prop.Options
	k       int
	timeout time.Duration
	// traced marks an async job submitted with ?trace=..., whose JSONL
	// trajectory is served at /debug/trace/{id} afterwards.
	traced     bool
	traceLevel prop.TraceLevel
}

// partitionResponse is the JSON reply for both sync and async paths.
// Sides is []int rather than the library's []uint8: encoding/json
// serializes []uint8 ([]byte) as base64, and the API wants a plain 0/1
// array. Passes is the improvement-pass total summed over every
// completed run of the portfolio.
type partitionResponse struct {
	Algorithm   string  `json:"algorithm"`
	K           int     `json:"k"`
	CutCost     float64 `json:"cut_cost"`
	CutNets     int     `json:"cut_nets"`
	Runs        int     `json:"runs,omitempty"`
	BestRun     int     `json:"best_run,omitempty"`
	Passes      int     `json:"passes,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Sides       []int   `json:"sides,omitempty"`
	Parts       []int   `json:"parts,omitempty"`
	PartWeights []int64 `json:"part_weights,omitempty"`
}

// decodeQuery parses the shared query knobs (algo, runs, seed, k, la,
// r1, r2, par, mode, timeout_ms, trace) of an HTTP request.
func (s *server) decodeQuery(r *http.Request) (*partitionRequest, error) {
	return s.decodeQueryValues(r.URL.Query())
}

// decodeQueryValues parses the shared query knobs from raw values — the
// form both live requests and journaled job payloads share.
func (s *server) decodeQueryValues(q map[string][]string) (*partitionRequest, error) {
	get := func(name string) string {
		if vs := q[name]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	req := &partitionRequest{k: 2, timeout: s.defTimeout}
	req.opts = prop.Options{Algorithm: prop.AlgoPROP, Runs: 20, Seed: 1, Parallel: s.maxPar}

	var err error
	if v := get("algo"); v != "" {
		a := prop.Algorithm(v)
		if !a.Valid() {
			return nil, fmt.Errorf("unknown algo %q (GET /v1/algorithms lists the supported set)", v)
		}
		req.opts.Algorithm = a
	}
	geti := func(name string, dst *int) {
		if err != nil {
			return
		}
		if v := get(name); v != "" {
			n, e := strconv.Atoi(v)
			if e != nil {
				err = fmt.Errorf("bad %s %q", name, v)
				return
			}
			*dst = n
		}
	}
	getf := func(name string, dst *float64) {
		if err != nil {
			return
		}
		if v := get(name); v != "" {
			f, e := strconv.ParseFloat(v, 64)
			if e != nil {
				err = fmt.Errorf("bad %s %q", name, v)
				return
			}
			*dst = f
		}
	}
	geti("runs", &req.opts.Runs)
	geti("k", &req.k)
	geti("la", &req.opts.LADepth)
	getf("r1", &req.opts.R1)
	getf("r2", &req.opts.R2)
	if v := get("seed"); v != "" && err == nil {
		n, e := strconv.ParseInt(v, 10, 64)
		if e != nil {
			err = fmt.Errorf("bad seed %q", v)
		}
		req.opts.Seed = n
	}
	par := 0
	geti("par", &par)
	if par > 0 && par < req.opts.Parallel {
		req.opts.Parallel = par
	}
	// mode selects the ml-prop hierarchy style; it changes which hierarchy
	// (and therefore which result) runs, so it participates in the result
	// cache fingerprint via Options.ML.
	if v := get("mode"); v != "" && err == nil {
		if v != "vcycle" && v != "nlevel" {
			err = fmt.Errorf("bad mode %q: want vcycle or nlevel", v)
		} else if req.opts.Algorithm != prop.AlgoMLPROP {
			err = fmt.Errorf("mode applies to algo %q only (got algo %q)", prop.AlgoMLPROP, req.opts.Algorithm)
		} else {
			req.opts.ML = &prop.MLParams{Mode: v}
		}
	}
	timeoutMS := 0
	geti("timeout_ms", &timeoutMS)
	if timeoutMS > 0 {
		req.timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if v := get("trace"); v != "" && err == nil {
		lvl, ok := obs.ParseLevel(v)
		if v == "1" {
			lvl, ok = prop.TracePasses, true
		}
		if !ok {
			err = fmt.Errorf("bad trace %q: want 1, run, pass, or move", v)
		}
		req.traced, req.traceLevel = true, lvl
	}
	if err != nil {
		return nil, err
	}
	if req.k < 2 {
		return nil, fmt.Errorf("bad k %d: want ≥ 2", req.k)
	}
	if req.opts.Runs < 1 || req.opts.Runs > 10000 {
		return nil, fmt.Errorf("bad runs %d: want 1..10000", req.opts.Runs)
	}
	if err := req.opts.ValidateBalance(); err != nil {
		return nil, fmt.Errorf("bad r1/r2: %w", err)
	}
	return req, nil
}

// parseNetlist decodes netlist bytes by content type: application/json
// selects the JSON netlist format, anything else hMETIS .hgr text.
func parseNetlist(contentType string, data []byte) (*prop.Netlist, error) {
	if strings.HasPrefix(contentType, "application/json") {
		return prop.ReadJSON(bytes.NewReader(data))
	}
	return prop.ReadHGR(bytes.NewReader(data))
}

// decodeRequest parses query knobs and the netlist body. The body is the
// netlist itself: application/json selects the JSON netlist format,
// anything else is parsed as hMETIS .hgr text.
func (s *server) decodeRequest(w http.ResponseWriter, r *http.Request) (*partitionRequest, error) {
	req, err := s.decodeQuery(r)
	if err != nil {
		return nil, err
	}
	body := s.limitBody(w, r)
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		req.netlist, err = prop.ReadJSON(body)
	} else {
		req.netlist, err = prop.ReadHGR(body)
	}
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	return req, nil
}

// run executes one partition request under its timeout, recording engine
// metrics as runs complete. runID labels per-run debug logs and, when tr
// is non-nil, the emitted trace spans.
func (s *server) run(ctx context.Context, req *partitionRequest, runID string, tr *prop.Tracer) (*partitionResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, req.timeout)
	defer cancel()
	req.opts.Tracer = tr
	if req.opts.TraceID == "" {
		req.opts.TraceID = runID
	}
	var bestCut, worstCut float64
	seen, passTotal := 0, 0
	req.opts.OnRun = func(u prop.RunUpdate) {
		s.mRuns.Inc()
		if u.Passes > 0 {
			s.mPassHist.Observe(float64(u.Passes))
		}
		if seen == 0 || u.CutCost < bestCut {
			bestCut = u.CutCost
		}
		if seen == 0 || u.CutCost > worstCut {
			worstCut = u.CutCost
		}
		seen++
		passTotal += u.Passes
		s.log.Debug("run complete",
			"run", u.Run, "cut_cost", u.CutCost, "cut_nets", u.CutNets,
			"passes", u.Passes, "run_id", runID)
	}

	start := time.Now()
	resp := &partitionResponse{Algorithm: string(req.opts.Algorithm), K: req.k}
	if req.k == 2 {
		res, err := prop.PartitionCtx(ctx, req.netlist, req.opts)
		if err != nil {
			return nil, err
		}
		resp.CutCost, resp.CutNets = res.CutCost, res.CutNets
		resp.Runs, resp.BestRun = res.Runs, res.BestRun
		resp.Sides = make([]int, len(res.Sides))
		for u, s := range res.Sides {
			resp.Sides[u] = int(s)
		}
		resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	} else {
		res, err := prop.KWayCtx(ctx, req.netlist, req.k, req.opts)
		if err != nil {
			return nil, err
		}
		resp.CutCost, resp.CutNets = res.CutCost, res.CutNets
		resp.Parts, resp.PartWeights = res.Parts, res.PartWeights
		resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	}
	s.mParts.Inc()
	s.mCutHist.Observe(float64(resp.CutNets))
	s.mLatency.Observe(time.Since(start))
	resp.Passes = passTotal
	if seen > 1 && worstCut > 0 {
		s.mCutImprove.Set((worstCut - bestCut) / worstCut * 100)
	}
	return resp, nil
}

// observePhase feeds one completed phase span into the per-phase duration
// histogram family. Installed as a tracer phase hook on every engine run
// the server drives, traced or not.
func (s *server) observePhase(p obs.Phase) {
	s.mPhaseHist.Observe(p.Name, float64(p.Wall)/float64(time.Millisecond))
}

func (s *server) handlePartition(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.gate(w, r, true); !ok {
		return
	}
	req, err := s.decodeRequest(w, r)
	if err != nil {
		s.failParse(w, err)
		return
	}
	// Result cache: keyed on content, not request bytes, so e.g. the same
	// netlist in .hgr and JSON form, or with a different par=, still hits.
	// Hits replay the exact payload bytes the populating miss sent.
	var key cache.Key
	if s.results != nil {
		key = cache.Key{Kind: "partition", Netlist: req.netlist.Fingerprint(), Options: req.opts.Fingerprint(), K: req.k}
		if payload, ok := s.results.Get(key); ok {
			s.log.Info("cache hit", "run_id", obs.RunID(r.Context()))
			w.Header().Set("X-Cache", "hit")
			writeJSONBytes(w, http.StatusOK, payload)
			return
		}
	}
	s.mReqUp.Add(1)
	defer s.mReqUp.Add(-1)
	// Even an untraced sync request runs under a discard tracer so its
	// phase spans land in the phase_duration_ms histograms.
	tr := prop.NewTracer(io.Discard, prop.TraceRuns).WithPhaseHook(s.observePhase)
	resp, err := s.run(r.Context(), req, obs.RunID(r.Context()), tr)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		s.fail(w, status, err)
		return
	}
	payload, err := json.Marshal(resp)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	payload = append(payload, '\n')
	if s.results != nil {
		s.results.Put(key, payload)
		w.Header().Set("X-Cache", "miss")
	}
	writeJSONBytes(w, http.StatusOK, payload)
}

// repartitionRequest is the JSON body of POST /v1/repartition (and of a
// /v1/batch delta item): the delta plus the base state, either inline
// (netlist + sides) or by reference to a finished 2-way job whose netlist
// and winning sides the server still retains.
type repartitionRequest struct {
	// BaseJob names a done async job to reuse as the base state.
	BaseJob string `json:"base_job,omitempty"`
	// Netlist is the base netlist in the JSON netlist format; Sides is its
	// previous side assignment. Both are ignored when BaseJob is set.
	Netlist json.RawMessage `json:"netlist,omitempty"`
	Sides   []int           `json:"sides,omitempty"`
	Delta   *prop.Delta     `json:"delta"`
}

// repartitionResponse extends the partition payload with what the delta
// did to the netlist.
type repartitionResponse struct {
	partitionResponse
	DeltaStructural bool `json:"delta_structural"`
	DeltaNewNodes   int  `json:"delta_new_nodes"`
	DeltaNewNets    int  `json:"delta_new_nets"`
	DeltaCollapsed  int  `json:"delta_collapsed_nets"`
}

// baseFromStore resolves a finished 2-way job into its netlist and
// winning sides, reconstructing both from the durable record — the
// journaled request payload and result — so the incremental path works
// identically for live and crash-recovered base jobs.
func (s *server) baseFromStore(id string) (*prop.Netlist, []uint8, error) {
	j, ok := s.store.Get(id)
	if !ok {
		return nil, nil, fmt.Errorf("unknown base job %q (finished jobs are evicted after a while)", id)
	}
	if j.State != jobs.Done || len(j.Result) == 0 {
		return nil, nil, fmt.Errorf("base job %q is %s, want done", id, j.State)
	}
	var pl jobPayload
	if err := json.Unmarshal(j.Payload, &pl); err != nil || pl.Kind != kindPartition {
		return nil, nil, fmt.Errorf("base job %q is not a partition job", id)
	}
	var res partitionResponse
	if err := json.Unmarshal(j.Result, &res); err != nil {
		return nil, nil, fmt.Errorf("base job %q result: %w", id, err)
	}
	if len(res.Sides) == 0 {
		return nil, nil, fmt.Errorf("base job %q has no 2-way sides (k=%d)", id, res.K)
	}
	nl, err := parseNetlist(pl.ContentType, pl.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("base job %q netlist: %w", id, err)
	}
	sides := make([]uint8, len(res.Sides))
	for u, v := range res.Sides {
		sides[u] = uint8(v)
	}
	return nl, sides, nil
}

// checkRepartitionK refuses repartition work for k ≠ 2: the incremental
// path warm-starts and polishes a bisection.
func checkRepartitionK(k int) error {
	if k != 2 {
		return fmt.Errorf("repartition supports k=2 only (got k=%d)", k)
	}
	return nil
}

// runRepartition executes the incremental path: apply a netlist delta to
// a base state, project the previous sides through the mapping, and
// warm-start the partitioner (prop.RepartitionCtx) instead of solving
// from scratch. On error the returned status is the HTTP code the
// synchronous handler should answer with.
func (s *server) runRepartition(ctx context.Context, req *partitionRequest, body *repartitionRequest, runID string) (*repartitionResponse, int, error) {
	if body.Delta == nil {
		return nil, http.StatusBadRequest, fmt.Errorf("body: missing delta")
	}
	var base *prop.Netlist
	var prevSides []uint8
	var err error
	switch {
	case body.BaseJob != "":
		base, prevSides, err = s.baseFromStore(body.BaseJob)
		if err != nil {
			return nil, http.StatusNotFound, err
		}
	case len(body.Netlist) > 0:
		base, err = prop.ReadJSON(bytes.NewReader(body.Netlist))
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("netlist: %w", err)
		}
		prevSides = make([]uint8, len(body.Sides))
		for u, v := range body.Sides {
			if v != 0 && v != 1 {
				return nil, http.StatusBadRequest, fmt.Errorf("sides[%d] = %d, want 0 or 1", u, v)
			}
			prevSides[u] = uint8(v)
		}
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("body: want base_job or netlist+sides")
	}

	ctx, cancel := context.WithTimeout(ctx, req.timeout)
	defer cancel()
	req.opts.OnRun = func(u prop.RunUpdate) { s.mRuns.Inc() }
	if req.opts.TraceID == "" {
		req.opts.TraceID = runID
	}
	start := time.Now()
	_, res, err := prop.RepartitionCtx(ctx, base, prevSides, body.Delta, req.opts)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		return nil, status, err
	}
	// The mapping is re-derived for the response: RepartitionCtx applied
	// the delta internally, and Apply is cheap next to the search.
	_, mp, err := base.ApplyDelta(body.Delta)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	resp := &repartitionResponse{
		partitionResponse: partitionResponse{
			Algorithm: string(req.opts.Algorithm),
			K:         2,
			CutCost:   res.CutCost,
			CutNets:   res.CutNets,
			Runs:      res.Runs,
			BestRun:   res.BestRun,
			ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		},
		DeltaStructural: mp.Structural,
		DeltaNewNodes:   mp.NewNodes,
		DeltaNewNets:    mp.NewNets,
		DeltaCollapsed:  mp.CollapsedNets,
	}
	resp.Sides = make([]int, len(res.Sides))
	for u, side := range res.Sides {
		resp.Sides[u] = int(side)
	}
	s.mReparts.Inc()
	s.mParts.Inc()
	s.mCutHist.Observe(float64(resp.CutNets))
	s.mLatency.Observe(time.Since(start))
	s.log.Info("repartition", "cut_cost", res.CutCost, "cut_nets", res.CutNets,
		"structural", mp.Structural, "elapsed_ms", resp.ElapsedMS, "run_id", runID)
	return resp, 0, nil
}

func (s *server) handleRepartition(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.gate(w, r, true); !ok {
		return
	}
	req, err := s.decodeQuery(r)
	if err == nil {
		err = checkRepartitionK(req.k)
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var body repartitionRequest
	if err := json.NewDecoder(s.limitBody(w, r)).Decode(&body); err != nil {
		s.failParse(w, fmt.Errorf("body: %w", err))
		return
	}
	s.mReqUp.Add(1)
	defer s.mReqUp.Add(-1)
	// As in handlePartition: a discard tracer feeds phase_duration_ms.
	req.opts.Tracer = prop.NewTracer(io.Discard, prop.TraceRuns).WithPhaseHook(s.observePhase)
	resp, status, err := s.runRepartition(r.Context(), req, &body, obs.RunID(r.Context()))
	if err != nil {
		s.fail(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAlgorithms serves the algorithm feature matrix: which methods the
// server accepts for ?algo= and what each inherits from the shared
// move-engine layer.
func (s *server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": prop.AlgorithmInfos()})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":   "draining",
			"uptime_s": int64(time.Since(s.start).Seconds()),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": int64(time.Since(s.start).Seconds()),
	})
}

// beginDrain flips the server into drain mode: compute POSTs answer 503
// and healthz reports draining, while GETs keep serving results.
func (s *server) beginDrain() { s.draining.Store(true) }

// drain gracefully stops the serving core: it refuses new work, waits
// (up to ctx) for every queued and running job to finish, then closes
// the scheduler and flushes and closes the job journal.
func (s *server) drain(ctx context.Context) error {
	s.beginDrain()
	err := s.sched.Drain(ctx)
	if err != nil {
		// Out of patience: cancel what is still running so the worker pool
		// can be joined before the journal closes.
		s.stopJobs()
	}
	s.sched.Close()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// close abruptly releases the server's resources: in-flight jobs are
// cancelled rather than awaited. Tests use it; production exits call
// drain.
func (s *server) close() {
	s.beginDrain()
	s.stopJobs()
	s.sched.Close()
	_ = s.store.Close()
}

func (s *server) fail(w http.ResponseWriter, status int, err error) {
	s.mErrors.Inc()
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeJSONBytes sends an already-marshaled JSON payload — the cache path
// must replay the populating response byte for byte.
func writeJSONBytes(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
}
