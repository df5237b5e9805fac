package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"prop"
	"prop/internal/gen"
	"prop/internal/hypergraph"
)

// The serve workload drives a propserve process (default flags, journal in
// the run's scratch directory) from two tenants over at most two
// connections. The mix is 30% unique sync /v1/partition, 15% exact
// repeats of recent partition requests (result-cache hits), 30% sync
// /v1/repartition ECO re-solves and 25% single-item durable /v1/batch
// jobs (half partition, half repartition items), all on propload's
// 400-node netlist at runs=4. An open loop sends on a paced, seeded
// schedule at serveRate, then a closed loop sends a fixed list of requests
// on two connections. HTTP decode/encode, sched, jobs, cache, delta and
// warm carry much of the latency; the big-graph kernels do little.

const (
	// serveRate is the open-loop offered rate, about a fifth of the
	// two-connection saturation of this mix on a 2-core host; serveJitter
	// is the seeded jitter of each arrival, in arrival periods.
	serveRate   = 15.0
	serveJitter = 0.2
	serveConns  = 2
	serveRuns   = 4
	// serveSetupRepeats is fewer than setupRepeats: a serve set-up lasts
	// about 0.3 s and so spans the host's speed changes by itself.
	serveSetupRepeats = 7
	// openShare and closedShare split --seconds between the phases;
	// closedRPS is the nominal closed-loop rate that fixes its request
	// count, sent in closedRounds rounds. A round lasts about two seconds:
	// shorter rounds fall within one of the host's fast or slow spells
	// and spread by about 20% from run to run.
	openShare    = 0.65
	closedShare  = 0.3
	closedRPS    = 80.0
	closedRounds = 5
	// A cache-hit request repeats a unique partition request at least
	// hitMinBack requests earlier, among the last hitWindow of them — well
	// inside propserve's default 128-entry result cache.
	hitMinBack = 8
	hitWindow  = 32
	// serveECOFraction sizes the repartition deltas.
	serveECOFraction = 0.02
	// failedLatency stands in for the latency of a failed or refused
	// request: it misses any limit.
	failedLatency = time.Minute
)

// serveNetlist is propload's default netlist.
var serveNetlist = gen.Params{Nodes: 400, Nets: 450, Pins: 1500, Seed: 7}

// serveMix puts the median of the open loop's latencies inside the
// repartition and batch requests instead of on the edge between the
// partition and repartition clusters, where it would jump from run to run.
var serveMix = []struct {
	kind  string
	share float64
}{{"partition", 0.30}, {"hit", 0.15}, {"repartition", 0.30}, {"batch", 0.25}}

// request is one HTTP request of the workload and, once sent, its
// response. Checks run after the load, so the client spends its CPU on
// sending.
type request struct {
	kind    string // partition, hit, repartition or batch
	tenant  string
	target  *request      // hit: the repeated request
	delta   *prop.Delta   // repartition, and batch items that repartition
	path    string        // URL path and query
	payload []byte        // request body
	done    chan struct{} // closed once the response is in

	status int
	cache  string // X-Cache header
	resp   []byte
	err    error
}

// serveInput is the set-up state of one run.
type serveInput struct {
	net    *prop.Netlist
	reqs   []*request // the open loop's, then the closed loop's
	srv    *server
	client *http.Client
}

func runServe(c *runCtx) error {
	// The request list is segmented: the open loop, then the closed loop's
	// rounds. Each segment has the mix's proportions, so every round does
	// the same work.
	nOpen := int(serveRate*openShare*float64(c.seconds) + 0.5)
	per := int(closedRPS*closedShare*float64(c.seconds)/closedRounds + 0.5)
	segs, nClosed := []int{nOpen}, 0
	if !c.trace { // the per-layer metrics come from the open loop
		for k := 0; k < closedRounds; k++ {
			segs = append(segs, per)
		}
		nClosed = closedRounds * per
	}
	c.offered = serveRate
	c.mix = map[string]float64{}
	for _, m := range serveMix {
		c.mix[m.kind] = m.share
	}

	// Set up serveSetupRepeats times, each on a fresh server and journal,
	// and keep the last; setup_s is the median.
	var in *serveInput
	var times []float64
	for i := 0; i < serveSetupRepeats; i++ {
		if in != nil {
			if err := in.srv.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		in, err = serveSetup(c, segs, filepath.Join(c.workdir, fmt.Sprintf("journal-%d", i)))
		if err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	c.metrics["setup_s"] = median(times)
	defer in.srv.stop()
	c.inputs["nodes"], c.inputs["nets"], c.inputs["pins"] = in.net.NumNodes(), in.net.NumNets(), in.net.NumPins()
	c.inputs["runs"], c.inputs["open_requests"], c.inputs["closed_requests"] = serveRuns, nOpen, nClosed
	c.inputs["connections"], c.inputs["tenants"] = serveConns, 2

	rng := rand.New(rand.NewSource(c.seed))
	dues := paceDues(nOpen, serveRate, serveJitter, rng.Float64)
	send := func(base int) func(int) {
		return func(i int) { in.send(in.reqs[base+i]) }
	}
	if c.trace {
		return serveTraced(c, in, dues, send)
	}

	lat, late := openLoop(dues, serveConns, send(0))
	// solve_s is the median closed-loop round, so a transient stall of the
	// host does not decide the run.
	var walls []float64
	for k := 0; k < closedRounds; k++ {
		wall, _ := closedLoop(per, serveConns, send(nOpen+k*per))
		walls = append(walls, wall.Seconds())
	}
	cut := 0.0
	for i, r := range in.reqs {
		c.attempted++
		v, err := in.check(r)
		if err != nil {
			c.fail("serve request %d (%s): %v", i, r.kind, err)
			if i < nOpen {
				lat[i] = failedLatency
			}
			continue
		}
		cut += v
	}
	checkLateness(c, late)
	setLatency(c, millis(lat))
	c.metrics["solve_s"] = median(walls)
	c.metrics["sat_rps"] = ratio(float64(per), median(walls))
	c.metrics["cut"] = cut
	c.metrics["ok_ratio"] = ratio(float64(c.attempted-c.failed), float64(c.attempted))
	rss, err := peakRSSMB(in.srv.pid())
	if err != nil {
		return err
	}
	c.metrics["peak_rss_mb"] = rss
	return nil
}

// serveTraced runs the open loop in two halves: the first untraced, the
// second with /metrics snapshots around it. The per-layer metrics come
// from the second half; obs.trace_overhead_pct compares the halves' p50
// latencies.
func serveTraced(c *runCtx, in *serveInput, dues []time.Duration, send func(int) func(int)) error {
	half := len(dues) / 2
	second := make([]time.Duration, len(dues)-half)
	for i := range second {
		second[i] = dues[half+i] - dues[half]
	}
	latA, lateA := openLoop(dues[:half], serveConns, send(0))
	before, err := in.scrape()
	if err != nil {
		return err
	}
	latB, lateB := openLoop(second, serveConns, send(half))
	after, err := in.scrape()
	if err != nil {
		return err
	}
	byKind := map[string][]float64{}
	var batches []*request
	// solve and outside pair each unique partition request's server-side
	// solve time (its elapsed_ms, the interval partition_latency observes)
	// with the rest of its client latency.
	var solve, outside []float64
	for i, r := range in.reqs {
		c.attempted++
		if _, err := in.check(r); err != nil {
			c.fail("serve request %d (%s): %v", i, r.kind, err)
			continue
		}
		if i < half {
			continue
		}
		ms := float64(latB[i-half].Microseconds()) / 1000
		byKind[r.kind] = append(byKind[r.kind], ms)
		switch r.kind {
		case "batch":
			batches = append(batches, r)
		case "partition":
			var res struct {
				ElapsedMS float64 `json:"elapsed_ms"`
			}
			if err := json.Unmarshal(r.resp, &res); err != nil {
				c.problem("serve request %d: elapsed_ms: %v", i, err)
				continue
			}
			solve = append(solve, res.ElapsedMS)
			outside = append(outside, ms-res.ElapsedMS)
		}
	}
	checkLateness(c, append(lateA, lateB...))
	c.metrics["obs.trace_overhead_pct"] = (ratio(median(millis(latB)), median(millis(latA))) - 1) * 100
	c.metrics["propserve.partition_p50_ms"] = percentile(byKind["partition"], 50)
	c.metrics["propserve.hit_p50_ms"] = percentile(byKind["hit"], 50)
	c.metrics["propserve.repartition_p50_ms"] = percentile(byKind["repartition"], 50)
	c.metrics["propserve.batch_p50_ms"] = percentile(byKind["batch"], 50)
	c.metrics["propserve.solve_ms_p50"] = percentile(solve, 50)
	c.metrics["propserve.outside_solve_ms"] = percentile(outside, 50)
	serverLayers(c, before, after, len(latB))
	return replayJournal(c, batches)
}

// checkLateness reports loadgen.late_ms_p95 and marks the run invalid when
// the generator ran more than one mean arrival period behind: the offered
// rate was then not the one recorded.
func checkLateness(c *runCtx, late []time.Duration) {
	p95 := percentile(millis(late), 95)
	c.metrics["loadgen.late_ms_p95"] = p95
	if limit := 1000 / serveRate; p95 > limit {
		c.problem("load generator lagged: late p95 %.1f ms > %.1f ms; the run is invalid", p95, limit)
	}
}

// serveSetup synthesizes the inputs, starts a server on a fresh journal,
// probes it, solves the repartition base, builds the request list and
// warms every request kind up.
func serveSetup(c *runCtx, segs []int, journal string) (*serveInput, error) {
	h, err := gen.Generate(serveNetlist)
	if err != nil {
		return nil, err
	}
	net, err := prop.Generate(serveNetlist)
	if err != nil {
		return nil, err
	}
	var nl bytes.Buffer
	if err := net.WriteJSON(&nl); err != nil {
		return nil, err
	}
	srv, err := startServer(c.propserve, journal)
	if err != nil {
		return nil, err
	}
	in := &serveInput{net: net, srv: srv, client: &http.Client{
		Timeout:   failedLatency,
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
	}}
	if err := in.build(c.seed, segs, h, nl.Bytes()); err != nil {
		srv.stop()
		return nil, err
	}
	return in, nil
}

// build solves the repartition base on the server, builds the measured
// requests segment by segment, and sends and checks two warm-up requests
// of each kind.
func (in *serveInput) build(seed int64, segs []int, h *hypergraph.Hypergraph, netJSON []byte) error {
	base := seed * 1_000_000
	probe := &request{kind: "partition", tenant: "t0", path: solvePath("partition", base+999_999),
		payload: netJSON, done: make(chan struct{})}
	in.send(probe)
	if _, err := in.check(probe); err != nil {
		return fmt.Errorf("base solve: %w", err)
	}
	var res struct {
		Sides []int `json:"sides"`
	}
	if err := json.Unmarshal(probe.resp, &res); err != nil {
		return fmt.Errorf("base solve: %w", err)
	}
	// newReq builds a request of kind with solver seed s; a hit repeats
	// target and a batch item repartitions when repart is set.
	newReq := func(kind, tenant string, s int64, target *request, repart bool) (*request, error) {
		r := &request{kind: kind, tenant: tenant, done: make(chan struct{})}
		if kind == "hit" {
			r.target, r.path, r.payload = target, target.path, target.payload
			return r, nil
		}
		r.path, r.payload = solvePath(kind, s), netJSON
		if kind == "repartition" || (kind == "batch" && repart) {
			d, err := gen.ECO(h, gen.ECOParams{Fraction: serveECOFraction, Seed: s})
			if err != nil {
				return nil, err
			}
			r.delta = d
			body, err := json.Marshal(map[string]any{
				"netlist": json.RawMessage(netJSON), "sides": res.Sides, "delta": d,
			})
			if err != nil {
				return nil, err
			}
			r.payload = body
		}
		if kind == "batch" {
			item := r.payload
			if r.delta == nil {
				item = append(append([]byte(`{"netlist":`), netJSON...), '}')
			}
			r.payload = append(append([]byte(`{"items":[`), item...), ']', '}')
		}
		return r, nil
	}

	// Warm-up: two of each kind, sent one at a time and checked.
	for j := 0; j < 2; j++ {
		var last *request
		for k, m := range serveMix {
			r, err := newReq(m.kind, fmt.Sprintf("t%d", k%2), base+900_000+int64(10*j+k), last, j == 1)
			if err != nil {
				return err
			}
			in.send(r)
			if _, err := in.check(r); err != nil {
				return fmt.Errorf("warm-up %s: %w", m.kind, err)
			}
			if m.kind == "partition" {
				last = r
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	var kinds []string
	for _, n := range segs {
		kinds = append(kinds, mixKinds(n, rng)...)
	}
	var uniques []int // indices of unique partition requests
	batches := 0
	perKind := map[string]int{}
	for i, kind := range kinds {
		var target *request
		if kind == "hit" {
			cands := uniques
			for len(cands) > 0 && cands[len(cands)-1] > i-hitMinBack {
				cands = cands[:len(cands)-1]
			}
			if len(cands) > hitWindow {
				cands = cands[len(cands)-hitWindow:]
			}
			if len(cands) == 0 {
				kind = "partition"
			} else {
				target = in.reqs[cands[rng.Intn(len(cands))]]
			}
		}
		repart := false
		if kind == "batch" {
			repart = batches%2 == 1
			batches++
		}
		// Each kind alternates between the tenants, so both submit the
		// same work and sched.fairness measures the scheduler alone.
		r, err := newReq(kind, fmt.Sprintf("t%d", perKind[kind]%2), base+int64(i), target, repart)
		perKind[kind]++
		if err != nil {
			return err
		}
		if kind == "partition" {
			uniques = append(uniques, i)
		}
		in.reqs = append(in.reqs, r)
	}
	return nil
}

// mixKinds returns n request kinds in the mix proportions, shuffled by
// rng: every run of a given length sends the same number of each kind.
func mixKinds(n int, rng *rand.Rand) []string {
	kinds := make([]string, 0, n)
	for k, m := range serveMix {
		count := int(m.share*float64(n) + 0.5)
		if k == len(serveMix)-1 {
			count = n - len(kinds)
		}
		for j := 0; j < count && len(kinds) < n; j++ {
			kinds = append(kinds, m.kind)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

func solvePath(kind string, seed int64) string {
	endpoint := map[string]string{"partition": "/v1/partition", "repartition": "/v1/repartition", "batch": "/v1/batch"}[kind]
	return fmt.Sprintf("%s?algo=prop&runs=%d&seed=%d", endpoint, serveRuns, seed)
}

// send performs r and stores the response. A hit first waits for the
// request it repeats, so the repeat finds that response in the cache.
func (in *serveInput) send(r *request) {
	defer close(r.done)
	if r.target != nil {
		<-r.target.done
	}
	req, err := http.NewRequest(http.MethodPost, in.srv.url+r.path, bytes.NewReader(r.payload))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", r.tenant)
	resp, err := in.client.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.status, r.cache = resp.StatusCode, resp.Header.Get("X-Cache")
	r.resp, r.err = io.ReadAll(resp.Body)
}

// check verifies r's response and returns its cut: the status, the cache
// verdict, byte-identical replays, ok on batch lines, and an independent
// recount of the returned sides on the (edited) netlist.
func (in *serveInput) check(r *request) (float64, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %.200s", r.status, r.resp)
	}
	net := in.net
	if r.delta != nil {
		edited, _, err := in.net.ApplyDelta(r.delta)
		if err != nil {
			return 0, err
		}
		net = edited
	}
	switch r.kind {
	case "partition":
		if r.cache != "miss" {
			return 0, fmt.Errorf("X-Cache %q, want miss", r.cache)
		}
	case "hit":
		if r.cache != "hit" {
			return 0, fmt.Errorf("X-Cache %q, want hit", r.cache)
		}
		if !bytes.Equal(r.resp, r.target.resp) {
			return 0, fmt.Errorf("cache hit body differs from the first response")
		}
	case "batch":
		lines := bytes.Split(bytes.TrimSpace(r.resp), []byte{'\n'})
		var line struct {
			OK     bool            `json:"ok"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if len(lines) != 1 {
			return 0, fmt.Errorf("%d batch lines, want 1", len(lines))
		}
		if err := json.Unmarshal(lines[0], &line); err != nil {
			return 0, err
		}
		if !line.OK {
			return 0, fmt.Errorf("batch item not ok: %s", line.Error)
		}
		return verifyResponse(net, line.Result)
	}
	return verifyResponse(net, r.resp)
}

// verifyResponse recounts the sides of a partition response body.
func verifyResponse(n *prop.Netlist, body []byte) (float64, error) {
	var res struct {
		CutCost float64 `json:"cut_cost"`
		Sides   []int   `json:"sides"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, err
	}
	sides := make([]uint8, len(res.Sides))
	for u, s := range res.Sides {
		if s != 0 && s != 1 {
			return 0, fmt.Errorf("sides[%d] = %d", u, s)
		}
		sides[u] = uint8(s)
	}
	return res.CutCost, verifyCut(n, sides, res.CutCost)
}
