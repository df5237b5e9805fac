package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prop"
	"prop/internal/jobs"
)

// testNetlistHGR renders a small deterministic netlist in .hgr form.
func testNetlistHGR(t *testing.T) string {
	t.Helper()
	n, err := prop.Generate(prop.GenParams{Nodes: 120, Nets: 140, Pins: 480, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := n.WriteHGR(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func newTestServer(t *testing.T) *httptest.Server {
	ts, _ := newTestServerConfig(t, serverConfig{})
	return ts
}

func newTestServerConfig(t *testing.T, cfg serverConfig) (*httptest.Server, *server) {
	t.Helper()
	if cfg.maxPar == 0 {
		cfg.maxPar = 2
	}
	if cfg.defTimeout == 0 {
		cfg.defTimeout = 30 * time.Second
	}
	// The nil logger discards; the handler() wrapper keeps the logging
	// middleware and run-ID propagation on the tested path.
	s, err := newServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	// Close the serving core first: it cancels in-flight jobs, which
	// unblocks any streaming handlers the httptest close waits on.
	t.Cleanup(func() { s.close(); ts.Close() })
	return ts, s
}

// jobResult decodes a finished job's raw result payload (nil when absent).
func jobResult(t *testing.T, j jobView) *partitionResponse {
	t.Helper()
	if len(j.Result) == 0 {
		return nil
	}
	var pr partitionResponse
	if err := json.Unmarshal(j.Result, &pr); err != nil {
		t.Fatal(err)
	}
	return &pr
}

func postHGR(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPartitionEndpointHGR(t *testing.T) {
	ts := newTestServer(t)
	hgr := testNetlistHGR(t)
	resp := postHGR(t, ts.URL+"/v1/partition?algo=prop&runs=4&seed=1", hgr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	pr := decodeBody[partitionResponse](t, resp)
	if pr.Algorithm != "prop" || pr.K != 2 || pr.Runs != 4 {
		t.Errorf("response meta = %+v", pr)
	}
	if len(pr.Sides) != 120 {
		t.Fatalf("sides len %d, want 120", len(pr.Sides))
	}
	if pr.CutNets <= 0 || pr.CutCost <= 0 {
		t.Errorf("degenerate cut: %+v", pr)
	}

	// The service must agree with the library for the same seed.
	n, err := prop.Generate(prop.GenParams{Nodes: 120, Nets: 140, Pins: 480, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoPROP, Runs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pr.CutCost != want.CutCost || pr.CutNets != want.CutNets {
		t.Errorf("service cut (%g, %d) != library cut (%g, %d)",
			pr.CutCost, pr.CutNets, want.CutCost, want.CutNets)
	}
}

func TestPartitionEndpointJSON(t *testing.T) {
	ts := newTestServer(t)
	n, err := prop.Generate(prop.GenParams{Nodes: 80, Nets: 100, Pins: 330, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/partition?algo=fm&runs=2", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	pr := decodeBody[partitionResponse](t, resp)
	if pr.Algorithm != "fm" || len(pr.Sides) != 80 {
		t.Errorf("response = %+v", pr)
	}
}

func TestPartitionEndpointKWay(t *testing.T) {
	ts := newTestServer(t)
	hgr := testNetlistHGR(t)
	resp := postHGR(t, ts.URL+"/v1/partition?algo=fm&runs=2&k=4", hgr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	pr := decodeBody[partitionResponse](t, resp)
	if pr.K != 4 || len(pr.Parts) != 120 || len(pr.PartWeights) != 4 {
		t.Errorf("k-way response = %+v", pr)
	}
	if len(pr.Sides) != 0 {
		t.Errorf("k-way response carries 2-way sides")
	}
	resp = postHGR(t, ts.URL+"/v1/partition?algo=ml-prop&k=4", hgr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ml-prop k=4 status %d", resp.StatusCode)
	}
	if pr := decodeBody[partitionResponse](t, resp); pr.K != 4 || len(pr.PartWeights) != 4 {
		t.Errorf("ml-prop k-way response = %+v", pr)
	}
	resp = postHGR(t, ts.URL+"/v1/partition?runs=2&k=3", hgr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("k=3 status %d", resp.StatusCode)
	}
	if pr := decodeBody[partitionResponse](t, resp); pr.K != 3 || len(pr.Parts) != 120 || len(pr.PartWeights) != 3 {
		t.Errorf("k=3 response = %+v", pr)
	}
}

func TestPartitionEndpointErrors(t *testing.T) {
	ts := newTestServer(t)
	hgr := testNetlistHGR(t)
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"malformed netlist", "/v1/partition", "not a netlist", http.StatusBadRequest},
		{"bad runs", "/v1/partition?runs=0", hgr, http.StatusBadRequest},
		{"bad runs syntax", "/v1/partition?runs=abc", hgr, http.StatusBadRequest},
		{"bad k", "/v1/partition?k=1", hgr, http.StatusBadRequest},
		{"unknown algo", "/v1/partition?algo=nosuch", hgr, http.StatusBadRequest},
		{"k above the node count", "/v1/partition?k=121", hgr, http.StatusUnprocessableEntity},
		// A bad window is a bad query value, like every other one.
		{"asymmetric balance", "/v1/partition?r1=0.3&r2=0.6", hgr, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postHGR(t, ts.URL+c.url, c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// The window is checked before the body is read: a malformed netlist
	// under a bad window is reported as the window.
	resp := postHGR(t, ts.URL+"/v1/partition?r1=0.7&r2=0.3", "not a netlist")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "r1/r2") {
		t.Errorf("bad window with a malformed body: status %d, body %s", resp.StatusCode, body)
	}
}

// TestPartitionEndpointNLevelMode: ?mode= selects the ml-prop hierarchy
// style, agrees with the library, and is validated (unknown mode and mode
// on a non-multilevel algo are both client errors).
func TestPartitionEndpointNLevelMode(t *testing.T) {
	ts := newTestServer(t)
	hgr := testNetlistHGR(t)
	resp := postHGR(t, ts.URL+"/v1/partition?algo=ml-prop&mode=nlevel&seed=3", hgr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	pr := decodeBody[partitionResponse](t, resp)
	if pr.Algorithm != "ml-prop" || len(pr.Sides) != 120 {
		t.Errorf("response meta = %+v", pr)
	}
	n, err := prop.Generate(prop.GenParams{Nodes: 120, Nets: 140, Pins: 480, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := prop.Partition(n, prop.Options{
		Algorithm: prop.AlgoMLPROP, Seed: 3, ML: &prop.MLParams{Mode: "nlevel"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr.CutCost != want.CutCost || pr.CutNets != want.CutNets {
		t.Errorf("service nlevel cut (%g, %d) != library cut (%g, %d)",
			pr.CutCost, pr.CutNets, want.CutCost, want.CutNets)
	}
	for _, bad := range []string{
		"/v1/partition?algo=ml-prop&mode=zlevel",
		"/v1/partition?algo=prop&mode=nlevel",
	} {
		resp := postHGR(t, ts.URL+bad, hgr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decodeBody[map[string][]map[string]any](t, resp)
	algos := body["algorithms"]
	if len(algos) != len(prop.Algorithms()) {
		t.Fatalf("%d algorithms listed, want %d", len(algos), len(prop.Algorithms()))
	}
	moveEngines := 0
	seenFlow := false
	for _, a := range algos {
		if a["name"] == "" || a["description"] == "" {
			t.Errorf("incomplete entry %v", a)
		}
		if me, _ := a["move_engine"].(bool); me {
			moveEngines++
		}
		if a["name"] == "flow" {
			seenFlow = true
			if me, _ := a["move_engine"].(bool); me {
				t.Error("flow advertised as a move engine")
			}
			if ms, _ := a["multi_start"].(bool); !ms {
				t.Error("flow not advertised as multi-start")
			}
		}
	}
	if moveEngines != 6 {
		t.Errorf("%d move-engine algorithms, want 6 (prop, fm, fm-tree, la, kl, sk)", moveEngines)
	}
	if !seenFlow {
		t.Error("flow missing from the advertised feature matrix")
	}
}

// TestPartitionEndpointFlow serves ?algo=flow and checks the polish
// contract over the wire: for identical runs/seed, flow's cut is never
// worse than PROP's.
func TestPartitionEndpointFlow(t *testing.T) {
	ts := newTestServer(t)
	hgr := testNetlistHGR(t)
	flowResp := postHGR(t, ts.URL+"/v1/partition?algo=flow&runs=2&seed=3", hgr)
	if flowResp.StatusCode != http.StatusOK {
		t.Fatalf("flow status %d", flowResp.StatusCode)
	}
	fr := decodeBody[partitionResponse](t, flowResp)
	if fr.Algorithm != "flow" || fr.K != 2 || len(fr.Sides) != 120 {
		t.Errorf("flow response meta = %+v", fr)
	}
	propResp := postHGR(t, ts.URL+"/v1/partition?algo=prop&runs=2&seed=3", hgr)
	if propResp.StatusCode != http.StatusOK {
		t.Fatalf("prop status %d", propResp.StatusCode)
	}
	pr := decodeBody[partitionResponse](t, propResp)
	if fr.CutCost > pr.CutCost {
		t.Errorf("flow cut %g worse than PROP cut %g on the same portfolio", fr.CutCost, pr.CutCost)
	}
}

// TestPartitionEndpointFlowKWay: algo=flow recurses like every other
// bisection algorithm, so ?k=4 answers 200 with four parts.
func TestPartitionEndpointFlowKWay(t *testing.T) {
	ts := newTestServer(t)
	resp := postHGR(t, ts.URL+"/v1/partition?algo=flow&runs=2&k=4", testNetlistHGR(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if pr := decodeBody[partitionResponse](t, resp); pr.K != 4 || len(pr.Parts) != 120 || len(pr.PartWeights) != 4 {
		t.Errorf("flow k-way response = %+v", pr)
	}
}

func TestJobLifecycle(t *testing.T) {
	ts := newTestServer(t)
	hgr := testNetlistHGR(t)
	resp := postHGR(t, ts.URL+"/v1/jobs?algo=prop&runs=2&seed=3", hgr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	sub := decodeBody[map[string]string](t, resp)
	id := sub["id"]
	if id == "" {
		t.Fatal("no job id")
	}

	deadline := time.Now().Add(30 * time.Second)
	var final jobView
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish; last state %q", id, final.State)
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		final = decodeBody[jobView](t, r)
		if final.State == jobs.Done || final.State == jobs.Failed {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.State != jobs.Done {
		t.Fatalf("job state %q, error %q", final.State, final.Error)
	}
	if res := jobResult(t, final); res == nil || len(res.Sides) != 120 {
		t.Fatalf("job result = %+v", res)
	}
}

func TestJobNotFound(t *testing.T) {
	ts := newTestServer(t)
	r, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", r.StatusCode)
	}
}

func TestJobCancel(t *testing.T) {
	ts := newTestServer(t)
	// A large many-run job so cancellation lands while it is running.
	n, err := prop.Generate(prop.GenParams{Nodes: 3000, Nets: 3300, Pins: 11000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := n.WriteHGR(&sb); err != nil {
		t.Fatal(err)
	}
	resp := postHGR(t, ts.URL+"/v1/jobs?algo=prop&runs=500", sb.String())
	sub := decodeBody[map[string]string](t, resp)
	id := sub["id"]

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job did not settle after cancel")
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decodeBody[jobView](t, r)
		if j.State == jobs.Cancelled {
			break
		}
		if j.State == jobs.Done || j.State == jobs.Failed {
			// The job may have won the race; that's acceptable only if it
			// truly completed before the cancel arrived.
			t.Logf("job finished before cancel: %q", j.State)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	h := decodeBody[map[string]any](t, r)
	if h["status"] != "ok" {
		t.Errorf("healthz = %v", h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	hgr := testNetlistHGR(t)
	for i := 0; i < 3; i++ {
		resp := postHGR(t, fmt.Sprintf("%s/v1/partition?algo=fm&runs=2&seed=%d", ts.URL, i), hgr)
		resp.Body.Close()
	}
	r, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeBody[map[string]any](t, r)
	if m["partitions_total"] != float64(3) {
		t.Errorf("partitions_total = %v, want 3", m["partitions_total"])
	}
	if m["runs_completed_total"] != float64(6) {
		t.Errorf("runs_completed_total = %v, want 6", m["runs_completed_total"])
	}
	hist, ok := m["cut_nets"].(map[string]any)
	if !ok || hist["count"] != float64(3) {
		t.Errorf("cut_nets histogram = %v", m["cut_nets"])
	}
	passes, ok := m["passes_per_run"].(map[string]any)
	if !ok || passes["count"] != float64(6) {
		t.Errorf("passes_per_run histogram = %v", m["passes_per_run"])
	}
	lat, ok := m["partition_latency"].(map[string]any)
	if !ok || lat["count"] != float64(3) {
		t.Errorf("partition_latency = %v", m["partition_latency"])
	}
}

func TestMetricsEndpointPrometheus(t *testing.T) {
	ts := newTestServer(t)
	hgr := testNetlistHGR(t)
	resp := postHGR(t, ts.URL+"/v1/partition?algo=prop&runs=2&seed=1", hgr)
	resp.Body.Close()

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content-type = %q", ct)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, r.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"# TYPE partitions_total counter\npartitions_total 1\n",
		"# TYPE runs_completed_total counter\nruns_completed_total 2\n",
		"# TYPE passes_per_run histogram\n",
		`passes_per_run_bucket{le="+Inf"} 2`,
		"# TYPE cut_improvement_pct gauge\n",
		"# TYPE partition_latency summary\n",
		`partition_latency{quantile="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics output:\n%s", want, body)
		}
	}
}

func TestPprofEndpoint(t *testing.T) {
	ts := newTestServer(t)
	r, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", r.StatusCode)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, r.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "goroutine") {
		t.Errorf("pprof index does not list profiles")
	}
}

func TestJobTrace(t *testing.T) {
	ts := newTestServer(t)
	hgr := testNetlistHGR(t)
	resp := postHGR(t, ts.URL+"/v1/jobs?algo=prop&runs=2&seed=3&trace=pass", hgr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	sub := decodeBody[map[string]string](t, resp)
	id := sub["id"]

	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("traced job did not finish")
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decodeBody[jobView](t, r)
		if j.State == jobs.Done {
			break
		}
		if j.State == jobs.Failed || j.State == jobs.Cancelled {
			t.Fatalf("job state %q, error %q", j.State, j.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}

	r, err := http.Get(ts.URL + "/debug/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content-type = %q", ct)
	}
	kinds := map[string]int{}
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		kind, _ := ev["ev"].(string)
		kinds[kind]++
		if id2, ok := ev["id"].(string); ok && id2 != id {
			t.Errorf("trace event labeled %q, want job id %q", id2, id)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if kinds["run_start"] != 2 || kinds["run_end"] != 2 {
		t.Errorf("run span counts = %v, want 2 run_start + 2 run_end", kinds)
	}
	if kinds["pass"] == 0 {
		t.Errorf("no pass events in trace: %v", kinds)
	}

	// An untraced job must 404 on the trace endpoint.
	resp = postHGR(t, ts.URL+"/v1/jobs?algo=fm&runs=1", hgr)
	sub = decodeBody[map[string]string](t, resp)
	r2, err := http.Get(ts.URL + "/debug/trace/" + sub["id"])
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("untraced job trace status %d, want 404", r2.StatusCode)
	}
}

func TestPartitionCacheHitIsByteIdentical(t *testing.T) {
	ts, s := newTestServerConfig(t, serverConfig{})
	hgr := testNetlistHGR(t)
	url := ts.URL + "/v1/partition?algo=prop&runs=3&seed=5"

	read := func(resp *http.Response) (string, string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return sb.String(), resp.Header.Get("X-Cache")
	}

	body1, xc1 := read(postHGR(t, url, hgr))
	if xc1 != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", xc1)
	}
	body2, xc2 := read(postHGR(t, url, hgr))
	if xc2 != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", xc2)
	}
	if body1 != body2 {
		t.Errorf("cache hit payload differs from populating miss:\n%s\nvs\n%s", body1, body2)
	}
	if h, m := s.results.Hits(), s.results.Misses(); h != 1 || m != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", h, m)
	}

	// A different seed is a different fingerprint — and a different par
	// (excluded from the fingerprint by design) is not.
	_, xc3 := read(postHGR(t, ts.URL+"/v1/partition?algo=prop&runs=3&seed=6", hgr))
	if xc3 != "miss" {
		t.Errorf("different seed X-Cache = %q, want miss", xc3)
	}
	body4, xc4 := read(postHGR(t, url+"&par=1", hgr))
	if xc4 != "hit" || body4 != body1 {
		t.Errorf("par-only change X-Cache = %q (want hit), payload identical = %t", xc4, body4 == body1)
	}
}

func TestJobQueueFullReturns429(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{maxJobs: 1})
	n, err := prop.Generate(prop.GenParams{Nodes: 3000, Nets: 3300, Pins: 11000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := n.WriteHGR(&sb); err != nil {
		t.Fatal(err)
	}
	// Fill the single slot with a long-running job.
	resp := postHGR(t, ts.URL+"/v1/jobs?algo=prop&runs=500", sb.String())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	sub := decodeBody[map[string]string](t, resp)

	resp2 := postHGR(t, ts.URL+"/v1/jobs?algo=prop&runs=2", sb.String())
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}

	// Cancelling the in-flight job frees the slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub["id"], nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after cancel")
		}
		r3 := postHGR(t, ts.URL+"/v1/jobs?algo=fm&runs=1", testNetlistHGR(t))
		r3.Body.Close()
		if r3.StatusCode == http.StatusAccepted {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitJobDone polls until the job reaches a terminal state.
func waitJobDone(t *testing.T, baseURL, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", id)
		}
		r, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decodeBody[jobView](t, r)
		if j.State.Terminal() {
			return j
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func submitJob(t *testing.T, url, body string) string {
	t.Helper()
	resp := postHGR(t, url, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	return decodeBody[map[string]string](t, resp)["id"]
}

func TestJobHistoryEviction(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{jobHistory: 1})
	hgr := testNetlistHGR(t)
	id1 := submitJob(t, ts.URL+"/v1/jobs?algo=fm&runs=1", hgr)
	waitJobDone(t, ts.URL, id1)
	id2 := submitJob(t, ts.URL+"/v1/jobs?algo=fm&runs=1", hgr)
	waitJobDone(t, ts.URL, id2)

	// Two terminal jobs against a history of one: the older is evicted.
	r, err := http.Get(ts.URL + "/v1/jobs/" + id1)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job status %d, want 404", r.StatusCode)
	}
	r2, err := http.Get(ts.URL + "/v1/jobs/" + id2)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Errorf("retained job status %d, want 200", r2.StatusCode)
	}
}

func TestJobTTLEviction(t *testing.T) {
	// A switchable clock: real time while the job runs, then jumped past
	// the TTL to trigger eviction without sleeping.
	var clockMu sync.Mutex
	offset := time.Duration(0)
	cfg := serverConfig{jobTTL: time.Minute, now: func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return time.Now().Add(offset)
	}}
	ts, _ := newTestServerConfig(t, cfg)
	hgr := testNetlistHGR(t)
	id := submitJob(t, ts.URL+"/v1/jobs?algo=fm&runs=1", hgr)
	waitJobDone(t, ts.URL, id)

	// Advance the store's clock past the TTL instead of sleeping.
	clockMu.Lock()
	offset = 2 * time.Minute
	clockMu.Unlock()
	r, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("expired job status %d, want 404", r.StatusCode)
	}
}

// repartitionBody builds the inline /v1/repartition request body.
func repartitionBody(t *testing.T, n *prop.Netlist, sides []uint8, d *prop.Delta) []byte {
	t.Helper()
	var nl bytes.Buffer
	if err := n.WriteJSON(&nl); err != nil {
		t.Fatal(err)
	}
	intSides := make([]int, len(sides))
	for u, s := range sides {
		intSides[u] = int(s)
	}
	body, err := json.Marshal(map[string]any{
		"netlist": json.RawMessage(nl.Bytes()),
		"sides":   intSides,
		"delta":   d,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestRepartitionEndpoint(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{})
	n, err := prop.Generate(prop.GenParams{Nodes: 120, Nets: 140, Pins: 480, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := prop.Partition(n, prop.Options{Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := &prop.Delta{
		AddNodes: []prop.DeltaNodeAdd{{Name: "eco0", Weight: 1}},
		AddNets:  []prop.DeltaNetAdd{{Name: "econet0", Cost: 1, Pins: []int{0, 1, n.NumNodes()}}},
	}
	body := repartitionBody(t, n, prev.Sides, d)
	resp, err := http.Post(ts.URL+"/v1/repartition?runs=1&seed=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	rr := decodeBody[repartitionResponse](t, resp)
	if len(rr.Sides) != n.NumNodes()+1 {
		t.Fatalf("sides len %d, want %d", len(rr.Sides), n.NumNodes()+1)
	}
	if !rr.DeltaStructural || rr.DeltaNewNodes != n.NumNodes()+1 {
		t.Errorf("delta info = structural %t, nodes %d", rr.DeltaStructural, rr.DeltaNewNodes)
	}
	if rr.CutCost <= 0 || rr.CutNets <= 0 {
		t.Errorf("degenerate warm cut: %+v", rr.partitionResponse)
	}
}

func TestRepartitionFromBaseJob(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{})
	hgr := testNetlistHGR(t)
	id := submitJob(t, ts.URL+"/v1/jobs?algo=prop&runs=2&seed=3", hgr)
	if j := waitJobDone(t, ts.URL, id); j.State != jobs.Done {
		t.Fatalf("base job state %q", j.State)
	}
	d := &prop.Delta{Recost: []prop.DeltaNetCost{{Net: 0, Cost: 3}}}
	body, err := json.Marshal(map[string]any{"base_job": id, "delta": d})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/repartition?runs=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	rr := decodeBody[repartitionResponse](t, resp)
	if len(rr.Sides) != 120 || rr.DeltaStructural {
		t.Errorf("base-job repartition = %d sides, structural %t", len(rr.Sides), rr.DeltaStructural)
	}
}

func TestRepartitionErrors(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{})
	postQuery := func(query, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/repartition"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(body string) int { t.Helper(); return postQuery("", body) }
	if got := post(`{"base_job": "j9", "delta": {}}`); got != http.StatusNotFound {
		t.Errorf("unknown base job status %d, want 404", got)
	}
	if got := post(`{"base_job": "j9"}`); got != http.StatusBadRequest {
		t.Errorf("missing delta status %d, want 400", got)
	}
	if got := post(`not json`); got != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", got)
	}
	if got := post(`{"delta": {}}`); got != http.StatusBadRequest {
		t.Errorf("missing base status %d, want 400", got)
	}
	// A valid body under k ≠ 2 is refused, not silently bisected.
	n, err := prop.Generate(prop.GenParams{Nodes: 120, Nets: 140, Pins: 480, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := prop.Partition(n, prop.Options{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	body := repartitionBody(t, n, prev.Sides, &prop.Delta{Recost: []prop.DeltaNetCost{{Net: 0, Cost: 3}}})
	if got := postQuery("?runs=1", string(body)); got != http.StatusOK {
		t.Errorf("k=2 status %d, want 200", got)
	}
	if got := postQuery("?runs=1&k=4", string(body)); got != http.StatusBadRequest {
		t.Errorf("k=4 status %d, want 400", got)
	}
}

func TestTimeoutReturns504(t *testing.T) {
	ts := newTestServer(t)
	n, err := prop.Generate(prop.GenParams{Nodes: 4000, Nets: 4400, Pins: 15000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := n.WriteHGR(&sb); err != nil {
		t.Fatal(err)
	}
	resp := postHGR(t, ts.URL+"/v1/partition?algo=prop&runs=1000&timeout_ms=50", sb.String())
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}
}

// TestPartitionHugeLADepthIs422: a lookahead depth far past the deepest
// exact LA key must be rejected before LA sizes its vector arena from the
// overflowing n·K product. The request fails with 422 instead of panicking
// inside a portfolio worker, and the server keeps serving.
func TestPartitionHugeLADepthIs422(t *testing.T) {
	ts := newTestServer(t)
	resp := postHGR(t, ts.URL+"/v1/partition?algo=la&la=4611686018427387904&runs=4", testNetlistHGR(t))
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status %d, want 422", resp.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz after the rejected request: status %d, want 200", hr.StatusCode)
	}
}

// TestLegacyJournalAndQueryCompat: journals and clients from before the
// per-run move-worker knob was removed keep working. A journaled pending
// job whose query still carries that parameter replays to the plain PROP
// result, and a live request carrying it is answered as if it were absent
// — same cut, same sides, same result-cache entry.
func TestLegacyJournalAndQueryCompat(t *testing.T) {
	const legacyQuery = "algo=prop&runs=2&seed=3&move_workers=4"
	hgr := testNetlistHGR(t)
	n, err := prop.ReadHGR(strings.NewReader(hgr))
	if err != nil {
		t.Fatal(err)
	}
	want, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoPROP, Runs: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkSides := func(what string, cut float64, sides []int) {
		t.Helper()
		if cut != want.CutCost || len(sides) != len(want.Sides) {
			t.Fatalf("%s: cut %g over %d sides, want %g over %d", what, cut, len(sides), want.CutCost, len(want.Sides))
		}
		for u, s := range want.Sides {
			if sides[u] != int(s) {
				t.Fatalf("%s: side[%d] = %d, want %d", what, u, sides[u], s)
			}
		}
	}

	dir := filepath.Join(t.TempDir(), "journal")
	store, _, err := jobs.Open(jobs.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(jobPayload{
		Kind: kindPartition, Query: legacyQuery,
		ContentType: "text/plain", Body: []byte(hgr),
	})
	if err != nil {
		t.Fatal(err)
	}
	pending, err := store.Submit(defaultTenant, raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	ts, _ := newTestServerConfig(t, serverConfig{journalDir: dir})
	j := waitJobDone(t, ts.URL, pending.ID)
	if j.State != jobs.Done {
		t.Fatalf("replayed job state %q, error %q", j.State, j.Error)
	}
	res := jobResult(t, j)
	if res == nil {
		t.Fatal("replayed job has no result")
	}
	checkSides("replayed job", res.CutCost, res.Sides)

	resp := postHGR(t, ts.URL+"/v1/partition?"+legacyQuery, hgr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live legacy request: status %d", resp.StatusCode)
	}
	pr := decodeBody[partitionResponse](t, resp)
	checkSides("live legacy request", pr.CutCost, pr.Sides)

	resp = postHGR(t, ts.URL+"/v1/partition?algo=prop&runs=2&seed=3", hgr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live request without the legacy parameter: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("request without the legacy parameter: X-Cache %q, want hit", got)
	}
	pr = decodeBody[partitionResponse](t, resp)
	checkSides("live request without the legacy parameter", pr.CutCost, pr.Sides)
}

// TestJobProgressAdvances polls a long-running job and requires the live
// progress snapshot in GET /v1/jobs/{id} to move (phase, run, pass, or
// best cut) before the job completes, and /debug/runs to list the job
// while it is in flight.
func TestJobProgressAdvances(t *testing.T) {
	ts := newTestServer(t)
	// A large many-run job so several polls land while it is running.
	n, err := prop.Generate(prop.GenParams{Nodes: 3000, Nets: 3300, Pins: 11000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := n.WriteHGR(&sb); err != nil {
		t.Fatal(err)
	}
	resp := postHGR(t, ts.URL+"/v1/jobs?algo=prop&runs=500", sb.String())
	id := decodeBody[map[string]string](t, resp)["id"]

	type view struct {
		phase     string
		run, pass int
		cut       float64
	}
	seen := map[view]bool{}
	sawDebugRuns := false
	deadline := time.Now().Add(30 * time.Second)
	for len(seen) < 2 || !sawDebugRuns {
		if time.Now().After(deadline) {
			t.Fatalf("progress did not advance: %d distinct snapshots, /debug/runs listed=%v",
				len(seen), sawDebugRuns)
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decodeBody[jobView](t, r)
		if j.State.Terminal() {
			t.Fatalf("job reached %q with only %d distinct progress snapshots", j.State, len(seen))
		}
		if j.State == jobs.Running {
			if j.Progress == nil {
				t.Fatal("running job has no progress snapshot")
			}
			v := view{phase: j.Progress.Phase, run: j.Progress.Run, pass: j.Progress.Pass}
			if j.Progress.BestCut != nil {
				v.cut = *j.Progress.BestCut
			}
			seen[v] = true

			dr, err := http.Get(ts.URL + "/debug/runs")
			if err != nil {
				t.Fatal(err)
			}
			runs := decodeBody[map[string][]jobView](t, dr)["runs"]
			for _, rj := range runs {
				if rj.ID == id && rj.Progress != nil {
					sawDebugRuns = true
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The engine reported at least one named phase along the way.
	named := false
	for v := range seen {
		if v.phase != "" {
			named = true
		}
	}
	if !named {
		t.Errorf("no progress snapshot named a phase: %v", seen)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()

	// Once terminal, the snapshot drops progress (the result supersedes it).
	for {
		if time.Now().After(deadline) {
			t.Fatal("job did not settle after cancel")
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decodeBody[jobView](t, r)
		if j.State.Terminal() {
			if j.Progress != nil {
				t.Errorf("terminal job still carries progress: %+v", j.Progress)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDebugRunsEmpty(t *testing.T) {
	ts := newTestServer(t)
	r, err := http.Get(ts.URL + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	runs := decodeBody[map[string][]jobView](t, r)["runs"]
	if len(runs) != 0 {
		t.Errorf("idle /debug/runs = %+v", runs)
	}
}

// TestPhaseDurationMetrics checks that engine phase spans land in the
// phase_duration_ms histogram family — for a plain sync request (discard
// tracer) and in both export formats.
func TestPhaseDurationMetrics(t *testing.T) {
	ts := newTestServer(t)
	hgr := testNetlistHGR(t)
	resp := postHGR(t, ts.URL+"/v1/partition?algo=prop&runs=2&seed=1", hgr)
	resp.Body.Close()

	r, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeBody[map[string]any](t, r)
	fam, ok := m["phase_duration_ms"].(map[string]any)
	if !ok {
		t.Fatalf("phase_duration_ms = %v", m["phase_duration_ms"])
	}
	// Every portfolio run dispatches through the "prop" refine phase.
	child, ok := fam["prop"].(map[string]any)
	if !ok || child["count"] != float64(2) {
		t.Errorf("phase_duration_ms[prop] = %v", fam["prop"])
	}

	pr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, pr.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"# TYPE phase_duration_ms histogram\n",
		`phase_duration_ms_bucket{phase="prop",le="+Inf"} 2`,
		`phase_duration_ms_count{phase="prop"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics output:\n%s", want, body)
		}
	}
}

// TestRepartitionPhaseMetrics checks that a sync /v1/repartition feeds
// phase_duration_ms like the other compute paths: its warm PROP run and
// its polish rounds both land in the histogram family.
func TestRepartitionPhaseMetrics(t *testing.T) {
	ts := newTestServer(t)
	n, err := prop.Generate(prop.GenParams{Nodes: 120, Nets: 140, Pins: 480, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := prop.Partition(n, prop.Options{Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := &prop.Delta{Recost: []prop.DeltaNetCost{{Net: 0, Cost: 3}}}
	resp, err := http.Post(ts.URL+"/v1/repartition?runs=1&seed=1", "application/json",
		bytes.NewReader(repartitionBody(t, n, prev.Sides, d)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	resp.Body.Close()

	r, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeBody[map[string]any](t, r)
	fam, _ := m["phase_duration_ms"].(map[string]any)
	for _, phase := range []string{"prop", "polish"} {
		child, ok := fam[phase].(map[string]any)
		if count, _ := child["count"].(float64); !ok || count < 1 {
			t.Errorf("phase_duration_ms[%s] = %v, want count >= 1", phase, fam[phase])
		}
	}
}

// syncWriter serializes writes from the server's logging goroutines.
type syncWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// TestJobCompletionLogAndSlowRun pins the enriched completion log line
// (algo, passes) and the -slow-run warning.
func TestJobCompletionLogAndSlowRun(t *testing.T) {
	var lw syncWriter
	logger := slog.New(slog.NewTextHandler(&lw, nil))
	s, err := newServer(serverConfig{maxPar: 2, defTimeout: 30 * time.Second, slowRun: time.Nanosecond}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() { s.close(); ts.Close() })

	hgr := testNetlistHGR(t)
	resp := postHGR(t, ts.URL+"/v1/jobs?algo=prop&runs=2&seed=3", hgr)
	id := decodeBody[map[string]string](t, resp)["id"]
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decodeBody[jobView](t, r)
		if j.State == jobs.Done {
			if res := jobResult(t, j); res == nil || res.Passes <= 0 {
				t.Errorf("done job result = %+v, want passes > 0", res)
			}
			break
		}
		if j.State.Terminal() {
			t.Fatalf("job state %q, error %q", j.State, j.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	logs := lw.String()
	for _, want := range []string{
		"algo=prop", "passes=",
		"msg=\"slow run\"", "threshold_ms=",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("completion log missing %q in:\n%s", want, logs)
		}
	}
}
