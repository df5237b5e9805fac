package main

// Tests for the scale-out serving layer: streaming /v1/batch, tenant
// quotas and listings, request body limits, graceful drain, and journal
// persistence across an in-process restart. The process-level SIGKILL
// crash-recovery test lives in crash_test.go.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prop"
	"prop/internal/jobs"
)

// netlistJSON renders a deterministic netlist in the JSON netlist format.
func netlistJSON(t *testing.T, nodes, nets, pins int, seed int64) []byte {
	t.Helper()
	n, err := prop.Generate(prop.GenParams{Nodes: nodes, Nets: nets, Pins: pins, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postTenant posts a body with an X-Tenant header.
func postTenant(t *testing.T, url, tenant, contentType string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBatchStreamingFlushAndMixedLines drives /v1/batch with one invalid
// item, one quick item, and one long item on a single scheduler worker.
// The invalid item's error line and the quick item's success line must
// arrive while the long item is still in flight — proof of per-line
// flushing — and cancelling the long job mid-stream yields its error
// line and a clean end of stream.
func TestBatchStreamingFlushAndMixedLines(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{schedWorkers: 1})
	small := netlistJSON(t, 120, 140, 480, 7)
	big := netlistJSON(t, 3000, 3300, 11000, 11)

	body, err := json.Marshal(map[string]any{"items": []map[string]any{
		{}, // neither netlist nor delta: immediate error line
		{"netlist": json.RawMessage(small)},
		{"netlist": json.RawMessage(big)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch?algo=prop&runs=300&seed=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content-type %q", ct)
	}
	rd := bufio.NewReader(resp.Body)
	readLine := func() batchLine {
		t.Helper()
		raw, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream read: %v (got %q)", err, raw)
		}
		var line batchLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("bad line %q: %v", raw, err)
		}
		return line
	}

	// Line 1: the malformed item, refused before becoming a job.
	l1 := readLine()
	if l1.Index != 0 || l1.OK || l1.Error == "" || l1.Job != "" {
		t.Fatalf("line 1 = %+v, want index 0 rejection", l1)
	}
	// Line 2: the quick item — its arrival proves the server flushed
	// while the big item was still queued or running behind it.
	l2 := readLine()
	if l2.Index != 1 || !l2.OK || l2.Job == "" {
		t.Fatalf("line 2 = %+v, want index 1 success", l2)
	}
	var pr partitionResponse
	if err := json.Unmarshal(l2.Result, &pr); err != nil || len(pr.Sides) != 120 {
		t.Fatalf("line 2 result = %s (err %v)", l2.Result, err)
	}

	// The long item is not done yet (single worker, 300 runs on 3000
	// nodes): find it and cancel it mid-stream.
	lr, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var inflight string
	for _, v := range decodeBody[map[string][]jobView](t, lr)["jobs"] {
		if !v.State.Terminal() {
			inflight = v.ID
		}
	}
	if inflight == "" {
		t.Fatal("long batch item already terminal; cannot exercise mid-stream cancel")
	}
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+inflight, nil)
	dr, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()

	l3 := readLine()
	if l3.Index != 2 || l3.OK || l3.Job != inflight {
		t.Fatalf("line 3 = %+v, want cancelled index 2 job %s", l3, inflight)
	}
	if _, err := rd.ReadBytes('\n'); err != io.EOF {
		t.Fatalf("stream did not end after final line: %v", err)
	}
}

// TestBatchDisconnectCancelsJobs aborts the batch request mid-stream and
// requires every accepted item to reach the cancelled state.
func TestBatchDisconnectCancelsJobs(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{schedWorkers: 1})
	big := netlistJSON(t, 3000, 3300, 11000, 11)
	body, err := json.Marshal(map[string]any{"items": []map[string]any{
		{"netlist": json.RawMessage(big)},
		{"netlist": json.RawMessage(big)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelReq := context.WithCancel(context.Background())
	defer cancelReq()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/batch?algo=prop&runs=1000&seed=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Both items are accepted (the handler submits before writing the
	// headers we already received); drop the connection.
	cancelReq()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("batch jobs did not settle after client disconnect")
		}
		lr, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		views := decodeBody[map[string][]jobView](t, lr)["jobs"]
		terminal := 0
		for _, v := range views {
			if v.State == jobs.Done {
				t.Fatalf("job %s completed despite disconnect cancel", v.ID)
			}
			if v.State.Terminal() {
				terminal++
			}
		}
		if len(views) == 2 && terminal == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOversizedBodyReturns413 pins the -max-body limit on every POST
// surface: oversized netlists and batch payloads answer 413 with a JSON
// error, not a hung parse or a 400.
func TestOversizedBodyReturns413(t *testing.T) {
	small := netlistJSON(t, 30, 30, 90, 3)
	limit := int64(len(small) + 256)
	ts, _ := newTestServerConfig(t, serverConfig{maxBody: limit})
	oversized := netlistJSON(t, 1500, 1600, 5000, 3) // far past the limit
	for _, path := range []string{"/v1/partition", "/v1/jobs", "/v1/batch", "/v1/repartition"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(oversized))
		if err != nil {
			t.Fatal(err)
		}
		got := decodeBody[map[string]string](t, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (%v)", path, resp.StatusCode, got)
			continue
		}
		if !strings.Contains(got["error"], fmt.Sprint(limit)) {
			t.Errorf("%s: error %q does not name the limit %d", path, got["error"], limit)
		}
	}
	// Within the limit still works.
	resp, err := http.Post(ts.URL+"/v1/partition?runs=1", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("small body status %d, want 200", resp.StatusCode)
	}
}

// TestTenantQuota429 configures a one-token bucket and checks the quota
// is enforced per tenant: the second submission of one tenant is refused
// while another tenant's first sails through.
func TestTenantQuota429(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{tenantRate: 0.0001, tenantBurst: 1})
	small := netlistJSON(t, 30, 30, 90, 3)

	r1 := postTenant(t, ts.URL+"/v1/jobs?runs=1", "", "application/json", small)
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", r1.StatusCode)
	}
	r2 := postTenant(t, ts.URL+"/v1/jobs?runs=1", "", "application/json", small)
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status %d, want 429", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Error("quota 429 without Retry-After")
	}
	r3 := postTenant(t, ts.URL+"/v1/jobs?runs=1", "other", "application/json", small)
	r3.Body.Close()
	if r3.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant's first submit status %d, want 202", r3.StatusCode)
	}
	// Malformed tenant names are rejected outright.
	r4 := postTenant(t, ts.URL+"/v1/jobs?runs=1", "bad tenant!", "application/json", small)
	r4.Body.Close()
	if r4.StatusCode != http.StatusBadRequest {
		t.Errorf("bad tenant status %d, want 400", r4.StatusCode)
	}
}

// TestJobListByTenant submits jobs under several tenants and checks the
// ?tenant= filter, the tenant echo in views, and the per-tenant metric
// families.
func TestJobListByTenant(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{})
	small := netlistJSON(t, 30, 30, 90, 3)
	ids := map[string]string{}
	for _, tenant := range []string{"alpha", "beta", ""} {
		r := postTenant(t, ts.URL+"/v1/jobs?runs=1", tenant, "application/json", small)
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("submit for %q: status %d", tenant, r.StatusCode)
		}
		sub := decodeBody[map[string]string](t, r)
		ids[tenant] = sub["id"]
		waitJobDone(t, ts.URL, sub["id"])
	}

	lr, err := http.Get(ts.URL + "/v1/jobs?tenant=alpha")
	if err != nil {
		t.Fatal(err)
	}
	alpha := decodeBody[map[string][]jobView](t, lr)["jobs"]
	if len(alpha) != 1 || alpha[0].ID != ids["alpha"] || alpha[0].Tenant != "alpha" {
		t.Errorf("tenant=alpha listing = %+v", alpha)
	}
	lr2, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	all := decodeBody[map[string][]jobView](t, lr2)["jobs"]
	if len(all) != 3 {
		t.Errorf("full listing has %d jobs, want 3", len(all))
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mr.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`tenant_admitted_total{tenant="alpha"} 1`,
		`tenant_admitted_total{tenant="beta"} 1`,
		fmt.Sprintf(`tenant_admitted_total{tenant=%q} 1`, defaultTenant),
		`tenant_jobs_completed_total{tenant="alpha"} 1`,
		`tenant_queue_depth{tenant="alpha"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}
}

// TestDrainRefusesNewWorkAndFinishesInFlight starts a long job, begins a
// drain while it runs, and requires: 503 on new compute POSTs, 503 on
// healthz, the in-flight job carried to completion, and a cleanly closed
// journal.
func TestDrainRefusesNewWorkAndFinishesInFlight(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	ts, s := newTestServerConfig(t, serverConfig{journalDir: dir, schedWorkers: 1})
	big := netlistJSON(t, 3000, 3300, 11000, 11)
	r := postTenant(t, ts.URL+"/v1/jobs?algo=prop&runs=12&seed=1", "", "application/json", big)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", r.StatusCode)
	}
	id := decodeBody[map[string]string](t, r)["id"]

	s.beginDrain()
	small := netlistJSON(t, 30, 30, 90, 3)
	for _, path := range []string{"/v1/partition", "/v1/jobs", "/v1/batch", "/v1/repartition"} {
		dr, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(small))
		if err != nil {
			t.Fatal(err)
		}
		dr.Body.Close()
		if dr.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s during drain: status %d, want 503", path, dr.StatusCode)
		}
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[map[string]any](t, hr)
	if hr.StatusCode != http.StatusServiceUnavailable || h["status"] != "draining" {
		t.Errorf("healthz during drain = %d %v", hr.StatusCode, h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job finished — not cancelled — before the drain
	// returned, and its result is durable.
	j, ok := s.store.Get(id)
	if !ok || j.State != jobs.Done || len(j.Result) == 0 {
		t.Fatalf("drained job = %+v (found %t)", j, ok)
	}
}

// TestJournalPersistsAcrossRestart finishes a job on one server, closes
// it, and reopens the same journal under a fresh server: the job's result
// must be served byte-identically, and the restarted record must still
// work as a repartition base (netlist and sides reconstructed from the
// journal, not from process memory).
func TestJournalPersistsAcrossRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	ts1, s1 := newTestServerConfig(t, serverConfig{journalDir: dir})
	small := netlistJSON(t, 120, 140, 480, 7)
	r := postTenant(t, ts1.URL+"/v1/jobs?algo=prop&runs=2&seed=3", "acme", "application/json", small)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", r.StatusCode)
	}
	id := decodeBody[map[string]string](t, r)["id"]
	before := waitJobDone(t, ts1.URL, id)
	if before.State != jobs.Done {
		t.Fatalf("job state %q", before.State)
	}
	s1.close()

	ts2, _ := newTestServerConfig(t, serverConfig{journalDir: dir})
	jr, err := http.Get(ts2.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	after := decodeBody[jobView](t, jr)
	if after.State != jobs.Done || after.Tenant != "acme" {
		t.Fatalf("restarted job = %+v", after)
	}
	if !bytes.Equal(before.Result, after.Result) {
		t.Errorf("result changed across restart:\n%s\nvs\n%s", before.Result, after.Result)
	}

	// The restarted record still resolves as a repartition base.
	d := &prop.Delta{Recost: []prop.DeltaNetCost{{Net: 0, Cost: 3}}}
	body, err := json.Marshal(map[string]any{"base_job": id, "delta": d})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := http.Post(ts2.URL+"/v1/repartition?runs=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(rr.Body)
		t.Fatalf("repartition from restarted base: status %d: %s", rr.StatusCode, msg)
	}
}

// TestBatchRepartitionItems runs a mixed batch: a partition item and a
// delta item against an inline base, sharing the query knobs.
func TestBatchRepartitionItems(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{})
	n, err := prop.Generate(prop.GenParams{Nodes: 120, Nets: 140, Pins: 480, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := prop.Partition(n, prop.Options{Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var nl bytes.Buffer
	if err := n.WriteJSON(&nl); err != nil {
		t.Fatal(err)
	}
	intSides := make([]int, len(prev.Sides))
	for u, sd := range prev.Sides {
		intSides[u] = int(sd)
	}
	body, err := json.Marshal(map[string]any{"items": []map[string]any{
		{"netlist": json.RawMessage(nl.Bytes())},
		{
			"netlist": json.RawMessage(nl.Bytes()),
			"sides":   intSides,
			"delta":   &prop.Delta{Recost: []prop.DeltaNetCost{{Net: 0, Cost: 3}}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch?runs=2&seed=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lines []batchLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line batchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2: %+v", len(lines), lines)
	}
	byIndex := map[int]batchLine{}
	for _, l := range lines {
		if !l.OK {
			t.Errorf("line %+v not ok", l)
		}
		byIndex[l.Index] = l
	}
	var part partitionResponse
	if err := json.Unmarshal(byIndex[0].Result, &part); err != nil || len(part.Sides) != 120 {
		t.Errorf("partition item result = %s (err %v)", byIndex[0].Result, err)
	}
	var rep repartitionResponse
	if err := json.Unmarshal(byIndex[1].Result, &rep); err != nil || len(rep.Sides) != 120 {
		t.Errorf("repartition item result = %s (err %v)", byIndex[1].Result, err)
	}

	// Under k ≠ 2 the delta item is refused with an error naming k.
	resp4, err := http.Post(ts.URL+"/v1/batch?runs=2&seed=1&k=4", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("k=4 status %d", resp4.StatusCode)
	}
	sc = bufio.NewScanner(resp4.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	byIndex = map[int]batchLine{}
	for sc.Scan() {
		var line batchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		byIndex[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if l := byIndex[0]; !l.OK {
		t.Errorf("k=4 partition item not ok: %+v", l)
	}
	if l := byIndex[1]; l.OK || !strings.Contains(l.Error, "k=4") {
		t.Errorf("k=4 delta item: ok=%t error %q, want ok=false with an error naming k", l.OK, l.Error)
	}
}

// TestBatchValidation pins the request-level failure modes: empty items,
// too many items, malformed JSON.
func TestBatchValidation(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{batchMax: 2})
	small := netlistJSON(t, 30, 30, 90, 3)
	item := fmt.Sprintf(`{"netlist": %s}`, small)
	cases := []struct {
		name, body string
		want       int
	}{
		{"empty items", `{"items": []}`, http.StatusBadRequest},
		{"not json", `nope`, http.StatusBadRequest},
		{"over batch-max", fmt.Sprintf(`{"items": [%s, %s, %s]}`, item, item, item), http.StatusBadRequest},
		{"bad query is checked first", `{"items": []}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

// TestSchedulerFairnessAcrossTenants floods one tenant and then submits a
// second tenant's job on a single worker: round-robin dispatch must run
// the second tenant's job before the flood finishes.
func TestSchedulerFairnessAcrossTenants(t *testing.T) {
	ts, _ := newTestServerConfig(t, serverConfig{schedWorkers: 1})
	med := netlistJSON(t, 600, 700, 2300, 5)
	small := netlistJSON(t, 60, 70, 220, 5)

	// Hold the single worker with a long job, then queue the flood and
	// the latecomer behind it so dispatch order is decided by DRR alone.
	var floodIDs []string
	r0 := postTenant(t, ts.URL+"/v1/jobs?algo=prop&runs=40&seed=1", "flood", "application/json", med)
	if r0.StatusCode != http.StatusAccepted {
		t.Fatalf("gate submit status %d", r0.StatusCode)
	}
	floodIDs = append(floodIDs, decodeBody[map[string]string](t, r0)["id"])
	for i := 0; i < 4; i++ {
		r := postTenant(t, fmt.Sprintf("%s/v1/jobs?algo=prop&runs=40&seed=%d", ts.URL, i+2), "flood", "application/json", med)
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("flood submit %d status %d", i, r.StatusCode)
		}
		floodIDs = append(floodIDs, decodeBody[map[string]string](t, r)["id"])
	}
	rl := postTenant(t, ts.URL+"/v1/jobs?algo=prop&runs=2&seed=9", "late", "application/json", small)
	if rl.StatusCode != http.StatusAccepted {
		t.Fatalf("late submit status %d", rl.StatusCode)
	}
	lateID := decodeBody[map[string]string](t, rl)["id"]

	late := waitJobDone(t, ts.URL, lateID)
	if late.State != jobs.Done {
		t.Fatalf("late job state %q, error %q", late.State, late.Error)
	}
	// When the late job finished, the flood must not all be done — DRR let
	// the late tenant cut ahead of the flood's backlog.
	lr, err := http.Get(ts.URL + "/v1/jobs?tenant=flood")
	if err != nil {
		t.Fatal(err)
	}
	pendingFlood := 0
	for _, v := range decodeBody[map[string][]jobView](t, lr)["jobs"] {
		if !v.State.Terminal() {
			pendingFlood++
		}
	}
	if pendingFlood == 0 {
		t.Error("flood tenant fully drained before the late tenant's job — no fair-share evidence")
	}
	for _, id := range floodIDs {
		waitJobDone(t, ts.URL, id)
	}
}
