package main

// POST /v1/batch: submit many partition/repartition items in one request
// and stream one NDJSON result line per item as each finishes. Every item
// becomes a durable async job (same journal, same scheduler, same quota
// accounting as /v1/jobs), so a crash mid-batch loses nothing: the
// accepted items finish after restart and are retrievable via
// GET /v1/jobs. The stream is flushed line by line; if the client
// disconnects mid-stream the unfinished items are cancelled.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"prop"
	"prop/internal/jobs"
	"prop/internal/obs"
)

// batchItem is one unit of work in a batch: a netlist to partition (the
// JSON netlist format), or — when delta is set — an incremental
// repartition against an inline base or a finished job.
type batchItem struct {
	Netlist json.RawMessage `json:"netlist,omitempty"`
	Sides   []int           `json:"sides,omitempty"`
	BaseJob string          `json:"base_job,omitempty"`
	Delta   *prop.Delta     `json:"delta,omitempty"`
}

type batchRequest struct {
	Items []batchItem `json:"items"`
}

// batchLine is one NDJSON result line. Index identifies the item (lines
// arrive in completion order, not submission order); Job names the
// durable job backing it, when one was accepted.
type batchLine struct {
	Index  int             `json:"index"`
	Job    string          `json:"job,omitempty"`
	OK     bool            `json:"ok"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// batchItemPayload validates one item's shape against the batch's part
// count k and converts it to the journaled payload form. The shared query
// string rides along so the executor re-derives the knobs the same way
// /v1/jobs does.
func batchItemPayload(rawQuery string, k int, it batchItem) (jobPayload, error) {
	if it.Delta != nil {
		if err := checkRepartitionK(k); err != nil {
			return jobPayload{}, fmt.Errorf("delta item: %w", err)
		}
		if it.BaseJob == "" && len(it.Netlist) == 0 {
			return jobPayload{}, errors.New("delta item: want base_job or netlist+sides")
		}
		body, err := json.Marshal(repartitionRequest{
			BaseJob: it.BaseJob, Netlist: it.Netlist, Sides: it.Sides, Delta: it.Delta,
		})
		if err != nil {
			return jobPayload{}, err
		}
		return jobPayload{Kind: kindRepartition, Query: rawQuery, Body: body}, nil
	}
	if len(it.Netlist) == 0 {
		return jobPayload{}, errors.New("item: want netlist (JSON netlist format) or delta")
	}
	return jobPayload{Kind: kindPartition, Query: rawQuery, ContentType: "application/json", Body: it.Netlist}, nil
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.gate(w, r, false)
	if !ok {
		return
	}
	// Shared knobs are validated once up front: a bad query fails the
	// whole batch with 400 before any item is accepted.
	req, err := s.decodeQuery(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	raw, err := io.ReadAll(s.limitBody(w, r))
	if err != nil {
		s.failParse(w, err)
		return
	}
	var breq batchRequest
	if err := json.Unmarshal(raw, &breq); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("body: %w", err))
		return
	}
	if len(breq.Items) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("body: empty items"))
		return
	}
	if s.batchMax > 0 && len(breq.Items) > s.batchMax {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d items exceeds limit %d", len(breq.Items), s.batchMax))
		return
	}

	runID := obs.RunID(r.Context())
	// Buffered to the item count so a finishing job never blocks on a
	// slow or gone client; the disconnect path can then abandon the
	// channel safely.
	events := make(chan batchLine, len(breq.Items))
	var immediate []batchLine
	outstanding := map[string]bool{}
	pending := 0
	for i, it := range breq.Items {
		pl, err := batchItemPayload(r.URL.RawQuery, req.k, it)
		if err != nil {
			immediate = append(immediate, batchLine{Index: i, Error: err.Error()})
			continue
		}
		// Quota is charged per item, not per request — a 100-item batch
		// spends 100 admission tokens.
		if !s.chargeQuota(tenant) {
			immediate = append(immediate, batchLine{Index: i, Error: fmt.Sprintf("tenant %q over admission quota", tenant)})
			continue
		}
		idx := i
		j, err := s.submitPayload(tenant, pl, req, obs.NewID(), func(final jobs.Job) {
			events <- batchLine{
				Index:  idx,
				Job:    final.ID,
				OK:     final.State == jobs.Done,
				Error:  final.Error,
				Result: json.RawMessage(final.Result),
			}
		})
		if err != nil {
			immediate = append(immediate, batchLine{Index: i, Error: err.Error()})
			continue
		}
		outstanding[j.ID] = true
		pending++
	}
	s.log.Info("batch accepted", "tenant", tenant, "items", len(breq.Items),
		"jobs", pending, "rejected", len(immediate), "run_id", runID)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeLine := func(line batchLine) {
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Items refused before becoming jobs stream first, then one line per
	// job in completion order.
	for _, line := range immediate {
		writeLine(line)
	}
	for pending > 0 {
		select {
		case <-r.Context().Done():
			// Client went away mid-stream: cancel everything unfinished.
			// Queued jobs flip to cancelled here; running ones see their
			// context cancelled and the executor records the final state.
			for id := range outstanding {
				s.store.Transition(id, jobs.Pending, jobs.Cancelled, nil)
				if rt := s.rt.get(id); rt != nil {
					rt.cancel()
				}
			}
			s.log.Info("batch client disconnected", "cancelled", len(outstanding), "run_id", runID)
			return
		case line := <-events:
			pending--
			delete(outstanding, line.Job)
			writeLine(line)
		}
	}
}
