package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %v, the benchmark runs %d workloads", names, len(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the table %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %s %s %s %g", i, e, d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	for i, d := range perLayer {
		e := b.PerLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table has %s %s %s", i, e, d.Name, d.Unit, d.Better)
		}
	}
}

// TestMetricTable checks the contract's naming rules and that every
// per-layer metric says where it is measured and what it should move.
func TestMetricTable(t *testing.T) {
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	maxBound := 0.0
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRe.MatchString(d.Name) || !unitRe.MatchString(d.Unit) {
			t.Errorf("%q (%q) breaks the name or unit rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("%s defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Doc == "" {
			t.Errorf("%s has no definition", d.Name)
		}
		maxBound = max(maxBound, d.Bound)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	for _, d := range perLayer {
		if d.Moves == "" || len(d.On) == 0 {
			t.Errorf("%s: missing the workloads it is measured on or the metric it moves", d.Name)
		}
		for _, w := range d.On {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s: unknown workload %q", d.Name, w)
			}
		}
	}
}
