package main

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// runs builds n records of one workload, seeds 1..n, with metric values
// drawn around base with the given relative noise.
func runs(n int, metric string, base, noise float64, rng *rand.Rand) []record {
	var out []record
	for i := 0; i < n; i++ {
		v := base * (1 + noise*(rng.Float64()-0.5))
		out = append(out, record{Workload: "suite", Seed: int64(i + 1), Metrics: map[string]float64{metric: v}})
	}
	return out
}

func TestVerdicts(t *testing.T) {
	def := metricDef{Name: "solve_s", Better: "lower", Bound: 0.12}
	rng := rand.New(rand.NewSource(1))
	old := runs(10, "solve_s", 10, 0.04, rng)
	cases := []struct {
		name  string
		scale float64
		want  string
	}{
		{"same code", 1, "within bound"},
		{"10% slower", 1.10, "worse"},
		{"10% faster", 0.90, "improved"},
	}
	for _, tc := range cases {
		news := runs(10, "solve_s", 10*tc.scale, 0.04, rng)
		row := judge("suite", def, values(old, "solve_s"), values(news, "solve_s"), pairBySeed(old, news))
		if row.verdict != tc.want {
			t.Errorf("%s: verdict %q (won %d/%d, change %+.3f), want %q", tc.name, row.verdict, row.won, row.pairs, row.change, tc.want)
		}
	}

	// Noise wider than the bound leaves a small shift unresolved.
	noisy := runs(10, "solve_s", 10, 0.6, rng)
	news := runs(10, "solve_s", 10.3, 0.6, rng)
	if row := judge("suite", def, values(noisy, "solve_s"), values(news, "solve_s"), pairBySeed(noisy, news)); row.verdict != "unresolved" {
		t.Errorf("noisy: verdict %q, want unresolved", row.verdict)
	}

	// Higher-is-better metrics flip the direction.
	thr := metricDef{Name: "sat_rps", Better: "higher", Bound: 0.12}
	a, b := runs(10, "sat_rps", 60, 0.02, rng), runs(10, "sat_rps", 70, 0.02, rng)
	if row := judge("suite", thr, values(a, "sat_rps"), values(b, "sat_rps"), pairBySeed(a, b)); row.verdict != "improved" {
		t.Errorf("throughput up: verdict %q, want improved", row.verdict)
	}
}

func TestPairBySeed(t *testing.T) {
	old := []record{{Seed: 1}, {Seed: 2}, {Seed: 1}, {Seed: 3}}
	news := []record{{Seed: 1}, {Seed: 1}, {Seed: 2}, {Seed: 4}}
	if got := len(pairBySeed(old, news)); got != 3 {
		t.Errorf("%d pairs, want 3", got)
	}
}

// TestCompareExitsOnEndToEndOnly checks that a worse per-layer metric is
// reported but does not fail the comparison, while a worse end-to-end
// metric does.
func TestCompareExitsOnEndToEndOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	write := func(recs []record) string {
		path := filepath.Join(t.TempDir(), "runs.jsonl")
		for _, r := range recs {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	traced := func(recs []record) []record {
		for i := range recs {
			recs[i].Trace = true
		}
		return recs
	}
	layerOld := traced(runs(10, "core.prop_ms", 100, 0.02, rng))
	layerNew := traced(runs(10, "core.prop_ms", 150, 0.02, rng))
	var out bytes.Buffer
	worse, err := compareFiles(&out, write(layerOld), write(layerNew))
	if err != nil {
		t.Fatal(err)
	}
	if worse || !strings.Contains(out.String(), "worse") {
		t.Errorf("per-layer regression: exit worse=%v, output:\n%s", worse, out.String())
	}
	e2eOld, e2eNew := runs(10, "solve_s", 10, 0.02, rng), runs(10, "solve_s", 15, 0.02, rng)
	if worse, err := compareFiles(io.Discard, write(e2eOld), write(e2eNew)); err != nil || !worse {
		t.Errorf("end-to-end regression: worse=%v err=%v, want worse", worse, err)
	}
}
