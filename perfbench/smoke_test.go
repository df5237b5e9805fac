package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at the smallest size (one repetition, a
// one-second serve schedule), untraced and traced, and checks that the
// result line carries every metric of its kind with its unit and that
// every output check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "propserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/propserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build propserve: %v\n%s", err, out)
	}
	for _, wl := range []string{"suite", "scale", "serve"} {
		for _, traced := range []bool{false, true} {
			c := &runCtx{
				seed: 1, seconds: 1, trace: traced, workdir: t.TempDir(), propserve: bin,
				log: io.Discard, metrics: map[string]float64{}, inputs: map[string]any{}, samples: map[string]float64{},
			}
			if err := workloads[wl](c); err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			rec, err := finish(c, wl)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !rec.Correct {
				t.Errorf("%s trace=%v: incorrect: %v", wl, traced, rec.Problems)
			}
			var out bytes.Buffer
			if err := printResult(&out, rec); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", wl, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d metrics (want %d), attempted %d, failed %d",
					wl, traced, len(res.Metrics), len(defs), res.Attempted, res.Failed)
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or without unit %s", wl, traced, d.Name, d.Unit)
					continue
				}
				if !traced && *m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, want > 0", wl, d.Name, *m.Value)
				}
			}
		}
	}
}
