package prop_test

import (
	"testing"

	"prop"
)

// ecoDelta builds a small structural ECO against n: drop a handful of
// nodes, add replacements wired into existing logic, and retune a few net
// costs — the shape of a real engineering change order.
func ecoDelta(n *prop.Netlist) *prop.Delta {
	nn := n.NumNodes()
	d := &prop.Delta{
		RemoveNodes: []int{3, nn / 2, nn - 4},
		AddNodes:    []prop.DeltaNodeAdd{{Name: "eco_a", Weight: 1}, {Name: "eco_b", Weight: 2}},
		AddNets: []prop.DeltaNetAdd{
			{Pins: []int{0, nn, nn + 1}}, // nn, nn+1 = combined IDs of the added nodes
			{Cost: 2, Pins: []int{1, nn + 1}},
		},
		Recost: []prop.DeltaNetCost{{Net: 0, Cost: 3}, {Net: 5, Cost: 1.5}},
	}
	return d
}

func TestRepartitionWarmStart(t *testing.T) {
	n, err := prop.Benchmark("balu")
	if err != nil {
		t.Fatal(err)
	}
	cold := prop.Options{Algorithm: prop.AlgoPROP, Runs: 3, Seed: 7}
	base, err := prop.Partition(n, cold)
	if err != nil {
		t.Fatal(err)
	}
	edited, warm, err := prop.Repartition(n, base.Sides, ecoDelta(n), prop.Options{
		Algorithm: prop.AlgoPROP, Runs: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Sides) != edited.NumNodes() {
		t.Fatalf("sides sized %d for %d nodes", len(warm.Sides), edited.NumNodes())
	}
	cost, nets, err := prop.Verify(edited, warm.Sides, prop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cost != warm.CutCost || nets != warm.CutNets {
		t.Errorf("reported cut %g/%d, verified %g/%d", warm.CutCost, warm.CutNets, cost, nets)
	}
}

// TestWarmStartParallelDeterminism pins the bit-determinism contract on
// the incremental path: a warm-started PROP portfolio returns the same
// cut and the same exact side assignment at Parallel 1 and 4.
func TestWarmStartParallelDeterminism(t *testing.T) {
	n, err := prop.Benchmark("struct")
	if err != nil {
		t.Fatal(err)
	}
	base, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoPROP, Runs: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	d := ecoDelta(n)
	run := func(par int) (float64, uint64) {
		_, res, err := prop.Repartition(n, base.Sides, d, prop.Options{
			Algorithm: prop.AlgoPROP,
			Runs:      3,
			Seed:      11,
			Parallel:  par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.CutCost, sideHash(res.Sides)
	}
	cut1, hash1 := run(1)
	cut4, hash4 := run(4)
	if cut1 != cut4 || hash1 != hash4 {
		t.Errorf("warm start diverges across parallelism: (%g, %#x) vs (%g, %#x)",
			cut1, hash1, cut4, hash4)
	}
}

func TestOptionsFingerprint(t *testing.T) {
	a := prop.Options{Algorithm: prop.AlgoPROP, Runs: 3, Seed: 7}
	b := a
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical options fingerprint differently")
	}
	// Parallelism and observation hooks never change results, so they must
	// not change the fingerprint either (cache hits across them are
	// correct and desirable).
	c := a
	c.Parallel = 8
	c.TraceID = "req-123"
	c.OnRun = func(prop.RunUpdate) {}
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("parallel/observation options changed the fingerprint")
	}
	// Every field that determines results changes the fingerprint.
	for _, tc := range []struct {
		field string
		set   func(*prop.Options)
	}{
		{"Algorithm", func(o *prop.Options) { o.Algorithm = prop.AlgoFM }},
		{"R1", func(o *prop.Options) { o.R1, o.R2 = 0.45, 0.5 }},
		{"R2", func(o *prop.Options) { o.R1, o.R2 = 0.5, 0.55 }},
		{"Runs", func(o *prop.Options) { o.Runs = 4 }},
		{"Seed", func(o *prop.Options) { o.Seed = 8 }},
		{"LADepth", func(o *prop.Options) { o.LADepth = 3 }},
		{"Initial", func(o *prop.Options) { o.Initial = []uint8{0, 1, 0} }},
		{"ML.Mode", func(o *prop.Options) { o.ML = &prop.MLParams{Mode: "nlevel"} }},
	} {
		d := a
		tc.set(&d)
		if a.Fingerprint() == d.Fingerprint() {
			t.Errorf("%s change not reflected in fingerprint", tc.field)
		}
	}
}

func TestNetlistFingerprintTracksDelta(t *testing.T) {
	n, err := prop.Benchmark("balu")
	if err != nil {
		t.Fatal(err)
	}
	fp := n.Fingerprint()
	if fp != n.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	edited, _, err := n.ApplyDelta(ecoDelta(n))
	if err != nil {
		t.Fatal(err)
	}
	if edited.Fingerprint() == fp {
		t.Error("delta application left the fingerprint unchanged")
	}
	if n.Fingerprint() != fp {
		t.Error("ApplyDelta mutated the base netlist fingerprint")
	}
}
