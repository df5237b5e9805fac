package gen

import (
	"testing"
	"testing/quick"

	"prop/internal/hypergraph"
)

// TestGenerateMatchesRequest: node, net and pin counts equal the request
// for the full suite of Table-1 shapes.
func TestGenerateMatchesRequest(t *testing.T) {
	for _, spec := range Table1() {
		h, err := Generate(Params{Nodes: spec.Nodes, Nets: spec.Nets, Pins: spec.Pins, Seed: SuiteSeed(spec.Name)})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if h.NumNodes() != spec.Nodes || h.NumNets() != spec.Nets || h.NumPins() != spec.Pins {
			t.Errorf("%s: got (%d,%d,%d), want (%d,%d,%d)", spec.Name,
				h.NumNodes(), h.NumNets(), h.NumPins(), spec.Nodes, spec.Nets, spec.Pins)
		}
		if err := h.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

// TestGenerateDeterministic: identical params give identical circuits.
func TestGenerateDeterministic(t *testing.T) {
	p := Params{Nodes: 300, Nets: 330, Pins: 1150, Seed: 5}
	a := MustGenerate(p)
	b := MustGenerate(p)
	if a.NumPins() != b.NumPins() {
		t.Fatalf("pin counts differ: %d vs %d", a.NumPins(), b.NumPins())
	}
	for e := 0; e < a.NumNets(); e++ {
		pa, pb := a.Net(e), b.Net(e)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("net %d differs: %v vs %v", e, pa, pb)
			}
		}
	}
}

// TestGenerateSeedsDiffer: different seeds give different circuits.
func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate(Params{Nodes: 300, Nets: 330, Pins: 1150, Seed: 5})
	b := MustGenerate(Params{Nodes: 300, Nets: 330, Pins: 1150, Seed: 6})
	same := true
	for e := 0; e < a.NumNets() && same; e++ {
		pa, pb := a.Net(e), b.Net(e)
		if len(pa) != len(pb) {
			same = false
			break
		}
		for i := range pa {
			if pa[i] != pb[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 5 and 6 produced identical circuits")
	}
}

// TestNoIsolatedNodes: connectivity repair guarantees min degree 1.
func TestNoIsolatedNodes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		h := MustGenerate(Params{Nodes: 2000, Nets: 2100, Pins: 7300, Seed: seed})
		for u := 0; u < h.NumNodes(); u++ {
			if h.Degree(u) == 0 {
				t.Fatalf("seed %d: node %d isolated", seed, u)
			}
		}
	}
}

// TestHubNetsPresent: the default 2% hub fraction produces high-fanout
// nets in large circuits and none in tiny ones.
func TestHubNetsPresent(t *testing.T) {
	h := MustGenerate(Params{Nodes: 3000, Nets: 3100, Pins: 11400, Seed: 9})
	hubs := 0
	for e := 0; e < h.NumNets(); e++ {
		if h.NetSize(e) >= 20 {
			hubs++
		}
	}
	if hubs < 20 {
		t.Errorf("only %d hub-size nets, want ≥ 20", hubs)
	}
	small := MustGenerate(Params{Nodes: 100, Nets: 110, Pins: 360, Seed: 9})
	stats := hypergraph.ComputeStats(small)
	if stats.MaxNetSize > 100/4+1 {
		t.Errorf("tiny circuit has net of size %d", stats.MaxNetSize)
	}
}

// TestDisabledKnobs: negative fractions disable hub/cross/corr nets.
func TestDisabledKnobs(t *testing.T) {
	h := MustGenerate(Params{
		Nodes: 1000, Nets: 1050, Pins: 3700, Seed: 4,
		CrossFrac: -1, CorrFrac: -1, HubFrac: -1,
	})
	for e := 0; e < h.NumNets(); e++ {
		if h.NetSize(e) >= 20 {
			// Only the uniform sprinkle can exceed 20 when hubs are off;
			// the cap is 40, so sizes above it indicate hub leakage.
			if h.NetSize(e) > 40 {
				t.Fatalf("net %d has %d pins with hubs disabled", e, h.NetSize(e))
			}
		}
	}
}

// TestValidateRejectsBadParams covers error paths.
func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{Nodes: 2, Nets: 5, Pins: 20},
		{Nodes: 100, Nets: 0, Pins: 10},
		{Nodes: 100, Nets: 50, Pins: 60}, // < 2 pins/net
		{Nodes: 100, Nets: 50, Pins: 200, MeanSpread: -1},
		{Nodes: 100, Nets: 50, Pins: 200, CrossFrac: 1.5},
		{Nodes: 100, Nets: 50, Pins: 200, CorrFrac: 1.5},
		{Nodes: 100, Nets: 50, Pins: 200, HubFrac: 1.5},
	}
	for i, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: accepted %+v", i, p)
		}
	}
}

// TestGenerateProperty: random small parameter draws always produce valid
// hypergraphs with the exact requested shape (testing/quick).
func TestGenerateProperty(t *testing.T) {
	f := func(seed int64, nRaw, eRaw uint16, extraRaw uint16) bool {
		n := 50 + int(nRaw)%400
		e := 40 + int(eRaw)%400
		pins := 2*e + int(extraRaw)%(3*e)
		h, err := Generate(Params{Nodes: n, Nets: e, Pins: pins, Seed: seed})
		if err != nil {
			t.Logf("params (%d,%d,%d): %v", n, e, pins, err)
			return false
		}
		return h.NumNodes() == n && h.NumNets() == e && h.NumPins() == pins && h.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFigure1Shape: the fixture has the documented shape.
func TestFigure1Shape(t *testing.T) {
	f := Figure1()
	if f.H.NumNodes() != 17+11 {
		t.Errorf("nodes = %d, want 28 (17 V1 + 11 anchors)", f.H.NumNodes())
	}
	if f.H.NumNets() != 17 {
		t.Errorf("nets = %d, want 17", f.H.NumNets())
	}
	if len(f.Anchors) != 11 {
		t.Errorf("anchors = %d, want 11 (one per cut net)", len(f.Anchors))
	}
	for _, a := range f.Anchors {
		if f.Sides[a] != 1 {
			t.Errorf("anchor %d not on V2", a)
		}
	}
	if err := f.H.Validate(); err != nil {
		t.Error(err)
	}
}
