package prop_test

import (
	"testing"

	"prop"
)

// TestGoldenCutsNLevel pins the n-level multilevel path (ML Mode
// "nlevel") the same way the other engines pin theirs, and pins the
// V-cycle MLPROP results on the same circuits/seed alongside — the
// acceptance contract is twofold: existing V-cycle behavior stays
// bit-identical, and the n-level cut is never worse than the V-cycle cut
// on any of the golden five.
func TestGoldenCutsNLevel(t *testing.T) {
	t.Parallel()
	cases := []struct {
		circuit string
		vcycle  golden
		nlevel  golden
	}{
		{"balu", golden{40, 0, 0xfcfd68f921f5e006}, golden{37, 0, 0x565bcda200439bf4}},
		{"struct", golden{34, 0, 0x3b8edd5d07c6765}, golden{23, 0, 0x8baf23f8a91b8a3a}},
		{"p2", golden{109, 0, 0x87c64ea070eb5157}, golden{103, 0, 0x80f50ceaa1df7897}},
		{"industry2", golden{480, 0, 0x537d2ad814ec3a18}, golden{443, 0, 0x151e0224aaa5b990}},
		{"gen600", golden{47, 0, 0xa962787709707676}, golden{45, 0, 0x772b41dfdc3aaab4}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.circuit, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && tc.circuit == "industry2" {
				t.Skip("short mode")
			}
			n := nlevelCircuit(t, tc.circuit)
			checkMode(t, n, nil, tc.vcycle)
			checkMode(t, n, &prop.MLParams{Mode: "nlevel"}, tc.nlevel)
			if tc.nlevel.cost > tc.vcycle.cost {
				t.Errorf("n-level cut %g worse than V-cycle's %g", tc.nlevel.cost, tc.vcycle.cost)
			}
		})
	}
}

func nlevelCircuit(t *testing.T, name string) *prop.Netlist {
	t.Helper()
	if name == "gen600" {
		n, err := prop.Generate(prop.GenParams{Nodes: 600, Nets: 660, Pins: 2300, Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n, err := prop.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// checkMode mirrors check() for the single-run MLPROP engine: golden
// equality, an independent recount, and Parallel no-op bit-identity.
func checkMode(t *testing.T, n *prop.Netlist, ml *prop.MLParams, want golden) {
	t.Helper()
	res, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoMLPROP, Seed: 7, ML: ml})
	if err != nil {
		t.Fatal(err)
	}
	got := golden{res.CutCost, res.BestRun, sideHash(res.Sides)}
	if got != want {
		t.Errorf("got {cost:%g best:%d hash:%#x}, want {cost:%g best:%d hash:%#x}",
			got.cost, got.bestRun, got.hash, want.cost, want.bestRun, want.hash)
	}
	if cost, _, err := prop.Verify(n, res.Sides, prop.Options{}); err != nil || cost != res.CutCost {
		t.Errorf("independent recount %g (err %v) vs reported %g", cost, err, res.CutCost)
	}
	par, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoMLPROP, Seed: 7, ML: ml, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pg := (golden{par.CutCost, par.BestRun, sideHash(par.Sides)}); pg != want {
		t.Errorf("Parallel=4: got {cost:%g best:%d hash:%#x}, want {cost:%g best:%d hash:%#x}",
			pg.cost, pg.bestRun, pg.hash, want.cost, want.bestRun, want.hash)
	}
}

// TestMLPROPRejectsOverLimitNet: a net above the contraction view's
// 65,536-pin limit is refused up front by both hierarchy modes. The
// V-cycle used to accept it and then pay O(|e|²) for it in every
// matching round.
func TestMLPROPRejectsOverLimitNet(t *testing.T) {
	const nodes, big = 70010, 70000
	b := prop.NewBuilder()
	b.EnsureNodes(nodes)
	pins := make([]int, big)
	for i := range pins {
		pins[i] = i
	}
	if err := b.AddNet("huge", 1, pins...); err != nil {
		t.Fatal(err)
	}
	for u := big - 1; u+1 < nodes; u++ {
		if err := b.AddNet("", 1, u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"vcycle", "nlevel"} {
		if _, err := prop.Partition(n, prop.Options{
			Algorithm: prop.AlgoMLPROP, Seed: 7, ML: &prop.MLParams{Mode: mode},
		}); err == nil {
			t.Errorf("%s accepted a %d-pin net", mode, big)
		}
	}
}
