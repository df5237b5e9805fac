package prop_test

import (
	"io"
	"testing"

	"prop"
)

// sideHash is FNV-1a over the side-assignment bytes — a compact fingerprint
// of the exact partition, not just its cut value.
func sideHash(sides []uint8) uint64 {
	const (
		basis = 1469598103934665603
		prime = 1099511628211
	)
	h := uint64(basis)
	for _, s := range sides {
		h ^= uint64(s)
		h *= prime
	}
	return h
}

// golden records the full pre-CSR-migration outcome of a deterministic
// multi-start run: winning cut cost, winning run index and the FNV-1a hash
// of the winning side assignment.
type golden struct {
	cost    float64
	bestRun int
	hash    uint64
}

// TestGoldenCutsAcrossMigration pins PROP and FM multi-start results to the
// values produced by the slice-of-slices hypergraph representation before
// the flat-CSR migration. Any float reordering, iteration-order change or
// adjacency bug in the CSR/incremental-refinement path shows up here as a
// changed cut, winner or side hash.
func TestGoldenCutsAcrossMigration(t *testing.T) {
	t.Parallel()
	cases := []struct {
		circuit string
		prop    golden
		fm      golden
	}{
		{"balu", golden{51, 0, 0x951374aafaf280e4}, golden{56, 2, 0xe1aa91b0c00779e4}},
		{"struct", golden{44, 1, 0x1c610d4b7893512c}, golden{55, 1, 0x111308ef60ac7128}},
		{"p2", golden{123, 2, 0xb9b315385cfb9569}, golden{155, 2, 0x6058fc113e79d67f}},
		{"industry2", golden{553, 1, 0x5ad230a75a0b9a7f}, golden{710, 2, 0x1ff487b9b8cec5ee}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.circuit, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && tc.circuit == "industry2" {
				t.Skip("short mode")
			}
			n, err := prop.Benchmark(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			check(t, n, prop.AlgoPROP, 3, 7, tc.prop)
			check(t, n, prop.AlgoFM, 3, 7, tc.fm)
			// Under unit costs, FM-tree's LIFO ties reproduce the bucket
			// array's selection order exactly.
			check(t, n, prop.AlgoFMTree, 3, 7, tc.fm)
		})
	}
}

// TestGoldenCutsGenerated covers the window-model generator path with more
// runs, exercising the best-run tie-break across a longer portfolio.
func TestGoldenCutsGenerated(t *testing.T) {
	t.Parallel()
	n, err := prop.Generate(prop.GenParams{Nodes: 600, Nets: 660, Pins: 2300, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	check(t, n, prop.AlgoPROP, 5, 11, golden{48, 4, 0xf732c54e9365b36e})
	check(t, n, prop.AlgoFM, 5, 11, golden{55, 0, 0x48db48f4509eda0a})
	check(t, n, prop.AlgoFMTree, 5, 11, golden{55, 0, 0x48db48f4509eda0a})
}

// TestGoldenCutsWeightedNets pins the float-gain selectors where FM-bucket
// cannot run: every net is re-costed to 1 + (e mod 5)·0.25, so gains are
// fractional and equal-gain ties are broken by the containers' LIFO stamps.
func TestGoldenCutsWeightedNets(t *testing.T) {
	t.Parallel()
	cases := []struct {
		circuit string
		fmTree  golden
		la      golden
	}{
		{"struct", golden{119, 2, 0x161f2059d6b718f2}, golden{113.5, 2, 0x6adfd5ee42ec80d2}},
		{"p2", golden{267.75, 2, 0x54d08168b7ecc2fa}, golden{261, 2, 0x3cc42dbefa379227}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.circuit, func(t *testing.T) {
			t.Parallel()
			n, err := prop.Benchmark(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			costs := make([]float64, n.NumNets())
			for e := range costs {
				costs[e] = 1 + float64(e%5)*0.25
			}
			if n, err = n.WithNetCosts(costs); err != nil {
				t.Fatal(err)
			}
			check(t, n, prop.AlgoFMTree, 3, 7, tc.fmTree)
			check(t, n, prop.AlgoLA, 3, 7, tc.la)
		})
	}
}

func check(t *testing.T, n *prop.Netlist, algo prop.Algorithm, runs int, seed int64, want golden) {
	t.Helper()
	res, err := prop.Partition(n, prop.Options{Algorithm: algo, Runs: runs, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	got := golden{res.CutCost, res.BestRun, sideHash(res.Sides)}
	if got != want {
		t.Errorf("%s: got {cost:%g best:%d hash:%#x}, want {cost:%g best:%d hash:%#x}",
			algo, got.cost, got.bestRun, got.hash, want.cost, want.bestRun, want.hash)
	}
	if cost, _, err := prop.Verify(n, res.Sides, prop.Options{}); err != nil || cost != res.CutCost {
		t.Errorf("%s: independent recount %g (err %v) vs reported %g", algo, cost, err, res.CutCost)
	}
	// The portfolio reduction must reproduce the sequential best-of
	// bit-for-bit at any worker count.
	par, err := prop.Partition(n, prop.Options{Algorithm: algo, Runs: runs, Seed: seed, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pg := (golden{par.CutCost, par.BestRun, sideHash(par.Sides)}); pg != want {
		t.Errorf("%s Parallel=4: got {cost:%g best:%d hash:%#x}, want {cost:%g best:%d hash:%#x}",
			algo, pg.cost, pg.bestRun, pg.hash, want.cost, want.bestRun, want.hash)
	}
}

// TestGoldenCutsLASK pins LA and SK multi-start results across the
// move-engine unification, the same way the PROP/FM goldens pin theirs.
// SK's exact pair scan is quadratic per step, so its goldens run only on
// the small circuits.
func TestGoldenCutsLASK(t *testing.T) {
	t.Parallel()
	cases := []struct {
		circuit string
		la      golden
		sk      *golden
	}{
		{"balu", golden{56, 2, 0x86df674c393dbe83}, &golden{52, 0, 0xfe460ae3a9b93a54}},
		{"struct", golden{65, 2, 0x2ffcf6b524ce9570}, &golden{89, 0, 0x4873e6d3b1c068ef}},
		{"p2", golden{150, 2, 0x67e8ad96d734b66d}, nil},
		{"industry2", golden{706, 1, 0x7e02436e812665c}, nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.circuit, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && tc.circuit == "industry2" {
				t.Skip("short mode")
			}
			n, err := prop.Benchmark(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			check(t, n, prop.AlgoLA, 3, 7, tc.la)
			if tc.sk != nil {
				check(t, n, prop.AlgoSK, 3, 7, *tc.sk)
			}
		})
	}
}

// TestGoldenCutsLASKGenerated mirrors TestGoldenCutsGenerated for LA/SK.
func TestGoldenCutsLASKGenerated(t *testing.T) {
	t.Parallel()
	n, err := prop.Generate(prop.GenParams{Nodes: 600, Nets: 660, Pins: 2300, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	check(t, n, prop.AlgoLA, 5, 11, golden{50, 2, 0x29d615c6f6e8e5b4})
	check(t, n, prop.AlgoSK, 5, 11, golden{62, 3, 0xa8dffa790c0eb9db})
}

// TestGoldenCutsFlow pins the PROP→flow composite (corridor max-flow
// polish) the same way the other engines pin theirs, and additionally
// asserts the polish contract against the PROP goldens above: flow's cut is
// never worse, and strictly better on most circuits. check() also covers
// Parallel=1 vs 4 bit-identity and the balance window via prop.Verify.
func TestGoldenCutsFlow(t *testing.T) {
	t.Parallel()
	cases := []struct {
		circuit string
		flow    golden
		prop    float64 // the PROP golden cost on the same runs/seed
	}{
		{"balu", golden{50, 0, 0x1cbb4377981c0924}, 51},
		{"struct", golden{39, 0, 0x932108ed1bfa955a}, 44},
		{"p2", golden{112, 1, 0x63556f45eca600e3}, 123},
		{"industry2", golden{510, 1, 0x3bd3d5ea89a430e0}, 553},
	}
	improved := 0
	for _, tc := range cases {
		tc := tc
		t.Run(tc.circuit, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && tc.circuit == "industry2" {
				t.Skip("short mode")
			}
			n, err := prop.Benchmark(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			check(t, n, prop.AlgoFlow, 3, 7, tc.flow)
			if tc.flow.cost > tc.prop {
				t.Errorf("flow cut %g worse than PROP's %g", tc.flow.cost, tc.prop)
			}
		})
		if tc.flow.cost < tc.prop {
			improved++
		}
	}
	if improved < 3 {
		t.Errorf("flow strictly improved only %d/%d benchmark circuits, want ≥ 3", improved, len(cases))
	}
}

// TestGoldenCutsFlowGenerated mirrors TestGoldenCutsGenerated: on this
// instance PROP's portfolio already finds a cut the corridor stage cannot
// beat, so the polish must return it unchanged (identical hash to the PROP
// golden) — the "never worsens" half of the flow contract.
func TestGoldenCutsFlowGenerated(t *testing.T) {
	t.Parallel()
	n, err := prop.Generate(prop.GenParams{Nodes: 600, Nets: 660, Pins: 2300, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	check(t, n, prop.AlgoFlow, 5, 11, golden{48, 4, 0xf732c54e9365b36e})
}

// TestGoldenTracingInvariant pins the observation-only contract of the
// tracing subsystem: attaching a tracer — even at move granularity, even
// under a parallel portfolio — must not change the cut, the winning run,
// or a single side bit relative to the untraced golden values.
func TestGoldenTracingInvariant(t *testing.T) {
	t.Parallel()
	n, err := prop.Benchmark("struct")
	if err != nil {
		t.Fatal(err)
	}
	baseline := func(algo prop.Algorithm) golden {
		res, err := prop.Partition(n, prop.Options{Algorithm: algo, Runs: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return golden{res.CutCost, res.BestRun, sideHash(res.Sides)}
	}
	for _, algo := range []prop.Algorithm{prop.AlgoPROP, prop.AlgoFM} {
		want := baseline(algo)
		for _, par := range []int{1, 4} {
			tr := prop.NewTracer(io.Discard, prop.TraceMoves)
			res, err := prop.Partition(n, prop.Options{
				Algorithm: algo, Runs: 3, Seed: 7, Parallel: par,
				Tracer: tr, TraceID: "golden",
			})
			if err != nil {
				t.Fatal(err)
			}
			got := golden{res.CutCost, res.BestRun, sideHash(res.Sides)}
			if got != want {
				t.Errorf("%s par=%d traced: got {cost:%g best:%d hash:%#x}, want {cost:%g best:%d hash:%#x}",
					algo, par, got.cost, got.bestRun, got.hash, want.cost, want.bestRun, want.hash)
			}
			if tr.Events() == 0 {
				t.Errorf("%s par=%d: tracer saw no events", algo, par)
			}
			if err := tr.Err(); err != nil {
				t.Errorf("%s par=%d: tracer error: %v", algo, par, err)
			}
		}
	}
}

// TestGoldenCutsBaselines pins the remaining single-algorithm engines —
// KL, SA and the deterministic EIG1, MELO, PARABOLI and WINDOW, which
// ignore Runs — on balu at the runs and seed the other goldens use.
func TestGoldenCutsBaselines(t *testing.T) {
	t.Parallel()
	n, err := prop.Benchmark("balu")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo prop.Algorithm
		want golden
	}{
		{prop.AlgoKL, golden{73, 2, 0xe18731e551b45e34}},
		{prop.AlgoSA, golden{43, 2, 0x9c04552656241da5}},
		{prop.AlgoEIG1, golden{310, 0, 0x55f39d902bfa897c}},
		{prop.AlgoMELO, golden{328, 0, 0xe24ed1796b7e8093}},
		{prop.AlgoParaboli, golden{141, 0, 0xed45ecf35d403710}},
		{prop.AlgoWindow, golden{43, 0, 0x2ad7415ebebe43ac}},
	}
	for _, tc := range cases {
		check(t, n, tc.algo, 3, 7, tc.want)
	}
}

// kwayGolden records a k-way outcome: cut cost, cut nets and the FNV-1a
// hash of the part vector.
type kwayGolden struct {
	cost float64
	nets int
	hash uint64
}

// TestGoldenCutsKWay pins recursive KWay with PROP on balu at k = 4 and
// k = 3, at Parallel 1 and 4, recounts each cut from the netlist and
// checks every bisection's window.
func TestGoldenCutsKWay(t *testing.T) {
	t.Parallel()
	n, err := prop.Benchmark("balu")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		k    int
		want kwayGolden
	}{
		{4, kwayGolden{67, 67, 0x27ecb781283847a3}},
		{3, kwayGolden{68, 68, 0x11bf58154c9ee7ed}},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			res, err := prop.KWay(n, tc.k, prop.Options{Algorithm: prop.AlgoPROP, Runs: 3, Seed: 7, Parallel: par})
			if err != nil {
				t.Fatalf("k=%d Parallel=%d: %v", tc.k, par, err)
			}
			parts := make([]uint8, len(res.Parts))
			for u, p := range res.Parts {
				parts[u] = uint8(p)
			}
			if got := (kwayGolden{res.CutCost, res.CutNets, sideHash(parts)}); got != tc.want {
				t.Errorf("k=%d Parallel=%d: got {cost:%g nets:%d hash:%#x}, want {cost:%g nets:%d hash:%#x}",
					tc.k, par, got.cost, got.nets, got.hash, tc.want.cost, tc.want.nets, tc.want.hash)
			}
			if len(res.PartWeights) != tc.k {
				t.Errorf("k=%d: %d part weights, want %d", tc.k, len(res.PartWeights), tc.k)
			}
			checkKWayWindows(t, n, res, 0.5, 0.5)
			cut := 0
			for e := 0; e < n.NumNets(); e++ {
				pins := n.Net(e)
				for _, u := range pins[1:] {
					if res.Parts[u] != res.Parts[pins[0]] {
						cut++
						break
					}
				}
			}
			if cut != res.CutNets {
				t.Errorf("k=%d Parallel=%d: recount %d cut nets, reported %d", tc.k, par, cut, res.CutNets)
			}
		}
	}
}
