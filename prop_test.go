package prop_test

import (
	"bytes"
	"strings"
	"testing"

	"prop"
	"prop/internal/partition"
)

func testNetlist(t *testing.T) *prop.Netlist {
	t.Helper()
	n, err := prop.Generate(prop.GenParams{Nodes: 400, Nets: 440, Pins: 1500, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEveryAlgorithmRuns: the whole registry produces feasible verified
// partitions on a generated circuit.
func TestEveryAlgorithmRuns(t *testing.T) {
	n := testNetlist(t)
	for _, algo := range prop.Algorithms() {
		o := prop.Options{Algorithm: algo, Runs: 2, Seed: 7}
		res, err := prop.Partition(n, o)
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		cost, nets, err := prop.Verify(n, res.Sides, o)
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if cost != res.CutCost || nets != res.CutNets {
			t.Errorf("%s: reported (%g,%d), verified (%g,%d)", algo, res.CutCost, res.CutNets, cost, nets)
		}
	}
}

// TestPROPBeatsFMOnAverage: the paper's headline ordering in aggregate
// over the seeds of a multi-start comparison on one circuit.
func TestPROPBeatsFMOnAverage(t *testing.T) {
	n, err := prop.Benchmark("p2")
	if err != nil {
		t.Fatal(err)
	}
	fmRes, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoFM, Runs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	propRes, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoPROP, Runs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if propRes.CutCost > fmRes.CutCost {
		t.Errorf("PROP best-of-10 (%g) worse than FM best-of-10 (%g) on p2", propRes.CutCost, fmRes.CutCost)
	}
}

// TestBalance4555 via the public API.
func TestBalance4555(t *testing.T) {
	n := testNetlist(t)
	o := prop.Options{Algorithm: prop.AlgoPROP, R1: 0.45, R2: 0.55, Runs: 3, Seed: 5}
	res, err := prop.Partition(n, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prop.Verify(n, res.Sides, o); err != nil {
		t.Error(err)
	}
}

// TestBadBalanceRejected: invalid criteria surface as errors. The
// internal side-0 window may be asymmetric, but a caller's (r1, r2) must
// still satisfy r1 = 1 − r2 at every entry point that takes one.
func TestBadBalanceRejected(t *testing.T) {
	n := testNetlist(t)
	o := prop.Options{R1: 0.3, R2: 0.6}
	if _, err := prop.Partition(n, o); err == nil {
		t.Error("Partition accepted r1+r2 != 1")
	}
	if _, err := prop.KWay(n, 3, o); err == nil {
		t.Error("KWay accepted r1+r2 != 1")
	}
	res, err := prop.Partition(n, prop.Options{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prop.Verify(n, res.Sides, o); err == nil {
		t.Error("Verify accepted r1+r2 != 1")
	}
}

// TestKWay: recursive 8-way FPGA-style split.
func TestKWay(t *testing.T) {
	n := testNetlist(t)
	res, err := prop.KWay(n, 8, prop.Options{Algorithm: prop.AlgoPROP, Runs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PartWeights) != 8 {
		t.Fatalf("%d parts", len(res.PartWeights))
	}
	for p, w := range res.PartWeights {
		if w < 35 || w > 65 {
			t.Errorf("part %d weight %d, want ≈ 50", p, w)
		}
	}
	if res, err := prop.KWay(n, 6, prop.Options{}); err != nil || len(res.PartWeights) != 6 {
		t.Errorf("k=6: %d parts, err %v", len(res.PartWeights), err)
	}
	// Every bisection algorithm recurses, including ml-prop and the empty
	// algorithm, which selects PROP.
	for _, algo := range []prop.Algorithm{prop.AlgoMLPROP, ""} {
		res, err := prop.KWay(n, 4, prop.Options{Algorithm: algo})
		if err != nil {
			t.Errorf("algo %q: %v", algo, err)
			continue
		}
		if len(res.PartWeights) != 4 {
			t.Errorf("algo %q: %d parts, want 4", algo, len(res.PartWeights))
		}
	}
}

// TestTimingDrivenWeights: re-costed nets steer the tree-based engines.
func TestTimingDrivenWeights(t *testing.T) {
	n := testNetlist(t)
	costs := make([]float64, n.NumNets())
	for i := range costs {
		costs[i] = 1
		if i%10 == 0 {
			costs[i] = 8 // critical nets
		}
	}
	wn, err := n.WithNetCosts(costs)
	if err != nil {
		t.Fatal(err)
	}
	// Bucket FM must refuse weighted nets; tree engines must accept.
	if _, err := prop.Partition(wn, prop.Options{Algorithm: prop.AlgoFM}); err == nil {
		t.Error("bucket FM accepted weighted nets")
	}
	for _, algo := range []prop.Algorithm{prop.AlgoFMTree, prop.AlgoPROP} {
		if _, err := prop.Partition(wn, prop.Options{Algorithm: algo, Runs: 2}); err != nil {
			t.Errorf("%s on weighted nets: %v", algo, err)
		}
	}
}

// TestRoundTripThroughFacade: builder -> HGR -> reader.
func TestRoundTripThroughFacade(t *testing.T) {
	b := prop.NewBuilder()
	b.EnsureNodes(4)
	if err := b.AddNet("x", 1, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddNet("y", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteHGR(&buf); err != nil {
		t.Fatal(err)
	}
	n2, err := prop.ReadHGR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n2.NumNodes() != 4 || n2.NumNets() != 2 || n2.NumPins() != 5 {
		t.Errorf("round trip got (%d,%d,%d)", n2.NumNodes(), n2.NumNets(), n2.NumPins())
	}
}

// TestBenchmarkRegistry: all sixteen circuits resolve and match Table 1.
func TestBenchmarkRegistry(t *testing.T) {
	names := prop.BenchmarkNames()
	if len(names) != 16 {
		t.Fatalf("%d benchmark names, want 16", len(names))
	}
	n, err := prop.Benchmark("balu")
	if err != nil {
		t.Fatal(err)
	}
	if n.NumNodes() != 801 || n.NumNets() != 735 || n.NumPins() != 2697 {
		t.Errorf("balu = (%d,%d,%d), want Table-1 (801,735,2697)", n.NumNodes(), n.NumNets(), n.NumPins())
	}
	if _, err := prop.Benchmark("nonesuch"); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("unknown benchmark error = %v", err)
	}
}

// TestDeterminism: fixed options give identical outcomes.
func TestDeterminism(t *testing.T) {
	n := testNetlist(t)
	o := prop.Options{Algorithm: prop.AlgoPROP, Runs: 3, Seed: 21}
	a, err := prop.Partition(n, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prop.Partition(n, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.CutCost != b.CutCost || a.BestRun != b.BestRun {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestExtensionAlgorithms exercises the SA, SK and multilevel facade paths
// specifically: SK preserves side sizes exactly, ML-PROP reports a single
// run, SA is seed-deterministic.
func TestExtensionAlgorithms(t *testing.T) {
	n := testNetlist(t)
	skRes, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoSK, Runs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var w0 int
	for _, s := range skRes.Sides {
		if s == 0 {
			w0++
		}
	}
	if w0 != n.NumNodes()/2 {
		t.Errorf("SK side-0 size %d, want %d", w0, n.NumNodes()/2)
	}
	ml, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoMLPROP, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ml.Runs != 1 {
		t.Errorf("ML-PROP Runs = %d, want 1", ml.Runs)
	}
	if _, _, err := prop.Verify(n, ml.Sides, prop.Options{}); err != nil {
		t.Error(err)
	}
	sa1, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoSA, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sa2, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoSA, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sa1.CutCost != sa2.CutCost {
		t.Errorf("SA nondeterministic: %g vs %g", sa1.CutCost, sa2.CutCost)
	}
}

// TestKWayAnyK: recursive KWay takes any k ≥ 2, not just powers of two,
// and every bisection's side 0 stays in its scaled window at 50-50 and
// 45-55.
func TestKWayAnyK(t *testing.T) {
	n := testNetlist(t)
	for _, r := range [][2]float64{{0.5, 0.5}, {0.45, 0.55}} {
		for _, k := range []int{3, 5, 6, 7} {
			res, err := prop.KWay(n, k, prop.Options{Runs: 2, Seed: 7, R1: r[0], R2: r[1]})
			if err != nil {
				t.Fatalf("k=%d %v: %v", k, r, err)
			}
			if len(res.PartWeights) != k {
				t.Fatalf("k=%d %v: %d parts", k, r, len(res.PartWeights))
			}
			checkKWayWindows(t, n, res, r[0], r[1])
		}
	}
	if _, err := prop.KWay(n, 1, prop.Options{}); err == nil {
		t.Error("accepted k=1")
	}
	// k = 3 scales the window by 4/3, so r2 = 0.75 leaves no valid side-0
	// window; the error names k.
	_, err := prop.KWay(n, 3, prop.Options{R1: 0.25, R2: 0.75})
	if err == nil || !strings.Contains(err.Error(), "K=3") {
		t.Errorf("k=3 at 25-75: err %v, want one naming K=3", err)
	}
}

// TestKWayKAboveNodeCount: a k above the node count cannot give every
// part a node. Every algorithm rejects it before any bisection runs, with
// an error that names k and the node count.
func TestKWayKAboveNodeCount(t *testing.T) {
	n, err := prop.Generate(prop.GenParams{Nodes: 120, Nets: 140, Pins: 480, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range prop.Algorithms() {
		_, err := prop.KWay(n, 121, prop.Options{Algorithm: algo, Runs: 1, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "K=121") || !strings.Contains(err.Error(), "120") {
			t.Errorf("%s: k=121 on 120 nodes: err %v, want one naming K=121 and 120 nodes", algo, err)
		}
	}
}

// checkKWayWindows checks every bisection of a recursive k-way result. In
// each k-part subtree, parts [base, base+⌈k/2⌉) are side 0, whose weight
// must lie in (r1, r2) scaled by 2·⌈k/2⌉/k and widened by one cell. Node
// weights must be unit.
func checkKWayWindows(t *testing.T, n *prop.Netlist, res prop.KWayResult, r1, r2 float64) {
	t.Helper()
	var total int64
	for _, w := range res.PartWeights {
		total += w
	}
	if total != int64(n.NumNodes()) {
		t.Fatalf("part weights sum to %d over %d nodes; want unit weights", total, n.NumNodes())
	}
	var walk func(base, k int)
	walk = func(base, k int) {
		if k < 2 {
			return
		}
		k0 := (k + 1) / 2
		var w, w0 int64
		for p, pw := range res.PartWeights[base : base+k] {
			w += pw
			if p < k0 {
				w0 += pw
			}
		}
		f := float64(2*k0) / float64(k)
		bal := partition.Balance{R1: r1 * f, R2: r2 * f}
		if !bal.FeasibleWithSlack(w0, w, 1) {
			lo, hi := bal.Bounds(w)
			t.Errorf("parts %d..%d weigh %d of %d, want %d..%d ± 1", base, base+k0-1, w0, w, lo, hi)
		}
		walk(base, k0)
		walk(base+k0, k-k0)
	}
	walk(0, len(res.PartWeights))
}

// TestAlgorithmsRegistryComplete: every registered algorithm is distinct
// and round-trips through Options.
func TestAlgorithmsRegistryComplete(t *testing.T) {
	algos := prop.Algorithms()
	if len(algos) != 13 {
		t.Fatalf("%d algorithms registered, want 13", len(algos))
	}
	seen := map[prop.Algorithm]bool{}
	for _, a := range algos {
		if seen[a] {
			t.Fatalf("duplicate algorithm %q", a)
		}
		seen[a] = true
	}
}

// TestNetlistAccessors: the facade exposes the structural queries examples
// rely on.
func TestNetlistAccessors(t *testing.T) {
	b := prop.NewBuilder()
	b.AddNode("x", 2)
	b.AddNode("y", 1)
	b.AddNode("", 1)
	if err := b.AddNet("n", 1, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n.NodeName(0) != "x" || n.NumPins() != 3 {
		t.Errorf("accessors: name=%q pins=%d", n.NodeName(0), n.NumPins())
	}
	if got := n.Net(0); len(got) != 3 {
		t.Errorf("Net(0) = %v", got)
	}
	if got := n.NetsOf(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("NetsOf(1) = %v", got)
	}
	s := n.Stats()
	if s.Nodes != 3 || s.Nets != 1 {
		t.Errorf("stats %+v", s)
	}
}
