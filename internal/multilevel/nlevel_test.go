package multilevel

import (
	"context"
	"errors"
	"io"
	"testing"

	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/obs"
	"prop/internal/partition"
)

// TestNLevelContract: the n-level mode produces a feasible partition with
// exact bookkeeping and a deep hierarchy (one level per contraction), and
// times each of its phases.
func TestNLevelContract(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 800, Nets: 860, Pins: 2950, Seed: 95})
	bal := partition.Exact5050()
	res, err := Partition(h, Config{Balance: bal, Mode: ModeNLevel, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels < 600 {
		t.Errorf("only %d n-level contractions for 800 nodes", res.Levels)
	}
	if p := res.NLevel; p.Coarsen <= 0 || p.Initial <= 0 || p.Uncontract <= 0 || p.Refine <= 0 || p.Polish <= 0 {
		t.Errorf("phase times %+v, want every phase timed", p)
	}
	b, err := partition.NewBisection(h, res.Sides)
	if err != nil {
		t.Fatal(err)
	}
	if b.CutCost() != res.CutCost || b.CutNets() != res.CutNets {
		t.Errorf("reported (%g,%d), recount (%g,%d)", res.CutCost, res.CutNets, b.CutCost(), b.CutNets())
	}
	if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
		t.Errorf("unbalanced: %d of %d", b.SideWeight(0), h.TotalNodeWeight())
	}
}

// TestNLevelDeterministic: fixed seed, fixed result, in both arena modes —
// and the in-place run must agree with the copy run bit for bit, since the
// hierarchy only ever reads the view.
func TestNLevelDeterministic(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 400, Nets: 430, Pins: 1500, Seed: 99})
	bal := partition.Exact5050()
	run := func(inPlace bool) Result {
		res, err := Partition(h, Config{Balance: bal, Mode: ModeNLevel, InPlace: inPlace, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(false)
	if a.CutCost != b.CutCost {
		t.Fatalf("copy-mode runs differ: %g vs %g", a.CutCost, b.CutCost)
	}
	c := run(true)
	if c.CutCost != a.CutCost {
		t.Fatalf("in-place run %g differs from copy run %g", c.CutCost, a.CutCost)
	}
	for u, s := range a.Sides {
		if c.Sides[u] != s {
			t.Fatalf("in-place side assignment diverges at node %d", u)
		}
	}
}

// TestNLevelInPlaceRestoresInput: after an in-place run, in either mode,
// the hypergraph is bit-identical to a pristine build — pin order
// included — so a cached hypergraph can be reused for the next job.
func TestNLevelInPlaceRestoresInput(t *testing.T) {
	p := gen.Params{Nodes: 500, Nets: 540, Pins: 1850, Seed: 97}
	pristine := gen.MustGenerate(p)
	for _, mode := range []string{ModeVCycle, ModeNLevel} {
		h := gen.MustGenerate(p)
		if _, err := Partition(h, Config{Balance: partition.B4555(), Mode: mode, InPlace: true, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, mode, h, pristine)
	}
}

// TestPartitionCtxCancelRestoresInput: a context cancelled mid-run — here
// by the tracer's phase hook as the coarsest-level initial partition ends
// — stops both modes with context.Canceled, and the in-place unwind still
// hands the input back unchanged.
func TestPartitionCtxCancelRestoresInput(t *testing.T) {
	p := gen.Params{Nodes: 500, Nets: 540, Pins: 1850, Seed: 97}
	pristine := gen.MustGenerate(p)
	for _, mode := range []string{ModeVCycle, ModeNLevel} {
		h := gen.MustGenerate(p)
		ctx, cancel := context.WithCancel(context.Background())
		tr := obs.New(io.Discard, obs.LevelRun).WithPhaseHook(func(ph obs.Phase) {
			if ph.Name == "initial" {
				cancel()
			}
		})
		_, err := PartitionCtx(ctx, h, Config{
			Balance: partition.B4555(), Mode: mode, InPlace: true, Seed: 3, Tracer: tr,
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", mode, err)
		}
		requireIdentical(t, mode, h, pristine)
	}
}

// requireIdentical fails unless h matches pristine net for net, pin
// order and node weights included, and still validates.
func requireIdentical(t *testing.T, mode string, h, pristine *hypergraph.Hypergraph) {
	t.Helper()
	if err := h.Validate(); err != nil {
		t.Fatalf("%s: hypergraph corrupt after in-place run: %v", mode, err)
	}
	for e := 0; e < h.NumNets(); e++ {
		got, want := h.Net(e), pristine.Net(e)
		if len(got) != len(want) {
			t.Fatalf("%s: net %d size changed: %d vs %d", mode, e, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: net %d pin order changed at slot %d", mode, e, i)
			}
		}
	}
	for u := 0; u < h.NumNodes(); u++ {
		if h.NodeWeight(u) != pristine.NodeWeight(u) {
			t.Fatalf("%s: node %d weight changed", mode, u)
		}
	}
}

// TestNLevelComparableToVCycle: on a generated instance the n-level result
// must land in the same quality regime as the V-cycle — the acceptance gate
// proper (cut ≤ V-cycle on the golden five) runs in the facade golden suite;
// here we bound the internal driver loosely to catch wiring regressions
// without pinning a second set of goldens.
func TestNLevelComparableToVCycle(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 1000, Nets: 1080, Pins: 3700, Seed: 96})
	bal := partition.Exact5050()
	nl, err := Partition(h, Config{Balance: bal, Mode: ModeNLevel, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := Partition(h, Config{Balance: bal, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if nl.CutCost > 1.5*vc.CutCost {
		t.Errorf("n-level cut %g far worse than V-cycle %g", nl.CutCost, vc.CutCost)
	}
	if vc.NLevel != (NLevelTimes{}) {
		t.Errorf("V-cycle reports n-level phase times %+v", vc.NLevel)
	}
}

// TestNLevelUnknownMode: a typo'd mode is an error, not a silent V-cycle.
func TestNLevelUnknownMode(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 100, Nets: 110, Pins: 380, Seed: 1})
	if _, err := Partition(h, Config{Balance: partition.Exact5050(), Mode: "zlevel"}); err == nil {
		t.Fatal("mode \"zlevel\" accepted")
	}
}
