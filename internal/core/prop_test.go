package core_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"prop/internal/core"
	"prop/internal/gen"
	"prop/internal/partition"
)

// naiveGain recomputes a node's probabilistic gain directly from Eqns. 3–4
// by iterating net pins, independent of the Calculator's cached products.
func naiveGain(c *core.Calculator, u int) float64 {
	h := c.B.H
	s := c.B.Side(u)
	t := 1 - s
	free := func(side uint8, e, excl int) float64 {
		if c.LockedPins(side, e) > 0 {
			return 0
		}
		p := 1.0
		for _, v := range h.Net(e) {
			if int(v) == excl || c.Locked[v] || c.B.Side(int(v)) != side {
				continue
			}
			p *= c.P[v]
		}
		return p
	}
	var g float64
	for _, e32 := range h.NetsOf(u) {
		e := int(e32)
		cost := h.NetCost(e)
		if c.B.PinCount(t, e) > 0 {
			g += cost * (free(s, e, u) - free(t, e, -1))
		} else {
			g += -cost * (1 - free(s, e, u))
		}
	}
	return g
}

// TestCalculatorMatchesNaive drives the Calculator through random SetP and
// MoveLock sequences and checks every node's cached-product gain against
// the naive per-pin recomputation — the core correctness invariant of the
// §3.4 incremental update scheme.
func TestCalculatorMatchesNaive(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 120, Nets: 140, Pins: 470, Seed: 81})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bal := partition.Exact5050()
		b, err := partition.NewBisection(h, partition.RandomSides(h, bal, rng))
		if err != nil {
			return false
		}
		c := core.NewCalculator(b)
		for u := range c.P {
			c.P[u] = 0.4 + 0.55*rng.Float64()
		}
		c.Rebuild()
		for step := 0; step < 150; step++ {
			u := rng.Intn(h.NumNodes())
			switch {
			case c.Locked[u]:
				continue
			case rng.Intn(3) == 0:
				c.MoveLock(u)
			default:
				c.SetP(u, 0.4+0.55*rng.Float64())
			}
		}
		for u := 0; u < h.NumNodes(); u++ {
			if c.Locked[u] {
				continue
			}
			if d := c.Gain(u) - naiveGain(c, u); math.Abs(d) > 1e-9 {
				t.Logf("node %d: cached %g vs naive %g", u, c.Gain(u), naiveGain(c, u))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMoveLockImmediateGain: MoveLock's returned immediate gain equals the
// deterministic Eqn.-1 gain before the move.
func TestMoveLockImmediateGain(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 100, Nets: 120, Pins: 400, Seed: 82})
	rng := rand.New(rand.NewSource(1))
	b, err := partition.NewBisection(h, partition.RandomSides(h, partition.Exact5050(), rng))
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCalculator(b)
	for u := range c.P {
		c.P[u] = 0.5
	}
	c.Rebuild()
	for i := 0; i < 40; i++ {
		u := rng.Intn(h.NumNodes())
		if c.Locked[u] {
			continue
		}
		want := b.Gain(u)
		if got := c.MoveLock(u); got != want {
			t.Fatalf("MoveLock(%d) = %g, deterministic gain %g", u, got, want)
		}
	}
}

// TestProbabilityFunction: monotone, clamped, hits the exact thresholds
// (§3.2), via testing/quick.
func TestProbabilityFunction(t *testing.T) {
	cfg := core.DefaultConfig(partition.Exact5050())
	if p := cfg.Probability(cfg.GUp); p != cfg.PMax {
		t.Errorf("f(gup) = %g, want pmax %g", p, cfg.PMax)
	}
	if p := cfg.Probability(cfg.GLo - 1e-9); p != cfg.PMin {
		t.Errorf("f(glo−) = %g, want pmin %g", p, cfg.PMin)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		pa, pb := cfg.Probability(a), cfg.Probability(b)
		return pa <= pb && pa >= cfg.PMin && pb <= cfg.PMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestConfigValidate covers the §3.2 constraint checks.
func TestConfigValidate(t *testing.T) {
	base := core.DefaultConfig(partition.Exact5050())
	mutations := []func(*core.Config){
		func(c *core.Config) { c.PMin = 0 }, // pmin must be > 0 (§3.2 footnote)
		func(c *core.Config) { c.PMin = 0.99; c.PMax = 0.5 },
		func(c *core.Config) { c.PMax = 1.5 },
		func(c *core.Config) { c.GLo = 2; c.GUp = 1 },
		func(c *core.Config) { c.PInit = 0 },
		func(c *core.Config) { c.Refinements = -1 },
		func(c *core.Config) { c.TopK = -1 },
		func(c *core.Config) { c.Balance = partition.Balance{R1: 0.6, R2: 0.4} },
	}
	for i, mut := range mutations {
		cfg := base
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestPartitionContract: improvement, balance, bookkeeping, both init
// methods, both balance criteria.
func TestPartitionContract(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 500, Nets: 550, Pins: 1900, Seed: 83})
	for _, init := range []core.InitMethod{core.InitBlind, core.InitDeterministic} {
		for _, bal := range []partition.Balance{partition.Exact5050(), partition.B4555()} {
			rng := rand.New(rand.NewSource(9))
			b, err := partition.NewBisection(h, partition.RandomSides(h, bal, rng))
			if err != nil {
				t.Fatal(err)
			}
			initial := b.CutCost()
			cfg := core.DefaultConfig(bal)
			cfg.Init = init
			res, err := core.Partition(b, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", init, bal, err)
			}
			if res.CutCost >= initial {
				t.Errorf("%v/%v: no improvement (%g -> %g)", init, bal, initial, res.CutCost)
			}
			if err := b.Verify(); err != nil {
				t.Errorf("%v/%v: %v", init, bal, err)
			}
			if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
				t.Errorf("%v/%v: unbalanced", init, bal)
			}
			if res.Passes < 1 || res.Moves < 1 {
				t.Errorf("%v/%v: %d passes %d moves", init, bal, res.Passes, res.Moves)
			}
		}
	}
}

// TestZeroRefinements: the degenerate configuration still works (gains
// computed once from the seed probabilities).
func TestZeroRefinements(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 200, Nets: 220, Pins: 740, Seed: 84})
	bal := partition.Exact5050()
	rng := rand.New(rand.NewSource(2))
	b, err := partition.NewBisection(h, partition.RandomSides(h, bal, rng))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(bal)
	cfg.Refinements = 0
	if _, err := core.Partition(b, cfg); err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(); err != nil {
		t.Error(err)
	}
}

// TestDeterministic: identical inputs give identical outputs.
func TestDeterministic(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 250, Nets: 270, Pins: 950, Seed: 86})
	bal := partition.Exact5050()
	run := func() float64 {
		rng := rand.New(rand.NewSource(12))
		b, err := partition.NewBisection(h, partition.RandomSides(h, bal, rng))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Partition(b, core.DefaultConfig(bal))
		if err != nil {
			t.Fatal(err)
		}
		return res.CutCost
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs differ: %g vs %g", a, b)
	}
}

// TestPassTrajectory: PassCuts is monotone non-increasing (each pass keeps
// only a non-negative-gain prefix) and matches the final cut.
func TestPassTrajectory(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 400, Nets: 430, Pins: 1500, Seed: 87})
	bal := partition.Exact5050()
	rng := rand.New(rand.NewSource(7))
	b, err := partition.NewBisection(h, partition.RandomSides(h, bal, rng))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(b, core.DefaultConfig(bal))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PassCuts) != res.Passes {
		t.Fatalf("%d pass cuts for %d passes", len(res.PassCuts), res.Passes)
	}
	for i := 1; i < len(res.PassCuts); i++ {
		if res.PassCuts[i] > res.PassCuts[i-1] {
			t.Errorf("pass %d worsened the cut: %g -> %g", i+1, res.PassCuts[i-1], res.PassCuts[i])
		}
	}
	if res.PassCuts[len(res.PassCuts)-1] != res.CutCost {
		t.Errorf("trajectory end %g != final cut %g", res.PassCuts[len(res.PassCuts)-1], res.CutCost)
	}
}
