package core

import (
	"math/rand"
	"testing"

	"prop/internal/gen"
	"prop/internal/obs"
	"prop/internal/partition"
)

func obsTestEngine(t *testing.T) *passEngine {
	t.Helper()
	h, err := gen.Generate(gen.Params{Nodes: 200, Nets: 230, Pins: 760, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(partition.Exact5050())
	rng := rand.New(rand.NewSource(5))
	bis, err := partition.NewBisection(h, partition.RandomSides(h, cfg.Balance, rng))
	if err != nil {
		t.Fatal(err)
	}
	return newPassEngine(bis, cfg)
}

// TestPassRefreshCounters: an untraced pass still counts its refresh
// effort, the counters add up, and the change stamps skip most refreshes.
func TestPassRefreshCounters(t *testing.T) {
	e := obsTestEngine(t)
	e.loop().RunPass()
	var ev obs.Pass
	e.FillPass(&ev)
	n := e.b.H.NumNodes()
	if ev.SweptNodes < n || ev.Refreshes == 0 {
		t.Fatalf("swept %d (want ≥ %d), refreshes %d (want > 0)", ev.SweptNodes, n, ev.Refreshes)
	}
	if ev.GainEvals != ev.SweptNodes+ev.Refreshes-ev.StampSkips {
		t.Errorf("gain evals %d, want swept %d + refreshes %d − stamp skips %d",
			ev.GainEvals, ev.SweptNodes, ev.Refreshes, ev.StampSkips)
	}
	if ev.StampSkips*2 < ev.Refreshes || ev.StampSkips > ev.Refreshes {
		t.Errorf("stamps skipped %d of %d refreshes, want at least half", ev.StampSkips, ev.Refreshes)
	}
	t.Logf("swept %d, refreshes %d, stamp skips %d", ev.SweptNodes, ev.Refreshes, ev.StampSkips)
}
