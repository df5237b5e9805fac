package main

import (
	"bytes"
	"fmt"
	"time"

	"prop"
	"prop/internal/gen"
)

// The suite workload is the paper's protocol as library calls at
// Parallel 1 on the golden circuits: per circuit a multi-start PROP, FM
// and flow portfolio and an ml-prop V-cycle, plus a 4-way recursive PROP
// KWay on p2 and a 5% ECO Repartition of industry2 warm-started from the
// repetition's own PROP result. core, moves, flow, engine, delta and warm
// do nearly all the work; the hierarchy, HTTP and journal layers almost
// none. One worker, because at two the scheduler's noise swamps the
// solver's. Every job, and the ECO delta, runs a fixed seed (fixedSeed),
// so the job list is the same for every --seed.

var goldenCircuits = []string{"balu", "struct", "p2", "industry2"}

const (
	suiteRuns = 2 // multi-start runs per portfolio job
	// suiteRepSeconds is the nominal job-list time on a 2-core host; it
	// fixes the repetition count (repCount).
	suiteRepSeconds = 6.5
	suiteKWayParts  = 4
	ecoFraction     = 0.05
)

type suiteInput struct {
	nets []*prop.Netlist // goldenCircuits order
	eco  *prop.Delta     // the industry2 ECO
}

func suiteSetup() (suiteInput, error) {
	var in suiteInput
	for _, name := range goldenCircuits {
		n, err := prop.Benchmark(name)
		if err != nil {
			return in, err
		}
		in.nets = append(in.nets, n)
	}
	var spec gen.SuiteSpec
	for _, s := range gen.Table1() {
		if s.Name == "industry2" {
			spec = s
		}
	}
	c, err := gen.SuiteCircuit(spec)
	if err != nil {
		return in, err
	}
	in.eco, err = gen.ECO(c.H, gen.ECOParams{Fraction: ecoFraction, Seed: fixedSeed})
	return in, err
}

// suiteLayers accumulates the traced repetitions' per-layer data.
type suiteLayers struct {
	all, vcycle, eco events
	vcycleJobs       int
	runMS            []float64
	kwayMS           float64
}

func runSuite(c *runCtx) error {
	reps := repCount(c.seconds, suiteRepSeconds)
	in, err := timedSetup(c, func() (suiteInput, error) { return suiteSetup() })
	if err != nil {
		return err
	}
	nodes, nets, pins := 0, 0, 0
	for _, n := range in.nets {
		nodes, nets, pins = nodes+n.NumNodes(), nets+n.NumNets(), pins+n.NumPins()
	}
	c.inputs["circuits"] = goldenCircuits
	c.inputs["nodes"], c.inputs["nets"], c.inputs["pins"] = nodes, nets, pins
	c.inputs["reps"], c.inputs["runs_per_portfolio"] = reps, suiteRuns

	var lay suiteLayers
	measureReps(c, reps, func(traced bool) []jobOut {
		return suiteRep(c, &in, traced, &lay)
	})
	if c.trace {
		c.metrics["multilevel.vcycle_levels"] = ratio(lay.vcycle.phaseN["coarsen"], float64(lay.vcycleJobs))
		// Sums over the traced repetitions, reported per job list.
		lay.all.scale(1 / float64(reps))
		lay.vcycle.scale(1 / float64(reps))
		lay.eco.scale(1 / float64(reps))
		ev := lay.all
		c.metrics["engine.runs"] = float64(len(lay.runMS)) / float64(reps)
		c.metrics["engine.run_ms_p50"] = percentile(lay.runMS, 50)
		c.metrics["core.prop_ms"] = ev.phaseMS["prop"]
		c.metrics["core.passes"] = ev.propPasses
		c.metrics["moves.moves"] = ev.moves
		c.metrics["moves.kept_ratio"] = ratio(ev.kept, ev.moves)
		c.metrics["fm.fm_ms"] = ev.phaseMS["fm"] + ev.phaseMS["fm-tree"]
		c.metrics["flow.corridor_ms"] = ev.phaseMS["corridor"]
		c.metrics["flow.dinic_ms"] = ev.phaseMS["dinic"]
		c.metrics["flow.rounds"] = ev.flowRounds
		c.metrics["flow.adopt_ratio"] = ratio(ev.flowAdopted, ev.flowRounds)
		c.metrics["multiway.kway_ms"] = lay.kwayMS / float64(reps)
		c.metrics["delta.apply_ms"] = lay.eco.deltaApplyMS
		c.metrics["warm.chain_ms"] = lay.eco.phaseMS["warm-prop"] + lay.eco.phaseMS["polish"]
		c.metrics["cluster.vcycle_coarsen_ms"] = lay.vcycle.phaseMS["coarsen"]
		c.metrics["multilevel.vcycle_uncoarsen_ms"] = lay.vcycle.phaseMS["uncoarsen"]
	}
	return setPeakRSS(c)
}

// suiteRep runs the job list once. Each job is timed alone; its output
// check runs after the clock stops.
func suiteRep(c *runCtx, in *suiteInput, traced bool, lay *suiteLayers) []jobOut {
	var outs []jobOut
	// exec runs one job: call performs the library call and returns its
	// cut and the check to run once the clock has stopped.
	exec := func(name string, algo prop.Algorithm, call func(o prop.Options) (float64, func() error, error)) events {
		o := prop.Options{Algorithm: algo, Runs: suiteRuns, Seed: fixedSeed, Parallel: 1}
		var buf bytes.Buffer
		var stamps []time.Time
		if traced {
			o.Tracer = prop.NewTracer(&buf, prop.TracePasses)
			o.OnRun = func(prop.RunUpdate) { stamps = append(stamps, time.Now()) }
		}
		c.attempted++
		start := time.Now()
		cut, check, err := call(o)
		dur := time.Since(start)
		if err == nil {
			err = check()
		}
		if err != nil {
			c.fail("suite %s: %v", name, err)
			return events{}
		}
		outs = append(outs, jobOut{name: name, cut: cut, dur: dur})
		if !traced {
			return events{}
		}
		prev := start
		for _, t := range stamps {
			lay.runMS = append(lay.runMS, float64(t.Sub(prev).Microseconds())/1000)
			prev = t
		}
		ev, err := parseEvents(buf.Bytes())
		if err != nil {
			c.problem("suite %s trace: %v", name, err)
		}
		lay.all.add(ev)
		return ev
	}

	for i, name := range goldenCircuits {
		n := in.nets[i]
		var propSides []uint8
		for _, algo := range []prop.Algorithm{prop.AlgoPROP, prop.AlgoFM, prop.AlgoFlow, prop.AlgoMLPROP} {
			algo := algo
			ev := exec(name+"/"+string(algo), algo, func(o prop.Options) (float64, func() error, error) {
				res, err := prop.Partition(n, o)
				if err != nil {
					return 0, nil, err
				}
				if algo == prop.AlgoPROP {
					propSides = res.Sides
				}
				return res.CutCost, func() error { return verifyCut(n, res.Sides, res.CutCost) }, nil
			})
			if traced && algo == prop.AlgoMLPROP {
				lay.vcycle.add(ev)
				lay.vcycleJobs++
			}
		}
		switch name {
		case "p2":
			exec(name+"/kway", prop.AlgoPROP, func(o prop.Options) (float64, func() error, error) {
				start := time.Now()
				res, err := prop.KWay(n, suiteKWayParts, o)
				if traced {
					lay.kwayMS += float64(time.Since(start).Microseconds()) / 1000
				}
				if err != nil {
					return 0, nil, err
				}
				return res.CutCost, func() error { return verifyKWay(n, res, suiteKWayParts) }, nil
			})
		case "industry2":
			if propSides == nil {
				c.fail("suite %s/eco: no PROP result to warm-start from", name)
				continue
			}
			ev := exec(name+"/eco", prop.AlgoPROP, func(o prop.Options) (float64, func() error, error) {
				edited, res, err := prop.Repartition(n, propSides, in.eco, o)
				if err != nil {
					return 0, nil, err
				}
				return res.CutCost, func() error { return verifyCut(edited, res.Sides, res.CutCost) }, nil
			})
			lay.eco.add(ev)
		}
	}
	return outs
}

// verifyCut recounts a bisection from scratch under the default balance
// and compares it with the reported cut.
func verifyCut(n *prop.Netlist, sides []uint8, cut float64) error {
	got, _, err := prop.Verify(n, sides, prop.Options{})
	if err != nil {
		return err
	}
	if got != cut {
		return fmt.Errorf("reported cut %g, recount %g", cut, got)
	}
	return nil
}

// verifyKWay recounts the nets a k-way assignment cuts and checks that
// every node has a part and no part is empty.
func verifyKWay(n *prop.Netlist, res prop.KWayResult, k int) error {
	if len(res.Parts) != n.NumNodes() || len(res.PartWeights) != k {
		return fmt.Errorf("%d parts for %d nodes, %d weights for k=%d", len(res.Parts), n.NumNodes(), len(res.PartWeights), k)
	}
	for u, p := range res.Parts {
		if p < 0 || p >= k {
			return fmt.Errorf("node %d in part %d", u, p)
		}
	}
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
		return fmt.Errorf("reported %d cut nets, recount %d", res.CutNets, cut)
	}
	for p, w := range res.PartWeights {
		if w <= 0 {
			return fmt.Errorf("part %d is empty", p)
		}
	}
	return nil
}
