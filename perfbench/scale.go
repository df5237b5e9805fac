package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"prop"
	"prop/internal/gen"
	"prop/internal/hgio"
	"prop/internal/hypergraph"
	"prop/internal/multilevel"
	"prop/internal/obs"
	"prop/internal/partition"
)

// The scale workload writes a generated circuit as HGR during set-up. Each
// timed repetition reads it back through hgio.ReadHGR, runs the in-place
// n-level partition under the 45–55% window (the million-node path's
// configuration), then the V-cycle on the same input. Here hgio,
// hypergraph.Contracted, cluster, multilevel and moves.Localized dominate
// and the flat PROP kernel is minor. The circuit has 30k nodes rather than
// 100k so that several repetitions fit a run; n-level is still the larger
// share (about 70% of a repetition). Both runs use a fixed seed
// (fixedSeed), so the job list is the same for every --seed.

const (
	scaleNodes = 30_000
	// scaleCircuitSeed fixes the circuit: like the golden circuits it is
	// one instance.
	scaleCircuitSeed = 1
	// scaleRepSeconds is the nominal repetition time on a 2-core host; it
	// fixes the repetition count (repCount).
	scaleRepSeconds = 8.0
	mib             = 1 << 20
)

// scaleLayers accumulates the traced repetitions' per-layer data.
type scaleLayers struct {
	all, nlevel, vcycle   events
	readMS                float64
	arenaMB, hierMB       float64
	nlevelLevels, vLevels []float64
}

func runScale(c *runCtx) error {
	reps := repCount(c.seconds, scaleRepSeconds)
	path := filepath.Join(c.workdir, "scale.hgr")
	params := gen.ScaleParams{Nodes: scaleNodes, Seed: scaleCircuitSeed}
	if _, err := timedSetup(c, func() (struct{}, error) { return struct{}{}, writeScaleHGR(path, params) }); err != nil {
		return err
	}
	// The public netlist the recounts use is read outside any timed region.
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	pub, err := prop.ReadHGR(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return err
	}
	c.inputs["nodes"], c.inputs["nets"], c.inputs["pins"] = pub.NumNodes(), pub.NumNets(), pub.NumPins()
	c.inputs["reps"] = reps

	var lay scaleLayers
	measureReps(c, reps, func(traced bool) []jobOut {
		return scaleRep(c, path, pub, traced, &lay)
	})
	if c.trace {
		// Sums over the traced repetitions, reported per job list.
		lay.all.scale(1 / float64(reps))
		lay.nlevel.scale(1 / float64(reps))
		lay.vcycle.scale(1 / float64(reps))
		lay.readMS /= float64(reps)
		c.metrics["core.prop_ms"] = lay.all.phaseMS["prop"]
		c.metrics["core.passes"] = lay.all.propPasses
		c.metrics["moves.moves"] = lay.all.moves
		c.metrics["moves.kept_ratio"] = ratio(lay.all.kept, lay.all.moves)
		c.metrics["hgio.read_ms"] = lay.readMS
		c.metrics["hypergraph.arena_mb"] = lay.arenaMB
		c.metrics["hypergraph.hier_mb"] = lay.hierMB
		c.metrics["cluster.nlevel_coarsen_ms"] = lay.nlevel.phaseMS["coarsen"]
		c.metrics["cluster.vcycle_coarsen_ms"] = lay.vcycle.phaseMS["coarsen"]
		c.metrics["multilevel.nlevel_initial_ms"] = lay.nlevel.phaseMS["initial"]
		c.metrics["multilevel.nlevel_uncoarsen_ms"] = lay.nlevel.phaseMS["uncoarsen"]
		c.metrics["multilevel.nlevel_levels"] = mean(lay.nlevelLevels)
		c.metrics["multilevel.vcycle_uncoarsen_ms"] = lay.vcycle.phaseMS["uncoarsen"]
		c.metrics["multilevel.vcycle_levels"] = mean(lay.vLevels)
	}
	return setPeakRSS(c)
}

func writeScaleHGR(path string, p gen.ScaleParams) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gen.WriteScaleHGR(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readHGR(path string) (*hypergraph.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hgio.ReadHGR(bufio.NewReader(f))
}

// scaleRep runs the job list once: read, n-level, V-cycle.
func scaleRep(c *runCtx, path string, pub *prop.Netlist, traced bool, lay *scaleLayers) []jobOut {
	c.attempted++
	start := time.Now()
	h, err := readHGR(path)
	read := time.Since(start)
	if err != nil {
		c.fail("scale read: %v", err)
		return nil
	}
	if h.NumNodes() != pub.NumNodes() || h.NumPins() != pub.NumPins() {
		c.fail("scale read: %d nodes %d pins, want %d and %d", h.NumNodes(), h.NumPins(), pub.NumNodes(), pub.NumPins())
		return nil
	}
	outs := []jobOut{{name: "read", dur: read}}
	if traced {
		lay.readMS += float64(read.Microseconds()) / 1000
		lay.arenaMB = max(lay.arenaMB, float64(h.ArenaBytes())/mib)
	}

	for _, mode := range []string{multilevel.ModeNLevel, multilevel.ModeVCycle} {
		cfg := multilevel.Config{Balance: partition.B4555(), Mode: mode, Seed: fixedSeed}
		if mode == multilevel.ModeNLevel {
			cfg.InPlace = true
		}
		var buf bytes.Buffer
		if traced {
			cfg.Tracer = obs.New(&buf, obs.LevelPass)
		}
		c.attempted++
		start := time.Now()
		res, err := multilevel.Partition(h, cfg)
		dur := time.Since(start)
		if err == nil {
			err = verifyScale(pub, res.Sides, res.CutCost)
		}
		if err != nil {
			c.fail("scale %s: %v", mode, err)
			continue
		}
		outs = append(outs, jobOut{name: mode, cut: res.CutCost, dur: dur})
		if !traced {
			continue
		}
		ev, err := parseEvents(buf.Bytes())
		if err != nil {
			c.problem("scale %s trace: %v", mode, err)
		}
		lay.all.add(ev)
		if mode == multilevel.ModeNLevel {
			lay.nlevel.add(ev)
			lay.nlevelLevels = append(lay.nlevelLevels, float64(res.Levels))
			lay.hierMB = max(lay.hierMB, float64(res.HierarchyBytes)/mib)
		} else {
			lay.vcycle.add(ev)
			lay.vLevels = append(lay.vLevels, float64(res.Levels))
		}
	}
	return outs
}

// verifyScale recounts a scale result under the 45–55% window.
func verifyScale(n *prop.Netlist, sides []uint8, cut float64) error {
	got, _, err := prop.Verify(n, sides, prop.Options{R1: 0.45, R2: 0.55})
	if err != nil {
		return err
	}
	if got != cut {
		return fmt.Errorf("reported cut %g, recount %g", cut, got)
	}
	return nil
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
