package gen

import (
	"fmt"
	"math/rand"

	"prop/internal/hypergraph"
)

// Params describes a synthetic circuit. The generator uses a window
// locality model: node IDs are laid out along a line (a 1-D placement),
// and each net occupies a window whose width is its pin count plus a
// geometrically distributed spread — most nets are tightly local,
// exponentially fewer reach across large regions, and the windows are not
// aligned to any block boundary. This mirrors the wire-length distribution
// of placed VLSI netlists (Rent's rule locality) while avoiding the
// artificially crisp cut boundaries a rigid block hierarchy would create;
// partitioners therefore face the same fuzzy local-minimum landscape real
// circuits present, which is what differentiates FM, LA and PROP in the
// paper's Tables 2–3.
type Params struct {
	Nodes int
	Nets  int
	Pins  int // total pin budget; mean net size = Pins/Nets
	// MeanSpread is the mean of the geometric extra window width beyond
	// the net's pin count (0 selects the default 10). Larger values make
	// nets less local and instances easier for restart-based methods.
	MeanSpread float64
	// CrossFrac is the fraction of nets whose window lives in a second,
	// independent random ordering of the nodes (negative disables; 0
	// selects the default 0.05). Cross nets are what make real netlists
	// non-embeddable in one dimension: without them a single vertex
	// ordering recovers the whole structure and clustering/spectral
	// methods win trivially, inverting the paper's Tables 2–3.
	CrossFrac float64
	// CorrFrac is the fraction of nets that duplicate (with one pin
	// re-drawn) the pin set of an earlier net, modeling correlated net
	// groups — bus bits, register banks, fanout cones (negative disables;
	// 0 selects the default 0.3). Correlated groups create the deep
	// move-sequence plateaus on which lookahead and probabilistic gains
	// beat FM's myopic gain, as in the paper's Figure-1 discussion.
	CorrFrac float64
	// HubFrac is the fraction of nets that are global hubs — high-fanout
	// nets (clock, reset, scan, control) with 20 to Nodes/8 pins drawn
	// uniformly over the whole circuit (negative disables; 0 selects the
	// default 0.02). Hubs are a defining feature of real netlists; their
	// clique expansions poison spectral and quadratic-placement methods,
	// which is why EIG1/MELO/PARABOLI trail the iterative methods in the
	// paper's Table 3.
	HubFrac float64
	// MaxNetSize caps pins per net (0 selects min(max(8, Nodes/4), 40)).
	MaxNetSize int
	Seed       int64
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Nodes < 4 {
		return fmt.Errorf("gen: Nodes=%d, want ≥ 4", p.Nodes)
	}
	if p.Nets < 1 {
		return fmt.Errorf("gen: Nets=%d, want ≥ 1", p.Nets)
	}
	if p.Pins < 2*p.Nets {
		return fmt.Errorf("gen: Pins=%d < 2·Nets=%d (every net needs ≥ 2 pins)", p.Pins, 2*p.Nets)
	}
	if p.MeanSpread < 0 {
		return fmt.Errorf("gen: MeanSpread=%g < 0", p.MeanSpread)
	}
	if p.CrossFrac > 1 {
		return fmt.Errorf("gen: CrossFrac=%g > 1", p.CrossFrac)
	}
	if p.CorrFrac > 1 {
		return fmt.Errorf("gen: CorrFrac=%g > 1", p.CorrFrac)
	}
	if p.HubFrac > 1 {
		return fmt.Errorf("gen: HubFrac=%g > 1", p.HubFrac)
	}
	return nil
}

// Generate synthesizes the circuit. The result is deterministic in Params
// (including Seed); node, net and pin counts match the request exactly.
func Generate(p Params) (*hypergraph.Hypergraph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.MeanSpread == 0 {
		p.MeanSpread = 10
	}
	switch {
	case p.CrossFrac == 0:
		p.CrossFrac = 0.05
	case p.CrossFrac < 0:
		p.CrossFrac = 0
	}
	switch {
	case p.CorrFrac == 0:
		p.CorrFrac = 0.3
	case p.CorrFrac < 0:
		p.CorrFrac = 0
	}
	switch {
	case p.HubFrac == 0:
		p.HubFrac = 0.02
	case p.HubFrac < 0:
		p.HubFrac = 0
	}
	maxNetSize := p.MaxNetSize
	if maxNetSize == 0 {
		maxNetSize = p.Nodes / 4
		if maxNetSize < 8 {
			maxNetSize = 8
		}
		if maxNetSize > 40 {
			maxNetSize = 40
		}
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// Distribute the pin budget: every net gets 2 pins; hub nets (the
	// first nHubs indices) take large sizes first; the remainder is
	// sprinkled uniformly over the rest, capped at maxNetSize.
	sizes := make([]int, p.Nets)
	for i := range sizes {
		sizes[i] = 2
	}
	budget := p.Pins - 2*p.Nets
	nHubs := int(p.HubFrac * float64(p.Nets))
	hubMax := p.Nodes / 8
	if hubMax > 200 {
		hubMax = 200
	}
	if hubMax <= 22 {
		nHubs = 0 // circuit too small for meaningful hubs
	}
	for i := 0; i < nHubs && budget > 0; i++ {
		s := 20 + rng.Intn(hubMax-20)
		if s-2 > budget {
			s = budget + 2
		}
		sizes[i] = s
		budget -= s - 2
	}
	for budget > 0 {
		i := rng.Intn(p.Nets)
		if i < nHubs {
			continue
		}
		if sizes[i] < maxNetSize {
			sizes[i]++
			budget--
		}
	}

	b := hypergraph.NewBuilder()
	b.Reserve(p.Nodes, p.Nets, p.Pins)
	b.EnsureNodes(p.Nodes)
	degree := make([]int, p.Nodes)
	seen := make(map[int]bool, maxNetSize)
	type window struct{ lo, hi int }
	wins := make([]window, p.Nets)
	allPins := make([][]int, p.Nets)
	// Every net's pins are carved from one arena: net i never holds more
	// than sizes[i] pins.
	total := 0
	for _, q := range sizes {
		total += q
	}
	arena := make([]int, total)
	// Geometric spread with the given mean: P(extra ≥ k+1 | ≥ k) = ρ.
	rho := p.MeanSpread / (p.MeanSpread + 1)
	// Second, independent ordering for cross nets.
	perm := rng.Perm(p.Nodes)

	for i := 0; i < p.Nets; i++ {
		q := sizes[i]
		for k := range seen {
			delete(seen, k)
		}
		pins := arena[:0:q]
		arena = arena[q:]
		var lo, hi int
		if i < nHubs {
			// Global hub net: pins uniform over the whole circuit.
			lo, hi = 0, p.Nodes
			for len(pins) < q {
				u := rng.Intn(p.Nodes)
				if !seen[u] {
					seen[u] = true
					pins = append(pins, u)
				}
			}
		} else if i > nHubs && rng.Float64() < p.CorrFrac {
			// Correlated net: share most pins with an earlier net, re-draw
			// the rest within the parent's window.
			j := rng.Intn(i)
			base := allPins[j]
			lo, hi = wins[j].lo, wins[j].hi
			// The parent window may be smaller than this net's pin count;
			// widen it symmetrically until sampling q distinct pins is
			// possible.
			for hi-lo < q+2 {
				if lo > 0 {
					lo--
				}
				if hi < p.Nodes {
					hi++
				}
				if lo == 0 && hi == p.Nodes {
					break
				}
			}
			keep := q - 1
			if keep > len(base) {
				keep = len(base)
			}
			for _, bi := range rng.Perm(len(base))[:keep] {
				u := base[bi]
				if !seen[u] {
					seen[u] = true
					pins = append(pins, u)
				}
			}
			for len(pins) < q {
				u := lo + rng.Intn(hi-lo)
				if !seen[u] {
					seen[u] = true
					pins = append(pins, u)
				}
			}
		} else {
			w := q
			for rng.Float64() < rho && w < p.Nodes {
				w++
			}
			lo = rng.Intn(p.Nodes - w + 1)
			hi = lo + w
			cross := rng.Float64() < p.CrossFrac
			for len(pins) < q {
				u := lo + rng.Intn(w)
				if cross {
					u = perm[u]
				}
				if !seen[u] {
					seen[u] = true
					pins = append(pins, u)
				}
			}
			if cross {
				// A cross net's window is meaningless in primary
				// coordinates; record the full range so connectivity
				// repair stays valid.
				lo, hi = 0, p.Nodes
			}
		}
		wins[i] = window{lo, hi}
		allPins[i] = pins
		for _, u := range pins {
			degree[u]++
		}
	}

	// Connectivity repair: swap isolated nodes into nets whose window
	// covers them, replacing a pin of a degree ≥ 2 node; preserves pin
	// counts and net sizes.
	for u := 0; u < p.Nodes; u++ {
		if degree[u] > 0 {
			continue
		}
		repaired := false
		for attempt := 0; attempt < 4*p.Nets && !repaired; attempt++ {
			i := rng.Intn(p.Nets)
			if wins[i].lo > u || u >= wins[i].hi || containsInt(allPins[i], u) {
				continue
			}
			repaired = swapIn(allPins[i], u, degree)
		}
		for i := 0; i < p.Nets && !repaired; i++ {
			if !containsInt(allPins[i], u) {
				repaired = swapIn(allPins[i], u, degree)
			}
		}
	}

	for i, pins := range allPins {
		if err := b.AddNet(fmt.Sprintf("n%d", i), 1, pins...); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// swapIn replaces one degree ≥ 2 pin of the net with u; reports success.
func swapIn(pins []int, u int, degree []int) bool {
	for j, v := range pins {
		if degree[v] >= 2 {
			pins[j] = u
			degree[v]--
			degree[u]++
			return true
		}
	}
	return false
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// MustGenerate is Generate that panics on error, for fixtures.
func MustGenerate(p Params) *hypergraph.Hypergraph {
	h, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return h
}
