package bench

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"prop"
	"prop/internal/gen"
	"prop/internal/multilevel"
	"prop/internal/partition"
)

// The scale study measures the n-level path's cost curve: wall clock and
// peak RSS versus node count on generated million-node-class circuits,
// plus the quality gate on the golden five (n-level cut ≤ V-cycle cut,
// same seed). Each size row runs in a fresh subprocess (cmd/bench re-execs
// itself) because VmHWM — the kernel's peak-RSS high-water mark — is
// process-monotone: measuring three sizes in one process would report the
// largest row's peak for all three. `cmd/bench -scale BENCH_scale.json`
// writes the committed report and then holds it to CheckScale: every
// row's recount passes, the largest row peaks at ≤ 2× its CSR arena
// footprint — base graph plus the hierarchy's own arenas, both recorded
// per row — and n-level is never worse than the V-cycle on the golden
// five.

// ScaleRow is one generated-circuit measurement.
type ScaleRow struct {
	Nodes int `json:"nodes"`
	Nets  int `json:"nets"`
	Pins  int `json:"pins"`
	// ArenaBytes is the input hypergraph's CSR arena footprint (the
	// dual-CSR pin/net arrays plus costs and weights; names excluded).
	ArenaBytes int64 `json:"arena_bytes"`
	// HierBytes is the peak footprint of the n-level hierarchy's own CSR
	// arenas on top of the base graph: the contraction view's tables, the
	// overflow (adoption) arena and the undo stacks. This is memory the
	// algorithm holds by construction — O(pins + nodes) — as opposed to
	// refiner scratch and GC slack, which the RSS gate bounds.
	HierBytes int64 `json:"hier_bytes"`
	// GenMillis and PartMillis split circuit synthesis from partitioning.
	GenMillis  float64 `json:"gen_millis"`
	PartMillis float64 `json:"part_millis"`
	// The n-level phases' share of PartMillis (multilevel.NLevelTimes):
	// coarsening, the coarsest level's partition, memento pops, localized
	// refinement and full-level polish, each summed over cycles.
	CoarsenMillis    float64 `json:"coarsen_millis"`
	InitialMillis    float64 `json:"initial_millis"`
	UncontractMillis float64 `json:"uncontract_millis"`
	RefineMillis     float64 `json:"refine_millis"`
	PolishMillis     float64 `json:"polish_millis"`
	CutCost          float64 `json:"cut_cost"`
	CutNets          int     `json:"cut_nets"`
	Levels           int     `json:"levels"`
	// PeakRSSBytes is VmHWM from /proc/self/status at the end of the row's
	// subprocess — generation plus partitioning, whichever peaked higher.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
	// RSSOverArena = PeakRSSBytes / (ArenaBytes + HierBytes), the number
	// the ≤ 2× memory gate reads: everything outside the CSR arenas —
	// refiner state, the collector, the runtime — must fit in one extra
	// arena's worth of memory.
	RSSOverArena float64 `json:"rss_over_arena"`
	// CheckOK records the independent full recount of the reported cut.
	CheckOK bool `json:"check_ok"`
}

// ScaleGolden is one golden-five quality comparison (same seed both modes).
type ScaleGolden struct {
	Name      string  `json:"name"`
	VCycleCut float64 `json:"vcycle_cut"`
	NLevelCut float64 `json:"nlevel_cut"`
}

// ScaleReport is the full study.
type ScaleReport struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version"`
	Seed       int64         `json:"seed"`
	Rows       []ScaleRow    `json:"rows"`
	Golden     []ScaleGolden `json:"golden"`
	// NLevelWorse counts golden circuits where n-level lost (gate: 0).
	NLevelWorse int `json:"nlevel_worse"`
}

// maxRSSOverArena is the memory gate on the largest row's RSSOverArena.
const maxRSSOverArena = 2.0

// CheckScale applies the study's gates to rep and returns an error naming
// the first one that fails, by the report field it reads: a report with
// no rows, a row whose check_ok recount failed, a last (largest) row whose
// rss_over_arena exceeds 2, or a non-zero nlevel_worse.
func CheckScale(rep ScaleReport) error {
	if len(rep.Rows) == 0 {
		return errors.New("bench: scale gate rows: the report has no rows")
	}
	failed := 0
	for _, row := range rep.Rows {
		if !row.CheckOK {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("bench: scale gate check_ok: %d of %d rows failed the cut recount", failed, len(rep.Rows))
	}
	if last := rep.Rows[len(rep.Rows)-1]; last.RSSOverArena > maxRSSOverArena {
		return fmt.Errorf("bench: scale gate rss_over_arena: the %d-node row peaked at %.2fx its arena footprint (want <= %gx)",
			last.Nodes, last.RSSOverArena, maxRSSOverArena)
	}
	if rep.NLevelWorse > 0 {
		return fmt.Errorf("bench: scale gate nlevel_worse: n-level lost to the V-cycle on %d golden circuits (want 0)", rep.NLevelWorse)
	}
	return nil
}

// DefaultScaleSizes is the published series: 10k, 100k, 1M nodes.
func DefaultScaleSizes() []int { return []int{10_000, 100_000, 1_000_000} }

// RunScaleRow generates the ScaleParams{Nodes: nodes, Seed: seed} circuit
// and runs the in-place n-level 2-way partition under the 45–55% window,
// reporting wall clock, arena footprint and this process's peak RSS. It
// tightens the collector first (the memory gate measures the algorithm,
// not GC laziness) — call it only from a dedicated subprocess.
func RunScaleRow(nodes int, seed int64) (ScaleRow, error) {
	debug.SetGCPercent(30)
	genStart := time.Now()
	h, err := gen.GenerateScale(gen.ScaleParams{Nodes: nodes, Seed: seed})
	if err != nil {
		return ScaleRow{}, err
	}
	genMillis := float64(time.Since(genStart).Microseconds()) / 1000
	row := ScaleRow{
		Nodes:      h.NumNodes(),
		Nets:       h.NumNets(),
		Pins:       h.NumPins(),
		ArenaBytes: h.ArenaBytes(),
		GenMillis:  genMillis,
	}
	// GC headroom must scale with the instance, not float free: GOGC alone
	// lets the heap peak at (1+GOGC/100)× the live set plus churn, which at
	// a million nodes is ~200 MB of slack charged against the RSS gate. A
	// soft runtime limit of 5× the base arena caps that headroom — the live
	// set is at most base + hierarchy + scratch ≈ 3.3× the arena, so the
	// collector stays idle until real pressure — floored at 64 MiB so small
	// rows, where the Go runtime itself is the floor, cannot thrash.
	if limit := 5 * row.ArenaBytes; limit > 64<<20 {
		debug.SetMemoryLimit(limit)
	} else {
		debug.SetMemoryLimit(64 << 20)
	}
	runtime.GC()

	bal := partition.B4555()
	partStart := time.Now()
	res, err := multilevel.Partition(h, multilevel.Config{
		Balance: bal, Mode: multilevel.ModeNLevel, InPlace: true, Seed: seed,
	})
	if err != nil {
		return ScaleRow{}, err
	}
	row.PartMillis = float64(time.Since(partStart).Microseconds()) / 1000
	ph := res.NLevel
	row.CoarsenMillis, row.InitialMillis = millis(ph.Coarsen), millis(ph.Initial)
	row.UncontractMillis, row.RefineMillis = millis(ph.Uncontract), millis(ph.Refine)
	row.PolishMillis = millis(ph.Polish)
	row.CutCost = res.CutCost
	row.CutNets = res.CutNets
	row.Levels = res.Levels
	row.HierBytes = res.HierarchyBytes

	// Independent recount on the (restored) input.
	b, err := partition.NewBisection(h, res.Sides)
	if err != nil {
		return ScaleRow{}, err
	}
	row.CheckOK = b.CutCost() == res.CutCost && b.CutNets() == res.CutNets &&
		bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight())

	rss, err := readPeakRSS()
	if err != nil {
		return ScaleRow{}, err
	}
	row.PeakRSSBytes = rss
	if arenas := row.ArenaBytes + row.HierBytes; arenas > 0 {
		row.RSSOverArena = float64(rss) / float64(arenas)
	}
	return row, nil
}

// readPeakRSS returns VmHWM from /proc/self/status in bytes.
func readPeakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("bench: VmHWM not found in /proc/self/status")
}

// RunScaleGolden runs the golden-five quality gate in-process: ml-prop in
// V-cycle and n-level mode under the same seed and balance, per circuit.
func RunScaleGolden(seed int64, progress io.Writer) ([]ScaleGolden, int, error) {
	var out []ScaleGolden
	worse := 0
	for _, name := range []string{"balu", "struct", "p2", "industry2", "gen600"} {
		n, err := goldenCircuit(name)
		if err != nil {
			return nil, 0, err
		}
		vc, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoMLPROP, Seed: seed})
		if err != nil {
			return nil, 0, err
		}
		nl, err := prop.Partition(n, prop.Options{Algorithm: prop.AlgoMLPROP, Seed: seed,
			ML: &prop.MLParams{Mode: multilevel.ModeNLevel}})
		if err != nil {
			return nil, 0, err
		}
		if nl.CutCost > vc.CutCost {
			worse++
		}
		out = append(out, ScaleGolden{Name: name, VCycleCut: vc.CutCost, NLevelCut: nl.CutCost})
		if progress != nil {
			fmt.Fprintf(progress, "scale golden %-10s vcycle=%g nlevel=%g\n", name, vc.CutCost, nl.CutCost)
		}
	}
	return out, worse, nil
}

// goldenCircuit resolves the golden-five names: the four Table-1 suite
// circuits plus the generated 600-node instance the golden tests pin.
func goldenCircuit(name string) (*prop.Netlist, error) {
	if name == "gen600" {
		return prop.Generate(prop.GenParams{Nodes: 600, Nets: 660, Pins: 2300, Seed: 41})
	}
	return prop.Benchmark(name)
}

// WriteScale serializes the report as indented JSON.
func WriteScale(w io.Writer, rep ScaleReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadScale parses a report written by WriteScale.
func ReadScale(r io.Reader) (ScaleReport, error) {
	var rep ScaleReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return ScaleReport{}, err
	}
	return rep, nil
}
