package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"prop/internal/core"
	"prop/internal/engine"
	"prop/internal/fm"
	"prop/internal/gen"
	"prop/internal/obs"
	"prop/internal/obs/report"
	"prop/internal/partition"
)

// The hot-path study times single-threaded PROP and FM runs per circuit —
// the quantity the CSR + incremental-refinement work optimizes — plus a
// small PROP portfolio at 1 and 2 engine workers, and emits a
// machine-readable report (scripts/bench.sh writes it to
// BENCH_hotpath.json) so perf regressions are diffable across commits.

// HotpathSeries is the timing of one method on one circuit.
type HotpathSeries struct {
	// BestCut is the best cut over the runs (same multi-start protocol and
	// seeds as the golden tests, so it must not drift across perf work).
	BestCut float64 `json:"best_cut"`
	// RunMillis is the wall-clock time of each independent run, run order.
	RunMillis []float64 `json:"run_millis"`
	// MeanMillis and MinMillis summarize RunMillis.
	MeanMillis float64 `json:"mean_millis"`
	MinMillis  float64 `json:"min_millis"`
}

// HotpathCircuit is the per-circuit record.
type HotpathCircuit struct {
	Name  string         `json:"name"`
	Nodes int            `json:"nodes"`
	Nets  int            `json:"nets"`
	Pins  int            `json:"pins"`
	Runs  int            `json:"runs"`
	PROP  HotpathSeries  `json:"prop"`
	FM    *HotpathSeries `json:"fm,omitempty"`
	// PROPTraced re-times the PROP runs with a pass-level tracer attached,
	// and TraceOverheadPct is its mean slowdown relative to the untraced
	// series — the cost of turning observability on.
	PROPTraced       *HotpathSeries `json:"prop_traced,omitempty"`
	TraceOverheadPct float64        `json:"trace_overhead_pct"`
	// PhaseWallUS is the per-phase wall time (µs, slash-joined phase
	// paths, summed over the traced series) aggregated from the traced
	// runs' phase spans by internal/obs/report.
	PhaseWallUS map[string]int64 `json:"phase_wall_us,omitempty"`
	// PROPPortfolioPar1 and PROPPortfolioPar2 time a portfolioRuns-run
	// PROP portfolio on the engine's worker pool at 1 and 2 workers; each
	// entry of RunMillis is one whole portfolio. PortfolioSpeedupX is the
	// 1-worker median over the 2-worker median — what whole-run
	// parallelism, the engines' only parallelism, buys. Both sides run the
	// same seeds, so their best cuts are equal.
	PROPPortfolioPar1 *HotpathSeries `json:"prop_portfolio_par1,omitempty"`
	PROPPortfolioPar2 *HotpathSeries `json:"prop_portfolio_par2,omitempty"`
	PortfolioSpeedupX float64        `json:"portfolio_speedup_x"`
}

// portfolioRuns is the multi-start count of the portfolio series: two
// runs per worker at 2 workers.
const portfolioRuns = 4

// HotpathReport is the full study.
type HotpathReport struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	// FMPassBaselineNS is the pinned pre-refactor ns/op of
	// BenchmarkPassEngine (a full FM-bucket industry2 run). It is a fixed
	// reference, not a measurement of this report's machine state:
	// scripts/bench.sh fails when the unified pass engine regresses more
	// than 5% against it, and cmd/bench carries it forward verbatim when
	// regenerating the report.
	FMPassBaselineNS int64 `json:"fm_pass_baseline_ns,omitempty"`
	// DisabledPhaseNSPerOp is the measured cost of one StartPhase/End pair
	// on a nil tracer — the price every emit site pays when tracing is off.
	// It must stay in the low nanoseconds (the nil path allocates nothing).
	DisabledPhaseNSPerOp float64          `json:"disabled_phase_ns_per_op"`
	Circuits             []HotpathCircuit `json:"circuits"`
}

// ReadHotpath parses a previously written report (for carrying pinned
// fields forward across regenerations).
func ReadHotpath(r io.Reader) (HotpathReport, error) {
	var rep HotpathReport
	err := json.NewDecoder(r).Decode(&rep)
	return rep, err
}

// DefaultHotpathCircuits is the study's circuit set: the three largest
// suite circuits, where the hot loops dominate setup.
func DefaultHotpathCircuits() []string { return []string{"biomed", "s15850", "industry2"} }

// RunHotpath times runs multi-start runs of PROP (and FM for reference) on
// each named suite circuit. Every run is timed individually so the report
// captures per-run wall clock, the acceptance metric of the hot-path
// optimization work. Each circuit's PROP series is re-timed with a
// pass-level tracer writing to traceSink (io.Discard when nil) to measure
// the tracing overhead.
func RunHotpath(names []string, runs int, seed int64, traceSink, progress io.Writer) (HotpathReport, error) {
	if traceSink == nil {
		traceSink = io.Discard
	}
	rep := HotpathReport{
		GoMaxProcs:           runtime.GOMAXPROCS(0),
		GoVersion:            runtime.Version(),
		Seed:                 seed,
		DisabledPhaseNSPerOp: measureDisabledPhase(),
	}
	specs := map[string]gen.SuiteSpec{}
	for _, s := range gen.Table1() {
		specs[s.Name] = s
	}
	bal := partition.Exact5050()
	for _, name := range names {
		spec, ok := specs[name]
		if !ok {
			return rep, fmt.Errorf("bench: unknown hotpath circuit %q", name)
		}
		c, err := gen.SuiteCircuit(spec)
		if err != nil {
			return rep, err
		}
		h := c.H
		rec := HotpathCircuit{
			Name:  name,
			Nodes: h.NumNodes(),
			Nets:  h.NumNets(),
			Pins:  h.NumPins(),
			Runs:  runs,
		}
		propRun := func(seed int64, _ int) (float64, error) {
			b, err := randomStart(h, bal, seed)
			if err != nil {
				return 0, err
			}
			res, err := core.Partition(b, core.DefaultConfig(bal))
			if err != nil {
				return 0, err
			}
			return res.CutCost, nil
		}
		// The traced series tees its JSONL into memory so the per-phase
		// wall-time map can be aggregated afterwards; each run is wrapped in
		// a run span and a "prop" phase span (the same shape the refine
		// dispatch layer emits) so the report has a tree to sum.
		var traceMem bytes.Buffer
		tracer := obs.New(io.MultiWriter(traceSink, &traceMem), obs.LevelPass)
		propTracedRun := func(seed int64, r int) (float64, error) {
			b, err := randomStart(h, bal, seed)
			if err != nil {
				return 0, err
			}
			cfg := core.DefaultConfig(bal)
			cfg.Tracer = tracer
			cfg.TraceRun = r
			tracer.EmitRunStart(obs.RunStart{ID: name, Run: r})
			runStart := time.Now()
			sp := tracer.StartPhase(r, "prop")
			res, err := core.Partition(b, cfg)
			sp.End()
			end := obs.RunEnd{ID: name, Run: r, Dur: time.Since(runStart)}
			if err != nil {
				end.Err = err.Error()
			}
			tracer.EmitRunEnd(end)
			if err != nil {
				return 0, err
			}
			return res.CutCost, nil
		}
		portfolio := func(workers int) func(seed int64, _ int) (float64, error) {
			return func(seed int64, _ int) (float64, error) {
				best, _, err := engine.Portfolio(context.Background(), portfolioRuns,
					engine.Config[float64]{Workers: workers, Less: func(a, b float64) bool { return a < b }},
					func(_ context.Context, r int) (float64, error) { return propRun(seed+int64(r), r) })
				return best, err
			}
		}
		fmRun := func(seed int64, _ int) (float64, error) {
			b, err := randomStart(h, bal, seed)
			if err != nil {
				return 0, err
			}
			res, err := fm.Partition(b, fm.Config{Balance: bal, Selector: fm.Bucket})
			if err != nil {
				return 0, err
			}
			return res.CutCost, nil
		}
		if rec.PROP, err = timeSeries(propRun, runs, seed); err != nil {
			return rep, fmt.Errorf("bench: hotpath %s PROP: %w", name, err)
		}
		tracedSeries, err := timeSeries(propTracedRun, runs, seed)
		if err != nil {
			return rep, fmt.Errorf("bench: hotpath %s PROP traced: %w", name, err)
		}
		rec.PROPTraced = &tracedSeries
		if rec.PROP.MeanMillis > 0 {
			rec.TraceOverheadPct = (tracedSeries.MeanMillis - rec.PROP.MeanMillis) / rec.PROP.MeanMillis * 100
		}
		traceRep, err := report.Read(&traceMem)
		if err != nil {
			return rep, fmt.Errorf("bench: hotpath %s trace report: %w", name, err)
		}
		rec.PhaseWallUS = report.PhaseWallMap(traceRep)
		if tracedSeries.BestCut != rec.PROP.BestCut {
			return rep, fmt.Errorf("bench: hotpath %s: traced best cut %g != untraced %g (tracing must be observation-only)",
				name, tracedSeries.BestCut, rec.PROP.BestCut)
		}
		par1, par2, err := timePaired(portfolio(1), portfolio(2), runs, seed)
		if err != nil {
			return rep, fmt.Errorf("bench: hotpath %s PROP portfolio: %w", name, err)
		}
		if par1.BestCut != par2.BestCut {
			return rep, fmt.Errorf("bench: hotpath %s: 2-worker portfolio cut %g != 1-worker %g (the engine must be deterministic)",
				name, par2.BestCut, par1.BestCut)
		}
		rec.PROPPortfolioPar1, rec.PROPPortfolioPar2 = &par1, &par2
		rec.PortfolioSpeedupX = median(par1.RunMillis) / median(par2.RunMillis)
		fmSeries, err := timeSeries(fmRun, runs, seed)
		if err != nil {
			return rep, fmt.Errorf("bench: hotpath %s FM: %w", name, err)
		}
		rec.FM = &fmSeries
		if progress != nil {
			fmt.Fprintf(progress, "hotpath %-10s PROP cut %g mean %.1fms (traced %+.1f%%) | %d-run portfolio median %.1fms at 1 worker, %.1fms at 2 (%.2fx) | FM cut %g mean %.1fms\n",
				name, rec.PROP.BestCut, rec.PROP.MeanMillis, rec.TraceOverheadPct,
				portfolioRuns, median(par1.RunMillis), median(par2.RunMillis), rec.PortfolioSpeedupX,
				rec.FM.BestCut, rec.FM.MeanMillis)
		}
		rep.Circuits = append(rep.Circuits, rec)
	}
	return rep, nil
}

// phaseSink keeps the disabled-phase measurement loop from being
// optimized away.
var phaseSink obs.PhaseSpan

// measureDisabledPhase times one StartPhase/End pair on a nil tracer —
// the fast path every emit site takes when tracing is off.
func measureDisabledPhase() float64 {
	var nilTracer *obs.Tracer
	const iters = 1 << 20
	start := time.Now()
	for i := 0; i < iters; i++ {
		sp := nilTracer.StartPhase(i&7, "bench")
		phaseSink = sp
		sp.End()
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

func timeSeries(run func(seed int64, r int) (float64, error), runs int, seed int64) (HotpathSeries, error) {
	var s HotpathSeries
	for r := 0; r < runs; r++ {
		if err := s.time(run, seed+int64(r), r); err != nil {
			return s, err
		}
	}
	s.summarize()
	return s, nil
}

// timePaired times a and b on the same seeds, one pair per repetition,
// alternating which side runs first so drifting machine state hits both
// series alike.
func timePaired(a, b func(seed int64, r int) (float64, error), runs int, seed int64) (HotpathSeries, HotpathSeries, error) {
	var sa, sb HotpathSeries
	for r := 0; r < runs; r++ {
		first, second := &sa, &sb
		fa, fb := a, b
		if r%2 == 1 {
			first, second, fa, fb = second, first, fb, fa
		}
		if err := first.time(fa, seed+int64(r), r); err != nil {
			return sa, sb, err
		}
		if err := second.time(fb, seed+int64(r), r); err != nil {
			return sa, sb, err
		}
	}
	sa.summarize()
	sb.summarize()
	return sa, sb, nil
}

// time runs one timed repetition and appends it to the series.
func (s *HotpathSeries) time(run func(seed int64, r int) (float64, error), seed int64, r int) error {
	start := time.Now()
	cut, err := run(seed, r)
	if err != nil {
		return err
	}
	s.RunMillis = append(s.RunMillis, float64(time.Since(start).Nanoseconds())/1e6)
	if len(s.RunMillis) == 1 || cut < s.BestCut {
		s.BestCut = cut
	}
	return nil
}

// summarize fills MeanMillis and MinMillis from RunMillis.
func (s *HotpathSeries) summarize() {
	var sum float64
	s.MinMillis = s.RunMillis[0]
	for _, ms := range s.RunMillis {
		sum += ms
		if ms < s.MinMillis {
			s.MinMillis = ms
		}
	}
	s.MeanMillis = sum / float64(len(s.RunMillis))
}

// median returns the median of xs (the mean of the middle two for even
// lengths).
func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// WriteHotpath emits the report as indented JSON.
func WriteHotpath(w io.Writer, rep HotpathReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
