package bench

import (
	"fmt"
	"io"

	"prop/internal/stats"
)

// Improvement is the paper's metric: (cut improvement / larger cutset)·100,
// positive when ours (b) beats theirs (a)... specifically the paper reports
// PROP's improvement over method X as (X − PROP)/max(X, PROP)·100.
func Improvement(x, prop float64) float64 {
	larger := x
	if prop > larger {
		larger = prop
	}
	if larger == 0 {
		return 0
	}
	return (x - prop) / larger * 100
}

// WriteTable1 renders the circuit characteristics (paper Table 1),
// reporting both the target spec and the synthesized stats.
func WriteTable1(w io.Writer, results []CircuitResult) {
	fmt.Fprintln(w, "Table 1: Benchmark circuit characteristics (synthesized clones)")
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s %8s %8s\n",
		"Test Case", "# Nodes", "# Nets", "# Pins", "p", "q", "d")
	for _, r := range results {
		fmt.Fprintf(w, "%-10s %8d %8d %8d %8.2f %8.2f %8.2f\n",
			r.Spec.Name, r.Stats.Nodes, r.Stats.Nets, r.Stats.Pins,
			r.Stats.AvgNodeDeg, r.Stats.AvgNetSize, r.Stats.AvgNbrs)
	}
}

// table2Col describes one cut column of Table 2: the method series and the
// best-of prefix to report.
type table2Col struct {
	label  string
	series string
	bestOf func(runs int) int
}

// WriteTable2 renders the 50-50% cutset comparison (paper Table 2):
// FM100/FM40/FM20, LA-2(×20), LA-3(×20), WINDOW and PROP(×20) cuts plus
// PROP's improvement percentages, the totals row, and the LA-2(×40) note.
func WriteTable2(w io.Writer, results []CircuitResult, runs int) {
	cols := []table2Col{
		{"FM100", "FM", func(r int) int { return 5 * r }},
		{"FM40", "FM", func(r int) int { return 2 * r }},
		{"FM20", "FM", func(r int) int { return r }},
		{"LA-2", "LA-2", func(r int) int { return r }},
		{"LA-3", "LA-3", func(r int) int { return r }},
		{"WINDOW", "WINDOW", func(int) int { return 1 }},
		{"PROP", "PROP", func(r int) int { return r }},
	}
	fmt.Fprintf(w, "Table 2: Cutset sizes, %s balance (best of N runs; base N = %d)\n",
		"50-50%", runs)
	fmt.Fprintf(w, "%-10s", "Test Case")
	for _, c := range cols {
		fmt.Fprintf(w, " %7s", c.label)
	}
	fmt.Fprint(w, "  |")
	for _, c := range cols[:len(cols)-1] {
		fmt.Fprintf(w, " %7s", "vs"+c.label[:min(5, len(c.label))])
	}
	fmt.Fprintln(w)

	totals := make([]float64, len(cols))
	for _, r := range results {
		fmt.Fprintf(w, "%-10s", r.Spec.Name)
		vals := make([]float64, len(cols))
		for i, c := range cols {
			s := r.S5050[c.series]
			vals[i] = s.BestOf(c.bestOf(runs))
			totals[i] += vals[i]
			fmt.Fprintf(w, " %7.0f", vals[i])
		}
		fmt.Fprint(w, "  |")
		prop := vals[len(vals)-1]
		for _, v := range vals[:len(vals)-1] {
			fmt.Fprintf(w, " %6.1f%%", Improvement(v, prop))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "Total")
	for _, t := range totals {
		fmt.Fprintf(w, " %7.0f", t)
	}
	fmt.Fprint(w, "  |")
	propT := totals[len(totals)-1]
	for _, t := range totals[:len(totals)-1] {
		fmt.Fprintf(w, " %6.1f%%", Improvement(t, propT))
	}
	fmt.Fprintln(w)

	// The paper's caption note: LA-2 with 40 runs (≈ PROP's time budget).
	var la2x40 float64
	for _, r := range results {
		la2x40 += r.S5050["LA-2"].BestOf(2 * runs)
	}
	fmt.Fprintf(w, "Note: LA-2 with %d runs totals %.0f (PROP improvement %.1f%%)\n",
		2*runs, la2x40, Improvement(la2x40, propT))

	// Per-column paired summaries against PROP.
	prop := make([]float64, 0, len(results))
	for _, r := range results {
		prop = append(prop, r.S5050["PROP"].BestOf(runs))
	}
	for _, c := range cols[:len(cols)-1] {
		theirs := make([]float64, 0, len(results))
		for _, r := range results {
			theirs = append(theirs, r.S5050[c.series].BestOf(c.bestOf(runs)))
		}
		if p, err := stats.ComparePaired(theirs, prop); err == nil {
			fmt.Fprintf(w, "PROP vs %-7s %s\n", c.label+":", p)
		}
	}
}

// WriteTable3 renders the 45-55% comparison against the clustering-based
// methods (paper Table 3).
func WriteTable3(w io.Writer, results []CircuitResult, runs int) {
	names := []string{"MELO", "Paraboli", "EIG1", "PROP"}
	fmt.Fprintf(w, "Table 3: Cutset sizes, 45-55%% balance (PROP best of %d runs)\n", runs)
	fmt.Fprintf(w, "%-10s", "Test Case")
	for _, n := range names {
		fmt.Fprintf(w, " %9s", n)
	}
	fmt.Fprint(w, "  |")
	for _, n := range names[:len(names)-1] {
		fmt.Fprintf(w, " %9s", "vs"+n[:min(6, len(n))])
	}
	fmt.Fprintln(w)
	totals := make([]float64, len(names))
	for _, r := range results {
		if len(r.S4555) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s", r.Spec.Name)
		vals := make([]float64, len(names))
		for i, n := range names {
			s := r.S4555[n]
			vals[i] = s.BestOf(len(s.Cuts))
			totals[i] += vals[i]
			fmt.Fprintf(w, " %9.0f", vals[i])
		}
		fmt.Fprint(w, "  |")
		prop := vals[len(vals)-1]
		for _, v := range vals[:len(vals)-1] {
			fmt.Fprintf(w, " %8.1f%%", Improvement(v, prop))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "Total")
	for _, t := range totals {
		fmt.Fprintf(w, " %9.0f", t)
	}
	fmt.Fprint(w, "  |")
	propT := totals[len(totals)-1]
	for _, t := range totals[:len(totals)-1] {
		fmt.Fprintf(w, " %8.1f%%", Improvement(t, propT))
	}
	fmt.Fprintln(w)

	// Per-column paired summaries against PROP.
	prop := make([]float64, 0, len(results))
	for _, r := range results {
		if len(r.S4555) > 0 {
			s := r.S4555["PROP"]
			prop = append(prop, s.BestOf(len(s.Cuts)))
		}
	}
	for _, n := range names[:len(names)-1] {
		theirs := make([]float64, 0, len(results))
		for _, r := range results {
			if len(r.S4555) > 0 {
				s := r.S4555[n]
				theirs = append(theirs, s.BestOf(len(s.Cuts)))
			}
		}
		if p, err := stats.ComparePaired(theirs, prop); err == nil {
			fmt.Fprintf(w, "PROP vs %-9s %s\n", n+":", p)
		}
	}
}

// WriteTable4 renders CPU seconds per run per method, the paper-style
// totals over all circuits at each method's run multiplier, and the
// iterative methods' per-run cost relative to FM-bucket, summed over the
// circuits both ran.
func WriteTable4(w io.Writer, results []CircuitResult, runs int) {
	type col struct {
		label, series string
		bal5050       bool
		mult          int
		ratio         bool // report its summed per-run ratio to FM-bkt
	}
	cols := []col{
		{"FM-bkt", "FM", true, 5 * runs, false}, // the ratios' base: first
		{"FM-tree", "FM-tree", true, 5 * runs, true},
		{"LA-2", "LA-2", true, 2 * runs, true},
		{"LA-3", "LA-3", true, runs, true},
		{"PROP", "PROP", false, runs, true},
		{"EIG1", "EIG1", false, 1, false},
		{"Paraboli", "Paraboli", false, 1, false},
		{"MELO", "MELO", false, 1, false},
		{"WINDOW", "WINDOW", true, 1, false},
	}
	fmt.Fprintln(w, "Table 4: CPU seconds per run (totals row: seconds × paper run multipliers)")
	fmt.Fprintf(w, "%-10s", "Test Case")
	for _, c := range cols {
		fmt.Fprintf(w, " %9s", c.label)
	}
	fmt.Fprintln(w)
	totals := make([]float64, len(cols))
	num, den := make([]float64, len(cols)), make([]float64, len(cols))
	for _, r := range results {
		fmt.Fprintf(w, "%-10s", r.Spec.Name)
		sec := make([]float64, len(cols)) // this row's per-run seconds, -1 if absent
		for i, c := range cols {
			var s Series
			var ok bool
			if c.bal5050 {
				s, ok = r.S5050[c.series]
			} else {
				s, ok = r.S4555[c.series]
				if !ok {
					s, ok = r.S5050[c.series]
				}
			}
			if !ok {
				sec[i] = -1
				fmt.Fprintf(w, " %9s", "-")
				continue
			}
			sec[i] = s.PerRun.Seconds()
			totals[i] += sec[i] * float64(c.mult)
			fmt.Fprintf(w, " %9.5f", sec[i])
		}
		fmt.Fprintln(w)
		for i, c := range cols {
			if c.ratio && sec[i] >= 0 && sec[0] >= 0 {
				num[i] += sec[i]
				den[i] += sec[0]
			}
		}
	}
	fmt.Fprintf(w, "%-10s", "Total")
	for i, c := range cols {
		fmt.Fprintf(w, " %8.0fs", totals[i])
		_ = c
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Multipliers:")
	for _, c := range cols {
		fmt.Fprintf(w, " %s×%d", c.label, c.mult)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Per-run ratio to FM-bkt (summed over circuits):")
	for i, c := range cols {
		if den[i] > 0 {
			fmt.Fprintf(w, " %s %.2f×", c.label, num[i]/den[i])
		}
	}
	fmt.Fprintln(w)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
