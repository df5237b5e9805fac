package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Compare mode reads two sets of run records (old = parent, new = change)
// and, per workload and metric, prints each side's median and quartiles,
// the pairs the new side won, and a verdict:
//
//   - improved: new wins at least nine tenths of the pairs (ties count for
//     neither side) and the medians differ by more than the old side's
//     interquartile range;
//   - worse: the same rule in the other direction;
//   - within bound: neither, and the new median is no worse than the old
//     one by more than the metric's bound while the old runs spread less
//     than the bound — or every new run beats every old run;
//   - unresolved: anything else, including metrics without a bound.
//
// A pair is the i-th old and i-th new run of one workload with the same
// seed, so runs made with identical settings pair up. Only end-to-end
// metrics carry a bound and decide the exit status; per-layer verdicts are
// printed for information.

type verdictRow struct {
	workload, metric, unit string
	traced                 bool // a per-layer metric of a traced run
	oldMed, oldQ1, oldQ3   float64
	newMed, newQ1, newQ3   float64
	won, lost, pairs       int
	change                 float64 // (new − old)/old median
	verdict                string
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(strings.TrimPrefix(sc.Text(), "record "))
		if line == "" || line[0] != '{' {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload != "" && r.Metrics != nil {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// compareFiles prints the comparison and reports whether any end-to-end
// metric is worse.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return false, err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	rows := compareRecords(oldRecs, newRecs)
	if len(rows) == 0 {
		return false, fmt.Errorf("no workload has records on both sides")
	}
	fmt.Fprintf(w, "%-8s %-32s %12s %12s %12s  %12s %12s %12s  %7s %6s  %s\n",
		"workload", "metric", "old_med", "old_q1", "old_q3", "new_med", "new_q1", "new_q3", "change", "won", "verdict")
	worse := false
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-32s %12.6g %12.6g %12.6g  %12.6g %12.6g %12.6g  %+6.1f%% %2d/%-3d  %s\n",
			r.workload, r.metric+" ("+r.unit+")", r.oldMed, r.oldQ1, r.oldQ3, r.newMed, r.newQ1, r.newQ3,
			r.change*100, r.won, r.pairs, r.verdict)
		worse = worse || (r.verdict == "worse" && !r.traced)
	}
	for _, env := range envMismatches(oldRecs, newRecs) {
		fmt.Fprintln(w, "warning:", env)
	}
	return worse, nil
}

// envMismatches lists settings that differ between the two sets, so runs
// from different hosts or settings are never compared silently.
func envMismatches(a, b []record) []string {
	key := func(r record) string {
		return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s seconds=%d", r.NProc, r.GOMAXPROCS, r.GoVersion, r.Seconds)
	}
	set := func(rs []record) map[string]bool {
		m := map[string]bool{}
		for _, r := range rs {
			m[key(r)] = true
		}
		return m
	}
	sa, sb := set(a), set(b)
	var out []string
	for k := range sa {
		if !sb[k] {
			out = append(out, "old runs have "+k+", new runs do not")
		}
	}
	for k := range sb {
		if !sa[k] {
			out = append(out, "new runs have "+k+", old runs do not")
		}
	}
	sort.Strings(out)
	return out
}

func compareRecords(oldRecs, newRecs []record) []verdictRow {
	defs := map[string]metricDef{}
	var order []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.Name] = d
		order = append(order, d.Name)
	}
	var rows []verdictRow
	for _, wl := range []string{"suite", "scale", "serve"} {
		for _, traced := range []bool{false, true} {
			olds, news := filter(oldRecs, wl, traced), filter(newRecs, wl, traced)
			if len(olds) == 0 || len(news) == 0 {
				continue
			}
			pairs := pairBySeed(olds, news)
			for _, name := range order {
				d := defs[name]
				ov, nv := values(olds, name), values(news, name)
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				if traced && !contains(d.On, wl) {
					continue
				}
				row := judge(wl, d, ov, nv, pairs)
				row.traced = traced
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func filter(rs []record, workload string, traced bool) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == workload && r.Trace == traced {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// pairBySeed matches the k-th old run of each seed with the k-th new run
// of the same seed.
func pairBySeed(olds, news []record) [][2]record {
	bySeed := map[int64][]record{}
	for _, r := range news {
		bySeed[r.Seed] = append(bySeed[r.Seed], r)
	}
	var pairs [][2]record
	for _, o := range olds {
		if q := bySeed[o.Seed]; len(q) > 0 {
			pairs = append(pairs, [2]record{o, q[0]})
			bySeed[o.Seed] = q[1:]
		}
	}
	return pairs
}

// judge applies the verdict rule to one metric on one workload.
func judge(wl string, d metricDef, ov, nv []float64, pairs [][2]record) verdictRow {
	r := verdictRow{workload: wl, metric: d.Name, unit: d.Unit}
	r.oldMed, r.newMed = median(ov), median(nv)
	r.oldQ1, r.oldQ3 = quartiles(ov)
	r.newQ1, r.newQ3 = quartiles(nv)
	// better(a, b) reports whether a reads better than b.
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for _, p := range pairs {
		o, okO := p[0].Metrics[d.Name]
		n, okN := p[1].Metrics[d.Name]
		if !okO || !okN {
			continue
		}
		r.pairs++
		switch {
		case better(n, o):
			r.won++
		case better(o, n):
			r.lost++
		}
	}
	if r.oldMed != 0 {
		r.change = (r.newMed - r.oldMed) / math.Abs(r.oldMed)
	}
	iqr := r.oldQ3 - r.oldQ1
	diff := math.Abs(r.newMed - r.oldMed)
	worseBy := r.change
	if d.Better == "higher" {
		worseBy = -r.change
	}
	switch {
	case r.pairs > 0 && 10*r.won >= 9*r.pairs && diff > iqr && better(r.newMed, r.oldMed):
		r.verdict = "improved"
	case r.pairs > 0 && 10*r.lost >= 9*r.pairs && diff > iqr && better(r.oldMed, r.newMed):
		r.verdict = "worse"
	case d.Bound == 0:
		r.verdict = "unresolved"
	case allBetter(nv, ov, better):
		r.verdict = "within bound"
	case worseBy <= d.Bound && spread(ov) <= d.Bound:
		r.verdict = "within bound"
	default:
		r.verdict = "unresolved"
	}
	return r
}

// allBetter reports whether every value of a reads better than every
// value of b.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
