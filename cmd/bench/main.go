// Command bench regenerates the experimental content of the paper: Tables
// 1–4, the Figure-1 worked example, and the §3.5 scaling study, over the
// synthesized ACM/SIGDA suite.
//
// Usage:
//
//	bench                      # quick subset (circuits ≤ ~3000 nodes, 5 runs)
//	bench -full                # the paper's protocol: all circuits, 20 runs
//	bench -table 2             # only Table 2 (runs the needed methods)
//	bench -figure1             # only the Figure-1 numerics
//	bench -scaling             # only the Θ(m log n) scaling study
//	bench -ablation            # PROP design-choice ablations (§3 knobs)
//	bench -incremental BENCH_incremental.json   # warm-vs-cold ECO study
//	bench -scale BENCH_scale.json               # n-level 10k/100k/1M series, gated
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"prop/internal/bench"
)

func main() {
	var (
		full       = flag.Bool("full", false, "paper protocol: all 16 circuits, 20 base runs")
		table      = flag.Int("table", 0, "print only this table (1-4); 0 = all requested content")
		figure1    = flag.Bool("figure1", false, "print only the Figure-1 worked example")
		scaling    = flag.Bool("scaling", false, "print only the scaling study")
		ablation   = flag.Bool("ablation", false, "print only the PROP ablation study")
		exts       = flag.Bool("extensions", false, "print only the extensions study (multilevel, KL/SK, SA)")
		balSweep   = flag.Bool("balance", false, "print only the balance-window sweep")
		increment  = flag.String("incremental", "", "run the warm-vs-cold ECO repartitioning study and write the JSON report to this file")
		scaleStudy = flag.String("scale", "", "run the n-level scale study (nodes vs wall clock vs peak RSS, plus the golden-five quality gate), write the JSON report to this file and exit 1 if a gate fails")
		scaleSizes = flag.String("scale-sizes", "", "with -scale, comma-separated node counts to measure (default 10000,100000,1000000)")
		scaleRow   = flag.Int("scale-row", 0, "internal: measure one generated size in this process and print the row JSON (the -scale driver re-execs itself with this flag so each row gets its own peak-RSS accounting)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the requested work to this file")
		maxNodes   = flag.Int("maxnodes", 0, "restrict suite to circuits with at most this many nodes")
		runs       = flag.Int("runs", 0, "override base multi-start count")
		seed       = flag.Int64("seed", 1, "base random seed")
		verbose    = flag.Bool("v", false, "log per-method progress")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *increment != "" {
		r := *runs
		if r == 0 {
			r = 5
		}
		var progress *os.File
		if *verbose {
			progress = os.Stderr
		}
		rep, err := bench.RunIncremental(bench.DefaultIncrementalCircuits(), bench.DefaultIncrementalFractions(), r, *seed, progress)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*increment)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteIncremental(f, rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("incremental report written to %s\n", *increment)
		return
	}

	if *scaleRow != 0 {
		// Subprocess leg of -scale: one generated size, measured in a fresh
		// process so VmHWM (monotone per process) reflects this row alone.
		row, err := bench.RunScaleRow(*scaleRow, *seed)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(row); err != nil {
			fatal(err)
		}
		return
	}

	if *scaleStudy != "" {
		sizes := bench.DefaultScaleSizes()
		if *scaleSizes != "" {
			sizes = sizes[:0]
			for _, f := range strings.Split(*scaleSizes, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					fatal(fmt.Errorf("bad -scale-sizes entry %q: %w", f, err))
				}
				sizes = append(sizes, n)
			}
		}
		var progress *os.File
		if *verbose {
			progress = os.Stderr
		}
		rep := bench.ScaleReport{
			GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Seed:       *seed,
		}
		self, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		for _, n := range sizes {
			if progress != nil {
				fmt.Fprintf(progress, "scale row %d nodes...\n", n)
			}
			cmd := exec.Command(self, "-scale-row", strconv.Itoa(n), "-seed", strconv.FormatInt(*seed, 10))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fatal(fmt.Errorf("scale row %d: %w", n, err))
			}
			var row bench.ScaleRow
			if err := json.Unmarshal(out, &row); err != nil {
				fatal(fmt.Errorf("scale row %d: %w", n, err))
			}
			rep.Rows = append(rep.Rows, row)
			if progress != nil {
				fmt.Fprintf(progress, "scale row %d: cut=%g part=%.0fms rss=%.1fMB (%.2fx arena) check=%v\n",
					n, row.CutCost, row.PartMillis, float64(row.PeakRSSBytes)/(1<<20), row.RSSOverArena, row.CheckOK)
			}
		}
		golden, worse, err := bench.RunScaleGolden(*seed, progress)
		if err != nil {
			fatal(err)
		}
		rep.Golden, rep.NLevelWorse = golden, worse
		f, err := os.Create(*scaleStudy)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteScale(f, rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("scale report written to %s\n", *scaleStudy)
		if err := bench.CheckScale(rep); err != nil {
			fatal(err)
		}
		return
	}

	switch {
	case *figure1:
		if err := bench.WriteFigure1(os.Stdout); err != nil {
			fatal(err)
		}
		return
	case *scaling:
		if err := bench.WriteScaling(os.Stdout, nil, *seed); err != nil {
			fatal(err)
		}
		return
	case *ablation:
		if err := bench.WriteAblation(os.Stdout, *seed); err != nil {
			fatal(err)
		}
		return
	case *exts:
		if err := bench.WriteExtensions(os.Stdout, *seed); err != nil {
			fatal(err)
		}
		return
	case *balSweep:
		if err := bench.WriteBalanceSweep(os.Stdout, *seed); err != nil {
			fatal(err)
		}
		return
	}

	opts := bench.Options{Seed: *seed}
	if *full {
		opts.Runs = 20
	} else {
		opts.Runs = 5
		opts.MaxNodes = 3100
	}
	if *maxNodes != 0 {
		opts.MaxNodes = *maxNodes
	}
	if *runs != 0 {
		opts.Runs = *runs
	}
	if *table == 1 || *table == 2 {
		opts.Skip45 = true
	}
	var progress *os.File
	if *verbose {
		progress = os.Stderr
	}
	var results []bench.CircuitResult
	var err error
	if progress != nil {
		results, err = bench.RunSuite(opts, progress)
	} else {
		results, err = bench.RunSuite(opts, nil)
	}
	if err != nil {
		fatal(err)
	}
	if *table == 0 || *table == 1 {
		bench.WriteTable1(os.Stdout, results)
		fmt.Println()
	}
	if *table == 0 || *table == 2 {
		bench.WriteTable2(os.Stdout, results, opts.Runs)
		fmt.Println()
	}
	if (*table == 0 || *table == 3) && !opts.Skip45 {
		bench.WriteTable3(os.Stdout, results, opts.Runs)
		fmt.Println()
	}
	if *table == 0 || *table == 4 {
		bench.WriteTable4(os.Stdout, results, opts.Runs)
		fmt.Println()
	}
	if *table == 0 {
		if err := bench.WriteFigure1(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
