// Command tracestat summarizes a propart/propserve JSONL trace file into
// the run report (internal/obs/report): per-phase wall-time tree, top-N
// phases, pass convergence curve, and move/flow rates. It also validates
// the trace against the schema in internal/obs: after printing the
// report it exits 1, naming the first offending line, when the trace is
// invalid.
//
//	tracestat [-top N] [-json] trace.jsonl
//
// Reading from "-" takes the trace from stdin. Regression judgement is
// perfbench's job (perfbench/run.sh --compare), not this command's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"prop/internal/obs/report"
)

func main() {
	top := flag.Int("top", 10, "flattened top-N phase table size (0 disables)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [-top N] [-json] trace.jsonl")
		os.Exit(2)
	}
	path := flag.Arg(0)
	rep := mustRead(path)
	var err error
	switch {
	case rep.Events == 0:
		// Nothing to report; such a trace always has a violation.
	case *jsonOut:
		err = report.WriteJSON(os.Stdout, rep)
	default:
		err = report.WriteText(os.Stdout, rep, *top)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
		os.Exit(1)
	}
	if rep.Violation != "" {
		fmt.Fprintf(os.Stderr, "tracestat: %s: invalid trace: %s\n", path, rep.Violation)
		os.Exit(1)
	}
}

// mustRead aggregates the trace file ("-" = stdin) or exits.
func mustRead(path string) *report.RunReport {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	rep, err := report.Read(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestat: %s: %v\n", path, err)
		os.Exit(1)
	}
	return rep
}
