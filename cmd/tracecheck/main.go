// Command tracecheck validates a JSONL trace produced by the tracing
// subsystem (propart -trace or propserve ?trace=). It checks every line
// against the event schema documented in internal/obs — unknown event
// kinds are violations, so schema drift cannot slip through silently —
// validates per-run timestamp monotonicity and run-span balance, and
// replays each run's phase_start/phase pairs against a stack to reject
// unbalanced or misnested phase spans. Exits non-zero on the first
// violation, so CI can assert that the trace pipeline emits well-formed
// events end to end.
//
// Usage:
//
//	tracecheck trace.jsonl     # or '-' for stdin
//
// On success it prints a one-line summary (event counts by kind).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// schema lists the required fields per event kind and the JSON type
// (as decoded by encoding/json) each must carry.
var schema = map[string]map[string]string{
	"run_start": {"ts_us": "number", "ev": "string", "run": "number"},
	"run_end":   {"ts_us": "number", "ev": "string", "run": "number", "dur_us": "number"},
	"pass": {
		"ts_us": "number", "ev": "string", "run": "number", "algo": "string",
		"pass": "number", "cut": "number", "gmax": "number",
		"moves": "number", "kept": "number", "locked": "number", "dur_us": "number",
	},
	"move": {
		"ts_us": "number", "ev": "string", "run": "number",
		"pass": "number", "node": "number", "gain": "number",
	},
	"flow": {
		"ts_us": "number", "ev": "string", "run": "number",
		"round": "number", "boundary": "number", "corridor": "number",
		"nets": "number", "flow": "number", "cut_before": "number",
		"cut_after": "number", "adopted": "number", "dur_us": "number",
	},
	"delta_apply": {
		"ts_us": "number", "ev": "string", "run": "number",
		"structural": "number", "nodes": "number", "nets": "number",
		"collapsed": "number", "dur_us": "number",
	},
	"phase_start": {
		"ts_us": "number", "ev": "string", "run": "number",
		"name": "string", "depth": "number", "level": "number",
	},
	"phase": {
		"ts_us": "number", "ev": "string", "run": "number",
		"name": "string", "depth": "number", "level": "number",
		"wall_us": "number",
	},
}

// phaseFrame is one open span on a run's phase stack.
type phaseFrame struct {
	name  string
	depth float64
}

func jsonType(v any) string {
	switch v.(type) {
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case nil:
		return "null"
	}
	return "object"
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.jsonl | ->")
		os.Exit(2)
	}
	in := os.Stdin
	if os.Args[1] != "-" {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	counts := map[string]int{}
	lastTS := map[float64]float64{} // per-run monotonic timestamp check
	phases := map[float64][]phaseFrame{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			fatal(fmt.Errorf("line %d: empty line", line))
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			fatal(fmt.Errorf("line %d: invalid JSON: %w", line, err))
		}
		kind, _ := ev["ev"].(string)
		want, ok := schema[kind]
		if !ok {
			fatal(fmt.Errorf("line %d: unknown event kind %q", line, kind))
		}
		for field, typ := range want {
			v, present := ev[field]
			if !present {
				fatal(fmt.Errorf("line %d: %s event missing field %q", line, kind, field))
			}
			if jsonType(v) != typ {
				fatal(fmt.Errorf("line %d: %s event field %q is %s, want %s",
					line, kind, field, jsonType(v), typ))
			}
		}
		ts := ev["ts_us"].(float64)
		run := ev["run"].(float64)
		if ts < 0 {
			fatal(fmt.Errorf("line %d: negative ts_us %g", line, ts))
		}
		// Events of one run are emitted in order; with a parallel portfolio
		// runs interleave, so monotonicity holds per run, not globally.
		if prev, seen := lastTS[run]; seen && ts < prev {
			fatal(fmt.Errorf("line %d: run %g ts_us %g went backwards (prev %g)", line, run, ts, prev))
		}
		lastTS[run] = ts
		// Phase spans must nest per run: a phase_start's depth equals the
		// open-span count, and the matching phase end names the stack top.
		// (Phase tracing assumes one emitter per run index; a traced
		// parallel k-way run, where sibling portfolios reuse run indices,
		// is the one producer that can legitimately violate this.)
		switch kind {
		case "phase_start":
			st := phases[run]
			if d := ev["depth"].(float64); d != float64(len(st)) {
				fatal(fmt.Errorf("line %d: run %g phase_start %q depth %g, want %d open spans",
					line, run, ev["name"], d, len(st)))
			}
			phases[run] = append(st, phaseFrame{ev["name"].(string), ev["depth"].(float64)})
		case "phase":
			st := phases[run]
			if len(st) == 0 {
				fatal(fmt.Errorf("line %d: run %g phase %q ends with no open span", line, run, ev["name"]))
			}
			top := st[len(st)-1]
			if top.name != ev["name"].(string) || top.depth != ev["depth"].(float64) {
				fatal(fmt.Errorf("line %d: run %g phase %q/depth %g ends, but %q/depth %g is open",
					line, run, ev["name"], ev["depth"], top.name, top.depth))
			}
			phases[run] = st[:len(st)-1]
		}
		counts[kind]++
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if line == 0 {
		fatal(fmt.Errorf("no events"))
	}
	if counts["run_start"] != counts["run_end"] {
		fatal(fmt.Errorf("unbalanced run spans: %d run_start, %d run_end",
			counts["run_start"], counts["run_end"]))
	}
	for run, st := range phases {
		if len(st) > 0 {
			fatal(fmt.Errorf("run %g ends with %d unclosed phase span(s), first %q",
				run, len(st), st[0].name))
		}
	}

	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, counts[k])
	}
	fmt.Printf("tracecheck: %d events ok (%s)\n", line, strings.Join(parts, " "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}
