// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed amount of work derived from --seconds, checks every
// output, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With --trace 0 the metrics are the end-to-end metrics of metrics.go;
// with --trace 1 they are the per-layer metrics, measured by a traced run
// of the same operations. Usage:
//
//	perfbench --workload suite|scale|serve --seed N --seconds S --trace 0|1 [--out records.jsonl]
//	perfbench --compare old.jsonl new.jsonl
//
// run.sh builds this command and propserve from source and runs it from
// the repository root; README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runCtx) error{
	"suite": runSuite,
	"scale": runScale,
	"serve": runServe,
}

// runCtx carries one run's settings in and its measurements out.
type runCtx struct {
	seed      int64
	seconds   int
	trace     bool
	workdir   string // scratch directory of this run, removed at the end
	propserve string // path of the propserve binary (serve only)
	log       io.Writer

	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	inputs    map[string]any
	mix       map[string]float64
	offered   float64
	samples   map[string]float64
}

// maxProblems caps the problem list a record carries.
const maxProblems = 20

// fail counts one failed operation and records why.
func (c *runCtx) fail(format string, args ...any) {
	c.failed++
	c.problem(format, args...)
}

// problem records a failed check that is not an operation of its own.
func (c *runCtx) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(c.log, "perfbench: FAIL", msg)
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, msg)
	}
}

// record is one run's self-describing result, appended to --out so runs
// from different hosts or settings are never compared silently.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Inputs     map[string]any     `json:"inputs"`
	Mix        map[string]float64 `json:"mix,omitempty"`
	OfferedRPS float64            `json:"offered_rps,omitempty"`
	Samples    map[string]float64 `json:"samples,omitempty"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: suite, scale or serve")
		seed      = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 30, "nominal measuring time; fixes the amount of work")
		trace     = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		propserve = flag.String("propserve", filepath.Join(".bench_build", "propserve"), "propserve binary (serve)")
		workroot  = flag.String("workdir", ".bench_build", "directory for per-run scratch files")
		out       = flag.String("out", "", "append the run's record to this JSONL file")
		compare   = flag.Bool("compare", false, "compare two record files: perfbench --compare old.jsonl new.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare takes two record files")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload suite|scale|serve, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workroot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workroot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	c := &runCtx{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: dir, propserve: *propserve, log: os.Stderr,
		metrics: map[string]float64{}, inputs: map[string]any{}, samples: map[string]float64{},
	}
	err = run(c)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	rec, err := finish(c, *workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := printResult(os.Stdout, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rec.Correct {
		os.Exit(1)
	}
}

// finish completes the run's metric set and builds its record. Every
// metric of the run's kind must be present: end-to-end metrics are
// measured on every workload, and a per-layer metric the workload does
// not exercise reads 0.
func finish(c *runCtx, workload string) (record, error) {
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	metrics := map[string]float64{}
	for _, d := range defs {
		v, ok := c.metrics[d.Name]
		if !ok && (!c.trace || contains(d.On, workload)) {
			return record{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = v
	}
	return record{
		Workload: workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Inputs: c.inputs, Mix: c.mix, OfferedRPS: c.offered, Samples: c.samples,
		Correct:   c.failed == 0 && len(c.problems) == 0 && c.attempted > 0,
		Attempted: c.attempted, Failed: c.failed, Problems: c.problems,
		Metrics: metrics,
	}, nil
}

// printResult prints one line per metric, the record, and last the
// result object.
func printResult(w io.Writer, rec record) error {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]map[string]any{}}
	for _, d := range defs {
		v := rec.Metrics[d.Name]
		note := ""
		if d.Moves != "" {
			note = "  → " + d.Moves
		}
		fmt.Fprintf(w, "%-34s %14.6g %-9s%s\n", d.Name, v, d.Unit, note)
		res.Metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", line)
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// peakRSSMB reads VmHWM of the process (pid 0 for self) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in %s", path)
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
