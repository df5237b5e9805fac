package main

import (
	"fmt"
	"time"
)

// setupRepeats is how often suite and scale set up before they measure;
// setup_s is the median, so work moved into set-up shows. A set-up there
// lasts 20–50 ms, while the host's speed switches between a fast and a
// slow state about every half second, so a few set-ups in a row all land
// in one state; forty span about two seconds.
const setupRepeats = 40

// jobOut is one library call of a job list: its best cut and wall time.
type jobOut struct {
	name string
	cut  float64
	dur  time.Duration
}

// repCount turns --seconds into a fixed number of job-list repetitions
// from a constant nominal repetition time, so the work of a run depends
// on its settings only, never on how fast this build happens to be.
func repCount(seconds int, nominal float64) int {
	return max(1, int(float64(seconds)/nominal+0.5))
}

// fixedSeed is the solver and ECO seed of every suite and scale job. One
// solver trajectory varies 10–15% in time from seed to seed (the passes
// and hierarchy cycles it takes), so the job lists do the same work for
// every --seed and runs with different seeds differ by host noise alone.
// --seed varies only the serve workload's schedule and requests, which
// are many enough that their differences average out.
const fixedSeed = 1000

// timedSetup runs setup setupRepeats times, keeps the last result and
// reports the median time as setup_s.
func timedSetup[T any](c *runCtx, setup func() (T, error)) (T, error) {
	var in T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return in, err
		}
		times = append(times, time.Since(start).Seconds())
		in = v
	}
	c.metrics["setup_s"] = median(times)
	return in, nil
}

// measureReps runs the same job list reps times and reports the median
// repetition, so a transient stall of the host does not decide the run.
// Every repetition must reproduce the first one's cuts. Untraced, it
// reports the end-to-end metrics; traced, each repetition runs untraced
// and then traced, and obs.trace_overhead_pct compares the medians.
func measureReps(c *runCtx, reps int, rep func(traced bool) []jobOut) {
	var first, jobs []jobOut
	var plain, traced []float64
	same := func(out []jobOut) {
		if first == nil {
			first = out
			return
		}
		if len(out) != len(first) {
			c.problem("a repetition finished %d jobs, the first %d", len(out), len(first))
			return
		}
		for i := range out {
			if out[i].cut != first[i].cut {
				c.problem("%s: cut %g, first repetition %g", out[i].name, out[i].cut, first[i].cut)
			}
		}
	}
	wall := func(out []jobOut) float64 {
		t := 0.0
		for _, j := range out {
			t += j.dur.Seconds()
		}
		return t
	}
	for r := 0; r < reps; r++ {
		out := rep(false)
		same(out)
		jobs = append(jobs, out...)
		plain = append(plain, wall(out))
		if c.trace {
			tr := rep(true)
			same(tr)
			traced = append(traced, wall(tr))
		}
	}
	if c.trace {
		c.metrics["obs.trace_overhead_pct"] = (ratio(median(traced), median(plain)) - 1) * 100
		return
	}
	// A job's latency is its median over the repetitions; the percentiles
	// run over the job list.
	byJob := map[string][]float64{}
	for _, j := range jobs {
		byJob[j.name] = append(byJob[j.name], float64(j.dur.Microseconds())/1000)
	}
	var ms []float64
	for _, d := range byJob {
		ms = append(ms, median(d))
	}
	cut := 0.0
	for _, j := range first {
		cut += j.cut
	}
	solve := median(plain)
	c.metrics["solve_s"] = solve
	c.metrics["cut"] = cut
	c.metrics["sat_rps"] = ratio(float64(len(first)), solve)
	c.metrics["ok_ratio"] = ratio(float64(c.attempted-c.failed), float64(c.attempted))
	setLatency(c, ms)
}

// setLatency reports req_p50_ms and req_p95_ms over ms, and records the
// sample count, the samples beyond p95 and the highest percentile with at
// least minBeyond samples beyond it (0 if none), so a reader can tell
// whether the tail rests on enough samples.
func setLatency(c *runCtx, ms []float64) {
	c.metrics["req_p50_ms"] = percentile(ms, 50)
	c.metrics["req_p95_ms"] = percentile(ms, 95)
	tail, _ := tailPercentile(len(ms))
	c.samples["req"] = float64(len(ms))
	c.samples["req_p95_beyond"] = float64(beyond(len(ms), 95))
	c.samples["req_tail_percentile"] = tail
}

// setPeakRSS reports this process's VmHWM as peak_rss_mb.
func setPeakRSS(c *runCtx) error {
	if c.trace {
		return nil
	}
	mb, err := peakRSSMB(0)
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	c.metrics["peak_rss_mb"] = mb
	return nil
}
