// Package engine is the concurrent execution core shared by the prop
// library, the propart CLI, and the propserve service. It runs portfolios
// of independent multi-start runs (and recursive k-way subproblems) across
// a bounded worker pool with context cancellation, while keeping the
// outcome bit-identical to the sequential loop: every run derives its own
// seed, so run r computes the same result no matter which goroutine
// executes it, and the reduction picks the minimum-cost result breaking
// ties toward the lowest run index — exactly what the sequential
// "replace on strict improvement" loop produces.
package engine

import (
	"context"
	"runtime"
	"sync"
	"time"

	"prop/internal/obs"
)

// RunFunc executes one independent run of a portfolio. It must be safe to
// call concurrently with itself for different run indices, and its result
// must depend only on the run index (plus captured read-only state).
type RunFunc[T any] func(ctx context.Context, run int) (T, error)

// Update reports one completed run to a progress hook.
type Update[T any] struct {
	Run    int // run index, 0-based
	Result T
}

// Config controls a portfolio execution.
type Config[T any] struct {
	// Workers bounds concurrent runs; 0 or negative selects
	// runtime.GOMAXPROCS(0). Workers == 1 executes runs in index order on
	// the calling goroutine.
	Workers int

	// Less orders results; the portfolio returns the least result, with
	// ties broken toward the lowest run index. Required.
	Less func(a, b T) bool

	// OnRun, when non-nil, observes every completed run. Calls are
	// serialized (never concurrent with each other) but arrive in
	// completion order, not run order.
	OnRun func(Update[T])

	// Tracer, when non-nil, records a run_start/run_end span around every
	// portfolio run (the tracer serializes concurrent emissions).
	// Observation-only; never affects results.
	Tracer *obs.Tracer
	// TraceID labels the emitted spans with a request/job ID. Optional.
	TraceID string
}

// tracedRun wraps one fn invocation in a run_start/run_end span.
func tracedRun[T any](ctx context.Context, cfg *Config[T], fn RunFunc[T], r int) (T, error) {
	if !cfg.Tracer.RunEnabled() {
		return fn(ctx, r)
	}
	cfg.Tracer.EmitRunStart(obs.RunStart{ID: cfg.TraceID, Run: r})
	start := time.Now()
	v, err := fn(ctx, r)
	end := obs.RunEnd{ID: cfg.TraceID, Run: r, Dur: time.Since(start)}
	if err != nil {
		end.Err = err.Error()
	}
	cfg.Tracer.EmitRunEnd(end)
	return v, err
}

// workerCount resolves a Workers setting: values < 1 select GOMAXPROCS.
func workerCount(w int) int {
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Portfolio executes fn for run indices [0, runs) across the worker pool
// and returns the best result per cfg.Less with sequential tie-breaking.
//
// If any run fails, the remaining runs are still drained and the error
// from the lowest-indexed failing run is returned — the same error the
// sequential loop would have hit first. If ctx is cancelled (or
// its deadline passes) before every run completes, Portfolio returns
// ctx.Err(); runs already finished are discarded so that a timeout never
// silently degrades to a smaller portfolio. Callers that want best-effort
// results under a deadline should size the portfolio instead (see
// propserve's run budget).
func Portfolio[T any](ctx context.Context, runs int, cfg Config[T], fn RunFunc[T]) (best T, bestRun int, err error) {
	var zero T
	if runs < 1 {
		runs = 1
	}
	workers := workerCount(cfg.Workers)
	if workers > runs {
		workers = runs
	}

	if workers == 1 {
		// Sequential fast path: no goroutines, no channels — this is the
		// exact legacy loop, kept separate so -par 1 has zero overhead.
		bestRun = -1
		for r := 0; r < runs; r++ {
			if e := ctx.Err(); e != nil {
				return zero, 0, e
			}
			v, e := tracedRun(ctx, &cfg, fn, r)
			if e != nil {
				return zero, 0, e
			}
			if cfg.OnRun != nil {
				cfg.OnRun(Update[T]{Run: r, Result: v})
			}
			if bestRun < 0 || cfg.Less(v, best) {
				best, bestRun = v, r
			}
		}
		return best, bestRun, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		run int
		v   T
		err error
	}
	runCh := make(chan int)
	outCh := make(chan outcome)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for r := range runCh {
				v, e := tracedRun(ctx, &cfg, fn, r)
				select {
				case outCh <- outcome{run: r, v: v, err: e}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	// Feed run indices until done or cancelled.
	go func() {
		defer close(runCh)
		for r := 0; r < runs; r++ {
			select {
			case runCh <- r:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outCh)
	}()

	bestRun = -1
	errRun := -1
	completed := 0
	for completed < runs {
		select {
		case <-ctx.Done():
			return zero, 0, ctx.Err()
		case o, ok := <-outCh:
			if !ok {
				// Workers exited early: only possible after cancellation.
				if e := ctx.Err(); e != nil {
					return zero, 0, e
				}
				if err != nil {
					return zero, 0, err
				}
				return best, bestRun, nil
			}
			completed++
			if o.err != nil {
				// Keep the error of the lowest-indexed failing run so the
				// reported error matches what the sequential loop would
				// have hit first; keep draining so determinism holds.
				if errRun < 0 || o.run < errRun {
					errRun, err = o.run, o.err
				}
				continue
			}
			if cfg.OnRun != nil {
				cfg.OnRun(Update[T]{Run: o.run, Result: o.v})
			}
			if bestRun < 0 || cfg.Less(o.v, best) || (!cfg.Less(best, o.v) && o.run < bestRun) {
				best, bestRun = o.v, o.run
			}
		}
	}
	cancel()
	if err != nil {
		return zero, 0, err
	}
	return best, bestRun, nil
}

// Pair runs f and g concurrently when workers > 1, sequentially otherwise,
// and returns the first non-nil error with f's error preferred — matching
// the sequential "f then g" order. It is the recursion primitive for
// parallel recursive k-way partitioning: the two halves of a bisection are
// independent subproblems.
func Pair(ctx context.Context, workers int, f, g func(context.Context) error) error {
	if workerCount(workers) == 1 {
		if err := f(ctx); err != nil {
			return err
		}
		return g(ctx)
	}
	var gErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		gErr = g(ctx)
	}()
	fErr := f(ctx)
	<-done
	if fErr != nil {
		return fErr
	}
	return gErr
}
