// Package sched is propserve's fair-share dispatcher: a bounded worker
// pool fed by per-tenant FIFO queues under round-robin selection, with
// per-tenant token-bucket admission quotas in front of it.
//
// Admission and dispatch are separate concerns. Admit is the quota gate:
// each tenant owns a token bucket refilled at Config.Rate tokens/sec up
// to Config.Burst, and a submission that finds the bucket empty is
// rejected outright (the server answers 429). Enqueue is the fair-share
// gate: admitted work joins its tenant's FIFO, and the workers pick the
// next job by round robin over the non-empty tenant queues — the head
// queue serves one job and rotates to the tail. That keeps the two
// invariants the server relies on: no tenant can starve another
// regardless of how fast it submits (between two jobs of one tenant,
// every other backlogged tenant is served at least once), and the
// dispatch order is a pure function of the arrival order (with one worker
// the execution order is too — determinism the crash-recovery replay
// leans on).
//
// The clock is injectable so quota tests can steer refill; the queue
// depth hook feeds the server's per-tenant gauges without the scheduler
// knowing about metrics.
package sched

import (
	"context"
	"sync"
	"time"
)

// Config wires a Scheduler. The zero value of any field selects its
// default.
type Config struct {
	// Workers is the number of concurrent dispatch slots (0 selects 1).
	Workers int
	// Rate is the per-tenant admission quota in tokens (submissions) per
	// second; 0 disables quotas (Admit always accepts).
	Rate float64
	// Burst is the token-bucket capacity (0 selects max(1, Rate)).
	Burst float64
	// Now is the scheduler's clock (nil selects time.Now).
	Now func() time.Time
	// OnQueueDepth, when non-nil, is called after every enqueue and
	// dispatch with the tenant's new queue depth.
	OnQueueDepth func(tenant string, depth int)
}

// tenantQ is one tenant's FIFO.
type tenantQ struct {
	name   string
	fifo   []func()
	queued bool // in the active rotation
}

// bucket is one tenant's admission quota state.
type bucket struct {
	tokens float64
	last   time.Time
}

// Scheduler dispatches enqueued work across a bounded worker pool with
// per-tenant fairness. All methods are safe for concurrent use.
type Scheduler struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string]*tenantQ
	active  []*tenantQ // non-empty queues, round-robin order
	buckets map[string]*bucket
	pending int // enqueued + running jobs
	closed  bool
	wg      sync.WaitGroup
}

// New builds a Scheduler and starts its workers.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	s := &Scheduler{
		cfg:     cfg,
		queues:  map[string]*tenantQ{},
		buckets: map[string]*bucket{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Admit takes one token from the tenant's quota bucket, reporting whether
// the submission is within quota. With Rate 0 it always admits.
func (s *Scheduler) Admit(tenant string) bool {
	if s.cfg.Rate <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Now()
	b := s.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: s.cfg.Burst, last: now}
		s.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * s.cfg.Rate
	if b.tokens > s.cfg.Burst {
		b.tokens = s.cfg.Burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Enqueue appends work to the tenant's queue. It returns false after
// Close (the work is refused, not silently dropped).
func (s *Scheduler) Enqueue(tenant string, fn func()) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	q := s.queues[tenant]
	if q == nil {
		q = &tenantQ{name: tenant}
		s.queues[tenant] = q
	}
	q.fifo = append(q.fifo, fn)
	if !q.queued {
		q.queued = true
		s.active = append(s.active, q)
	}
	s.pending++
	depth := len(q.fifo)
	s.mu.Unlock()
	if s.cfg.OnQueueDepth != nil {
		s.cfg.OnQueueDepth(tenant, depth)
	}
	s.cond.Signal()
	return true
}

// next blocks until a job is available (returning it and its tenant) or
// the scheduler closes.
func (s *Scheduler) next() (string, func(), bool) {
	s.mu.Lock()
	for len(s.active) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.active) == 0 {
		// Closed with empty queues.
		s.mu.Unlock()
		return "", nil, false
	}
	// Round robin, one job per call: the head queue serves one job and
	// rotates to the tail so every backlogged tenant is visited before it
	// comes up again.
	q := s.active[0]
	fn := q.fifo[0]
	q.fifo = q.fifo[1:]
	if len(q.fifo) == 0 {
		q.queued = false
		s.active = s.active[1:]
	} else {
		s.active = append(s.active[1:], q)
	}
	depth := len(q.fifo)
	s.mu.Unlock()
	if s.cfg.OnQueueDepth != nil {
		s.cfg.OnQueueDepth(q.name, depth)
	}
	return q.name, fn, true
}

// worker executes jobs until the scheduler closes and its queues drain.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		_, fn, ok := s.next()
		if !ok {
			return
		}
		fn()
		s.mu.Lock()
		s.pending--
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}

// QueueDepth returns the tenant's current queue length.
func (s *Scheduler) QueueDepth(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queues[tenant]; q != nil {
		return len(q.fifo)
	}
	return 0
}

// Pending returns the number of jobs enqueued or running.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Drain blocks until every enqueued job has finished or ctx expires.
// It does not stop new enqueues — callers gate those themselves.
func (s *Scheduler) Drain(ctx context.Context) error {
	for {
		s.mu.Lock()
		n := s.pending
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Close stops the workers once the queues are empty and waits for them to
// exit. Enqueue refuses new work after Close.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}
