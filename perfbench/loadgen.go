package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoop drives an open loop: request i is due at start+dues[i] whether
// or not earlier ones have finished, and at most conns requests are in
// flight, each on its own worker. do performs one request synchronously.
// Latency runs from the due time, so a stall delays every request due
// during it instead of hiding behind the busy connections; late is how
// far behind schedule the dispatcher handed each request out.
func openLoop(dues []time.Duration, conns int, do func(i int)) (latency, late []time.Duration) {
	latency = make([]time.Duration, len(dues))
	late = make([]time.Duration, len(dues))
	// Buffered to the request count: the dispatcher never waits for a
	// worker, or its own lateness would absorb the server's queueing.
	queue := make(chan int, len(dues))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				do(i)
				latency[i] = time.Since(start.Add(dues[i]))
			}
		}()
	}
	for i, d := range dues {
		due := start.Add(d)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return latency, late
}

// closedLoop runs n requests on conns workers, each sending its next
// request as soon as the previous one completes. It returns the wall time
// and each request's latency from its send.
func closedLoop(n, conns int, do func(i int)) (wall time.Duration, latency []time.Duration) {
	latency = make([]time.Duration, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t := time.Now()
				do(i)
				latency[i] = time.Since(t)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), latency
}

// paceDues returns n arrival offsets at rate per second: request i is due
// at (i + u)/rate with u drawn uniformly from ±jitter by rnd (a [0, 1)
// source). A paced schedule keeps bursts, and the queueing they cause,
// out of the latency the benchmark compares; the seeded jitter keeps
// requests from locking step with the server's periodic work.
func paceDues(n int, rate, jitter float64, rnd func() float64) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		t := (float64(i) + 1 + jitter*(2*rnd()-1)) / rate
		dues[i] = time.Duration(t * float64(time.Second))
	}
	return dues
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Microseconds()) / 1000
	}
	return out
}
