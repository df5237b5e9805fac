package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopShowsStall drives a fake server that stalls every request
// for one second in the middle of the run. Timed from its due time, every
// request due during the stall waits, so the stall shows in p95; timed
// from its send, only the requests on the two blocked connections would.
func TestOpenLoopShowsStall(t *testing.T) {
	var mu sync.Mutex
	stalled := false
	start := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if !stalled && time.Since(start) > 500*time.Millisecond {
			stalled = true
			time.Sleep(time.Second)
		}
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2}}

	const rate, n = 40.0, 100
	dues := paceDues(n, rate, 0.2, rand.New(rand.NewSource(1)).Float64)
	sendLat := make([]time.Duration, n)
	start = time.Now()
	lat, late := openLoop(dues, 2, func(i int) {
		t0 := time.Now()
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		sendLat[i] = time.Since(t0)
	})
	if !stalled {
		t.Fatal("the fake server never stalled")
	}
	p95 := percentile(millis(lat), 95)
	if p95 < 500 {
		t.Errorf("p95 from due time = %.1f ms; the 1 s stall is hidden", p95)
	}
	if sendP95 := percentile(millis(sendLat), 95); sendP95 >= p95 {
		t.Errorf("p95 from send time %.1f ms ≥ from due time %.1f ms", sendP95, p95)
	}
	if lateP95 := percentile(millis(late), 95); lateP95 > 1000/rate {
		t.Errorf("generator late p95 = %.1f ms: the dispatcher waited on the stalled workers", lateP95)
	}
}

func TestClosedLoopRunsEveryRequestOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	inFlight, peak := 0, 0
	wall, lat := closedLoop(50, 2, func(i int) {
		mu.Lock()
		seen[i]++
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	if len(seen) != 50 || len(lat) != 50 || wall <= 0 {
		t.Fatalf("ran %d distinct requests, %d latencies, wall %v", len(seen), len(lat), wall)
	}
	for i, k := range seen {
		if k != 1 {
			t.Errorf("request %d ran %d times", i, k)
		}
	}
	if peak > 2 {
		t.Errorf("%d requests in flight, want at most 2", peak)
	}
}

func TestPaceDues(t *testing.T) {
	dues := paceDues(4000, 40, 0.2, rand.New(rand.NewSource(3)).Float64)
	rate := float64(len(dues)) / dues[len(dues)-1].Seconds()
	if rate < 39.5 || rate > 40.5 {
		t.Errorf("offered rate %.2f req/s, want 40", rate)
	}
	for i := 1; i < len(dues); i++ {
		if gap := dues[i] - dues[i-1]; gap < 14*time.Millisecond {
			t.Fatalf("gap %v at %d, want at least 0.6 periods", gap, i)
		}
	}
	again := paceDues(4000, 40, 0.2, rand.New(rand.NewSource(3)).Float64)
	for i := range dues {
		if dues[i] != again[i] {
			t.Fatalf("schedule differs at %d for the same seed", i)
		}
	}
}
