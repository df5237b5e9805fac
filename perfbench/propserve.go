package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"prop/internal/jobs"
)

// server is a running propserve process.
type server struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed once the process's stderr hits EOF
	stopped bool
}

// serverStartTimeout bounds how long a start or a stop may take.
const serverStartTimeout = 30 * time.Second

// startServer starts propserve with default flags on a free port and a
// journal in dir, and returns once /healthz answers.
func startServer(bin, journal string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-journal", journal)
	// Should the benchmark die before stop runs, the server goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	first := make(chan string, 1)
	go func() {
		// The first line announces the address; the request log that
		// follows is drained so the server never blocks on its stderr.
		defer close(s.drained)
		br := bufio.NewReader(stderr)
		line, _ := br.ReadString('\n')
		first <- line
		io.Copy(io.Discard, br)
	}()
	select {
	case line := <-first:
		f := strings.Fields(line)
		if len(f) < 4 || f[1] != "listening" {
			s.stop()
			return nil, fmt.Errorf("propserve did not announce its address: %q", line)
		}
		s.url = "http://" + f[3]
	case <-time.After(serverStartTimeout):
		s.stop()
		return nil, fmt.Errorf("propserve did not start within %s", serverStartTimeout)
	}
	deadline := time.Now().Add(serverStartTimeout)
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("propserve /healthz: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM (SIGKILL after a timeout) and waits
// for it to exit. It is idempotent.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(serverStartTimeout):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("propserve exit: %w", err)
	}
	return nil
}

// snapshot is the part of propserve's JSON /metrics the benchmark reads.
type snapshot struct {
	Phase          map[string]histo `json:"phase_duration_ms"`
	QueueWait      map[string]histo `json:"job_queue_wait_ms"`
	Done           map[string]int64 `json:"tenant_jobs_completed_total"`
	TenantRejected map[string]int64 `json:"tenant_rejected_total"`
	Errors         int64            `json:"errors_total"`
	Rejected       int64            `json:"jobs_rejected_total"`
	Hits           int64            `json:"result_cache_hits_total"`
	Misses         int64            `json:"result_cache_misses_total"`
}

type histo struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

func (in *serveInput) scrape() (snapshot, error) {
	var s snapshot
	resp, err := in.client.Get(in.srv.url + "/metrics?format=json")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// serverLayers derives the server-side per-layer metrics from two
// /metrics snapshots around n requests.
func serverLayers(c *runCtx, before, after snapshot, n int) {
	phase := func(name string) float64 { return after.Phase[name].Sum - before.Phase[name].Sum }
	c.metrics["core.prop_ms_per_req"] = ratio(phase("prop"), float64(n))
	c.metrics["warm.polish_ms_per_req"] = ratio(phase("polish"), float64(n))
	c.metrics["propserve.errors"] = float64(after.Errors - before.Errors)
	rejected := after.Rejected - before.Rejected
	for t, v := range after.TenantRejected {
		rejected += v - before.TenantRejected[t]
	}
	c.metrics["propserve.rejected"] = float64(rejected)
	var waitSum, waitN float64
	var done []float64
	for _, t := range sortedKeys(after.QueueWait) {
		waitSum += after.QueueWait[t].Sum - before.QueueWait[t].Sum
		waitN += float64(after.QueueWait[t].Count - before.QueueWait[t].Count)
	}
	for _, t := range sortedKeys(after.Done) {
		done = append(done, float64(after.Done[t]-before.Done[t]))
	}
	c.metrics["sched.queue_wait_ms_mean"] = ratio(waitSum, waitN)
	if len(done) > 0 {
		sort.Float64s(done)
		c.metrics["sched.fairness"] = ratio(done[len(done)-1], done[0])
	}
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	c.metrics["cache.hit_ratio"] = ratio(hits, hits+misses)
}

// countingFS is a jobs.FS over the real disk that counts the journal's
// fsyncs and written bytes.
type countingFS struct {
	syncs int
	bytes int64
}

type countingFile struct {
	*os.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes += int64(n)
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

func (fs *countingFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (fs *countingFS) Create(name string) (jobs.File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs}, nil
}

func (fs *countingFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (fs *countingFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *countingFS) Remove(name string) error { return os.Remove(name) }

// replayJournal replays the batch jobs of the traced half through a job
// store on a counting filesystem with propserve's journal settings: the
// journaled payload (the item and its query), then the running and done
// transitions with the streamed result. It measures the journal's share
// of a batch request from outside the server.
func replayJournal(c *runCtx, batches []*request) error {
	fs := &countingFS{}
	store, _, err := jobs.Open(jobs.Config{
		Dir: filepath.Join(c.workdir, "replay-journal"), FS: fs,
		MaxActive: 64, MaxDone: 256, TTL: 15 * time.Minute, SegmentBytes: 8 << 20,
	})
	if err != nil {
		return err
	}
	fs.syncs, fs.bytes = 0, 0
	var submit, finish []float64
	for _, r := range batches {
		var body struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(r.payload, &body); err != nil || len(body.Items) != 1 {
			return fmt.Errorf("replay: batch payload: %v", err)
		}
		var line struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(r.resp, &line); err != nil {
			return fmt.Errorf("replay: batch line: %w", err)
		}
		kind := "partition"
		if r.delta != nil {
			kind = "repartition"
		}
		payload, err := json.Marshal(map[string]any{
			"kind": kind, "query": strings.SplitN(r.path, "?", 2)[1],
			"content_type": "application/json", "body": []byte(body.Items[0]),
		})
		if err != nil {
			return err
		}
		start := time.Now()
		j, err := store.Submit(r.tenant, payload)
		submit = append(submit, float64(time.Since(start).Microseconds())/1000)
		if err != nil {
			return fmt.Errorf("replay: submit: %w", err)
		}
		store.Transition(j.ID, jobs.Pending, jobs.Running, nil)
		start = time.Now()
		ok := store.Transition(j.ID, jobs.Running, jobs.Done, func(j *jobs.Job) { j.Result = line.Result })
		finish = append(finish, float64(time.Since(start).Microseconds())/1000)
		if !ok {
			return fmt.Errorf("replay: job %s did not reach done", j.ID)
		}
	}
	if err := store.Close(); err != nil {
		return err
	}
	n := float64(len(batches))
	c.metrics["jobs.submit_ms_p50"] = percentile(submit, 50)
	c.metrics["jobs.finish_ms_p50"] = percentile(finish, 50)
	c.metrics["jobs.fsyncs_per_job"] = ratio(float64(fs.syncs), n)
	c.metrics["jobs.bytes_per_job"] = ratio(float64(fs.bytes), n)
	return nil
}
