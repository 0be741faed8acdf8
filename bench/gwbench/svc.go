package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"glasswing/internal/dist"
	"glasswing/internal/jobsvc"
	"glasswing/internal/kv"
)

// service is the job service behind a real loopback HTTP listener — what
// `distnode -jobsvc` runs.
type service struct {
	svc  *jobsvc.Service
	srv  *http.Server
	base string
}

func startService(scratch string) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("job service listen: %w", err)
	}
	s := &service{
		svc: jobsvc.New(jobsvc.Config{
			FleetWorkers:       svcFleet,
			Tuning:             dist.Tuning{WorkDir: scratch},
			RuntimeSampleEvery: 200 * time.Millisecond,
		}),
		base: "http://" + ln.Addr().String(),
	}
	s.srv = &http.Server{Handler: s.svc.Handler()}
	go s.srv.Serve(ln)
	return s, nil
}

func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.svc.Close()
}

// svcJob is one job as a client saw it. Durations are wall clock at the
// client; waitMS, runMS and engineMS are the service's own accounting,
// which it reports in whole milliseconds.
type svcJob struct {
	total, submit, result   time.Duration
	waitMS, runMS, engineMS float64
	rejected                bool
	err                     error
}

type svcLoop struct {
	jobs    []svcJob
	elapsed time.Duration
}

// runService drives the closed loop: each of svcClients clients submits a
// job, polls its status every millisecond until it is terminal, fetches
// the result and only then submits the next. A client stops submitting at
// the deadline, or after maxJobs jobs when that is set (-check).
// Client.WaitDone is not used: its doubling back-off only observes a job
// at 2, 6, 14, 30, 62 ms after submit, which would quantize the latencies.
func (h *harness) runService(s *service, in *input, dur time.Duration, maxJobs int, traced bool) svcLoop {
	var mu sync.Mutex
	var loop svcLoop
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range in.svcBodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{}, Timeout: repTimeout}
			defer hc.CloseIdleConnections()
			more := func(n int) bool {
				if maxJobs > 0 {
					return n < maxJobs
				}
				return time.Now().Before(deadline)
			}
			for n := 0; more(n); n++ {
				j := h.oneJob(hc, s.base, in, in.svcBodies[c], traced)
				mu.Lock()
				loop.jobs = append(loop.jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	loop.elapsed = time.Since(start)
	return loop
}

func (h *harness) oneJob(hc *http.Client, base string, in *input, body []byte, traced bool) svcJob {
	var j svcJob
	span := func(name string, from, to time.Time) {
		if traced {
			h.span(name, from, to)
		}
	}
	get := func(url string, v any) error {
		resp, err := hc.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
		}
		return json.Unmarshal(raw, v)
	}

	t0 := time.Now()
	resp, err := hc.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	j.submit = t1.Sub(t0)
	span("bench/svc.submit", t0, t1)
	var st jobsvc.Status
	if err == nil && resp.StatusCode != http.StatusAccepted {
		j.rejected = resp.StatusCode == http.StatusTooManyRequests
		err = fmt.Errorf("POST /jobs: %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	if err != nil {
		j.err = err
		return j
	}

	for {
		if err := get(base+"/jobs/"+st.ID, &st); err != nil {
			j.err = err
			return j
		}
		if st.State != jobsvc.StateQueued && st.State != jobsvc.StateRunning {
			break
		}
		if time.Since(t1) > repTimeout {
			j.err = fmt.Errorf("job %s still %s after %v", st.ID, st.State, repTimeout)
			return j
		}
		time.Sleep(time.Millisecond)
	}
	t2 := time.Now()
	span("bench/svc.poll", t1, t2)
	if st.State != jobsvc.StateDone || st.Stats == nil {
		j.err = fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
		return j
	}
	j.waitMS, j.runMS, j.engineMS = float64(st.WaitMS), float64(st.RunMS), float64(st.Stats.TotalMS)

	var res jobsvc.Result
	if err := get(base+"/jobs/"+st.ID+"/result", &res); err != nil {
		j.err = err
		return j
	}
	t3 := time.Now() // result bytes in hand: the client's clock stops here
	j.result = t3.Sub(t2)
	j.total = t3.Sub(t0)
	span("bench/svc.result", t2, t3)

	var pairs []kv.Pair
	blob, err := base64.StdEncoding.DecodeString(res.OutputB64)
	if err == nil {
		pairs, err = kv.Unmarshal(blob)
	}
	if err == nil {
		err = in.svcVerify(pairs)
	}
	if err != nil {
		j.err = fmt.Errorf("job %s output: %w", st.ID, err)
	}
	span("bench/verify", t3, time.Now())
	return j
}

// serviceGauges reads GET /metrics after a loop.
func serviceGauges(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc snapshot
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	out := make(map[string]float64)
	for _, m := range doc.Metrics {
		if m.Type == "gauge" && len(m.Labels) == 0 {
			out[m.Name] = m.Value
		}
	}
	return out, nil
}
