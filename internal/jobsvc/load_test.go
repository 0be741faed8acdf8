package jobsvc_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"glasswing/internal/apps"
	"glasswing/internal/conformance"
	"glasswing/internal/dist"
	"glasswing/internal/jobsvc"
	"glasswing/internal/obs"
	"glasswing/internal/workload"
)

// startTestService boots an in-process service on a real loopback listener
// and returns a client plus a teardown that fully drains it.
func startTestService(t *testing.T, cfg jobsvc.Config) (*jobsvc.Service, *jobsvc.Client, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	svc := jobsvc.New(cfg)
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	tr := &http.Transport{}
	cli := &jobsvc.Client{
		Base: "http://" + ln.Addr().String(),
		HTTP: &http.Client{Transport: tr},
	}
	return svc, cli, func() {
		srv.Close()
		svc.Close()
		tr.CloseIdleConnections()
	}
}

// loadJob is one synthetic load-test workload: a uniquely-seeded dataset
// whose reference digest is computed up front, so result verification
// catches not just corruption but any cross-job result mixing (every job's
// digest is distinct).
type loadJob struct {
	req    jobsvc.Request
	digest string
}

func makeLoadJob(seed int64, app string, tenant string, pri string) loadJob {
	var cj conformance.Job
	req := jobsvc.Request{Tenant: tenant, App: app, Priority: pri, Workers: 2, Partitions: 3, Chunk: 2 << 10}
	switch app {
	case "wc":
		data, _ := apps.WCData(seed, 4<<10, 120)
		cj = conformance.Job{Name: "WC", New: apps.WordCount, Data: data}
		req.InputB64 = base64.StdEncoding.EncodeToString(data)
	case "ts":
		data := apps.TSData(seed, 200)
		cj = conformance.Job{Name: "TS", New: apps.TeraSort, Data: data, RecordSize: workload.TeraRecordSize}
		req.InputB64 = base64.StdEncoding.EncodeToString(data)
		req.RecordSize = workload.TeraRecordSize
		req.ParamsB64 = base64.StdEncoding.EncodeToString(dist.EncodeTSParams(apps.TeraSample(data, 16)))
		req.Collector = "pool"
	default:
		panic("unknown load app " + app)
	}
	return loadJob{req: req, digest: conformance.Reference(cj).Digest}
}

// TestServiceLoad is the service-level harness the tentpole is locked in
// by: several hundred concurrent small jobs from multiple tenants pushed
// through the HTTP API against a deliberately tight queue, so admission
// backpressure (429 + retry) engages while every accepted job must still
// byte-match its conformance reference digest. Runs under -race in CI.
func TestServiceLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short")
	}
	const (
		tenantCount  = 6
		jobsPerT     = 40 // 240 total, > the 200-job acceptance floor
		totalJobs    = tenantCount * jobsPerT
		submitBudget = 2 * time.Minute
	)

	before := runtime.NumGoroutine()

	// Tight bounds so the burst genuinely saturates: 6 tenants x 12 queued
	// max, 48 service-wide.
	svc, cli, stop := startTestService(t, jobsvc.WithCaps(jobsvc.Config{FleetWorkers: 8},
		48, 12, 3, 20*time.Millisecond))

	var (
		mu        sync.Mutex
		rejected  int
		badReject []string
	)
	// Phase 1: every tenant fires its submissions back-to-back (no waiting
	// on completions), so the burst outruns the drain rate and the
	// admission gate genuinely pushes back; 429s are retried after the
	// server's hint. Phase 2 then verifies every accepted job's output
	// against its precomputed reference digest.
	type accepted struct {
		id     string
		digest string
		app    string
		label  string
		req    jobsvc.Request
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*totalJobs)
	acceptedCh := make(chan accepted, totalJobs)
	for ti := 0; ti < tenantCount; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			for k := 0; k < jobsPerT; k++ {
				seed := int64(1000 + ti*jobsPerT + k)
				app := "wc"
				if (ti+k)%3 == 0 {
					app = "ts"
				}
				pri := [...]string{"low", "normal", "high"}[k%3]
				lj := makeLoadJob(seed, app, tenant, pri)

				// Submit with retry: a 429 is expected under this queue
				// pressure and must be well-formed (status, reason,
				// retry-after hint); anything else is a failure.
				var st jobsvc.Status
				deadline := time.Now().Add(submitBudget)
				for {
					var err error
					st, err = cli.Submit(lj.req)
					if err == nil {
						break
					}
					var apiErr *jobsvc.APIError
					if !errors.As(err, &apiErr) {
						errs <- fmt.Errorf("%s job %d: submit transport error: %v", tenant, k, err)
						return
					}
					mu.Lock()
					rejected++
					if apiErr.Status != http.StatusTooManyRequests || apiErr.Reason == "" || apiErr.RetryAfterMS <= 0 {
						badReject = append(badReject, apiErr.Error())
					}
					mu.Unlock()
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("%s job %d: still rejected at deadline: %v", tenant, k, apiErr)
						return
					}
					time.Sleep(time.Duration(apiErr.RetryAfterMS) * time.Millisecond)
				}
				acceptedCh <- accepted{id: st.ID, digest: lj.digest, app: app,
					label: fmt.Sprintf("%s job %d", tenant, k), req: lj.req}
			}
		}(ti)
	}
	wg.Wait()
	close(acceptedCh)

	var (
		verifyWG  sync.WaitGroup
		evictedMu sync.Mutex
		evicted   int
	)
	for a := range acceptedCh {
		verifyWG.Add(1)
		go func(a accepted) {
			defer verifyWG.Done()
			id := a.id
			// Priced admission may evict a queued low-priority job to make
			// room for a high-priority one — the txpool contract. The
			// client-side answer is to resubmit, which must eventually
			// succeed once the burst drains.
			for attempt := 0; ; attempt++ {
				fin, err := cli.WaitDone(id, 2*time.Minute)
				if err != nil {
					errs <- fmt.Errorf("%s (%s): %v", a.label, id, err)
					return
				}
				if fin.State == jobsvc.StateEvicted {
					if attempt >= 50 {
						errs <- fmt.Errorf("%s: evicted %d times, giving up", a.label, attempt)
						return
					}
					evictedMu.Lock()
					evicted++
					evictedMu.Unlock()
					// Escalate priority after repeated displacement — the
					// txpool client move (bump the price after a drop). A
					// high-priority queued job is never an eviction victim,
					// so this bounds the number of true evictions; 429s
					// during resubmission are retried on their own deadline
					// and do not count as eviction attempts.
					if attempt >= 2 {
						a.req.Priority = "high"
					}
					deadline := time.Now().Add(time.Minute)
					for {
						st, err := cli.Submit(a.req)
						if err == nil {
							id = st.ID
							break
						}
						var apiErr *jobsvc.APIError
						if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests && time.Now().Before(deadline) {
							time.Sleep(time.Duration(apiErr.RetryAfterMS) * time.Millisecond)
							continue
						}
						errs <- fmt.Errorf("%s: resubmit after eviction: %v", a.label, err)
						return
					}
					continue
				}
				if fin.State != jobsvc.StateDone {
					errs <- fmt.Errorf("%s (%s): finished %s: %s", a.label, id, fin.State, fin.Error)
					return
				}
				break
			}
			out, err := cli.ResultPairs(id)
			if err != nil {
				errs <- fmt.Errorf("%s (%s): result: %v", a.label, id, err)
				return
			}
			if got := conformance.Digest(out); got != a.digest {
				errs <- fmt.Errorf("%s (%s, %s): digest %.12s != reference %.12s",
					a.label, id, a.app, got, a.digest)
			}
		}(a)
	}
	verifyWG.Wait()
	close(errs)
	failures := 0
	for err := range errs {
		failures++
		if failures <= 20 {
			t.Error(err)
		}
	}
	if failures > 20 {
		t.Errorf("... and %d more failures", failures-20)
	}
	for _, br := range badReject {
		t.Errorf("malformed 429: %s", br)
	}
	t.Logf("load: %d jobs accepted+verified, %d transient 429 rejections, %d evictions resubmitted",
		totalJobs, rejected, evicted)

	// Per-tenant admission and queue-latency metrics must be visible over
	// the API (not just in-process).
	resp, err := cli.HTTP.Get(cli.Base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var doc struct {
		Metrics []obs.Metric `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	resp.Body.Close()
	admitted := map[string]float64{}
	waitSeen := map[string]bool{}
	var rejectedCtr float64
	for _, m := range doc.Metrics {
		switch m.Name {
		case "jobsvc_admitted_total":
			admitted[m.Labels["tenant"]] = m.Value
		case "jobsvc_queue_wait_seconds":
			if m.Count > 0 {
				waitSeen[m.Labels["tenant"]] = true
			}
		case "jobsvc_rejected_total":
			rejectedCtr += m.Value
		}
	}
	for ti := 0; ti < tenantCount; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		// Eviction resubmissions re-admit, so admitted is a floor not an
		// exact count.
		if got := admitted[tenant]; got < jobsPerT {
			t.Errorf("/metrics: admitted[%s] = %v, want >= %d", tenant, got, jobsPerT)
		}
		if !waitSeen[tenant] {
			t.Errorf("/metrics: no queue-wait histogram samples for %s", tenant)
		}
	}
	if int(rejectedCtr) < rejected {
		t.Errorf("/metrics: rejected_total %v < client-observed %d", rejectedCtr, rejected)
	}

	// Drain and verify the service leaks no goroutines: scheduler, runner
	// goroutines and HTTP machinery must all exit.
	stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+4 || time.Now().After(deadline) {
			if n > before+4 {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutine leak: %d before, %d after drain\n%s", before, n, buf[:runtime.Stack(buf, true)])
			}
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	_ = svc
}

// TestServiceSaturation429 pins the rejection contract on a service too
// small to absorb a burst: beyond the queue bound every low-priority
// submission must fail with a structured 429 (stable reason slug,
// retry-after hint, Retry-After header) — never a hang, never a panic.
// The hint is load-derived (tenant service-time p50 scaled by queue
// depth) so the burst asserts its bounds — at least the configured
// floor, at most the 30s cap — and that the header is the hint rounded
// up to whole seconds; the exact cold-path pin lives in
// TestRetryAfterDerived where the runner is stubbed.
func TestServiceSaturation429(t *testing.T) {
	svc, cli, stop := startTestService(t, jobsvc.WithCaps(jobsvc.Config{FleetWorkers: 2},
		4, 4, 1, 1500*time.Millisecond))
	defer stop()

	// A moderately sized input keeps each run slow enough (relative to
	// ~1ms HTTP submits) that the burst saturates the 4-deep queue.
	data, _ := apps.WCData(7, 64<<10, 400)
	req := jobsvc.Request{
		Tenant:   "flood",
		App:      "wc",
		Priority: "low",
		Workers:  2,
		InputB64: base64.StdEncoding.EncodeToString(data),
	}
	got429 := 0
	for i := 0; i < 12; i++ {
		_, err := cli.Submit(req)
		if err == nil {
			continue
		}
		var apiErr *jobsvc.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("submit %d: non-API error: %v", i, err)
		}
		got429++
		if apiErr.Status != http.StatusTooManyRequests {
			t.Errorf("submit %d: status %d, want 429", i, apiErr.Status)
		}
		switch apiErr.Reason {
		case "queue-full", "tenant-queue-quota", "tenant-byte-budget":
		default:
			t.Errorf("submit %d: unexpected rejection reason %q", i, apiErr.Reason)
		}
		if apiErr.RetryAfterMS < 1500 || apiErr.RetryAfterMS > 30000 {
			t.Errorf("submit %d: retry_after_ms %d outside [1500, 30000]", i, apiErr.RetryAfterMS)
		}
		if apiErr.Msg == "" {
			t.Errorf("submit %d: empty error message", i)
		}
	}
	if got429 == 0 {
		t.Fatal("no 429s from a 12-job burst into a 4-slot queue")
	}

	// The Retry-After header must be the body's hint rounded up to whole
	// seconds.
	body, _ := json.Marshal(req)
	var hdrChecked bool
	for i := 0; i < 16 && !hdrChecked; i++ {
		resp, err := cli.HTTP.Post(cli.Base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("raw submit: %v", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			var apiErr jobsvc.APIError
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
				t.Fatalf("decoding 429 body: %v", err)
			}
			want := strconv.FormatInt((apiErr.RetryAfterMS+999)/1000, 10)
			if got := resp.Header.Get("Retry-After"); got != want {
				t.Errorf("Retry-After header = %q, want %q (%dms rounded up)", got, want, apiErr.RetryAfterMS)
			}
			hdrChecked = true
		}
		resp.Body.Close()
	}
	if !hdrChecked {
		t.Error("burst never produced a 429 on the raw-header probe")
	}
	_ = svc
}
