package jobsvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"

	"glasswing/internal/dist"
	"glasswing/internal/obs"
)

// TestRetryAfterDerived pins the saturation backoff hint in all three
// regimes with a gated stub runner (so nothing real races the clock):
//
//   - cold: a service that has finished no jobs gives Config.retryAfter
//     verbatim, and the Retry-After header is that floor rounded up;
//   - warm: with completions recorded the hint is the queue ahead at the
//     measured drain rate — strictly above the floor, within the 30s cap;
//   - capped: an absurdly slow drain clamps to exactly 30s.
func TestRetryAfterDerived(t *testing.T) {
	s := New(Config{
		FleetWorkers: 2,
		maxQueue:     8,
		quota:        quota{maxQueued: 2, maxRunning: 1},
		retryAfter:   1500 * time.Millisecond,
	})
	release := make(chan struct{})
	s.runFn = func(j *job) (*dist.Result, *obs.Telemetry, error) {
		<-release
		return &dist.Result{}, obs.NewTelemetry(), nil
	}
	srv := httptest.NewServer(s.Handler())
	defer func() {
		srv.Close()
		close(release)
		s.Close()
	}()

	// Fill tenant "cold": one dispatched (gated) — wait for the scheduler
	// to actually move it to running so it stops counting against the
	// queued cap — then two queued, then reject.
	first, apiErr := s.Submit(wcRequest("cold", "low", 2))
	if apiErr != nil {
		t.Fatalf("submit 0: %v", apiErr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := s.JobStatus(first.ID)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never dispatched (state %s)", first.ID, cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < 3; i++ {
		if _, apiErr := s.Submit(wcRequest("cold", "low", 2)); apiErr != nil {
			t.Fatalf("submit %d: %v", i, apiErr)
		}
	}
	_, apiErr = s.Submit(wcRequest("cold", "low", 2))
	if apiErr == nil {
		t.Fatal("4th submit admitted; want tenant-queue-quota rejection")
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Reason != "tenant-queue-quota" {
		t.Fatalf("rejection: %v", apiErr)
	}
	if apiErr.RetryAfterMS != 1500 {
		t.Errorf("cold retry_after_ms = %d, want exactly 1500 (no samples -> configured floor)", apiErr.RetryAfterMS)
	}

	// Same rejection over HTTP: the header is the floor rounded up.
	body, _ := json.Marshal(Request{Tenant: "cold", App: "wc", Priority: "low", Workers: 2,
		InputB64: wcRequest("cold", "low", 2).InputB64})
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("raw submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("raw submit status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After header = %q, want %q (1500ms rounded up)", got, "2")
	}

	// Warm: record three completions 2s apart, the last just now: a job
	// every 2s, so the hint is the queue ahead at 2s a job — above the
	// floor, under the cap. (Recording directly keeps the test clock-free;
	// runJob records into this same log.)
	s.mu.Lock()
	now := time.Now()
	for i := 2; i >= 0; i-- {
		s.drain.done(now.Add(-time.Duration(i) * 2 * time.Second))
	}
	warm := s.retryAfterLocked()
	queued := s.queuedTotal
	s.mu.Unlock()
	if warm <= 1500*time.Millisecond || warm > 30*time.Second {
		t.Errorf("warm hint %v outside (1.5s, 30s] at 2s a job and %d queued", warm, queued)
	}

	// Capped: a job every 500s clamps to exactly 30s.
	s.mu.Lock()
	s.drain = drainLog{}
	s.drain.done(time.Now().Add(-500 * time.Second))
	s.drain.done(time.Now())
	capped := s.retryAfterLocked()
	s.mu.Unlock()
	if capped != 30*time.Second {
		t.Errorf("capped hint = %v, want exactly 30s", capped)
	}
}

// TestRetryAfterDrainRate feeds the drain log the history of 240 jobs of
// 0.1s run 8 at a time — TestServiceLoad's shape — and wants the hint for
// its full 48-job queue under 2s: the queue drains at about 80 jobs a
// second, where a hint of the tenant's median run time times the queue
// depth read about 27s. A service that then stops finishing jobs reads
// slower the longer it stalls.
func TestRetryAfterDrainRate(t *testing.T) {
	s := New(WithCaps(Config{FleetWorkers: 8}, 48, 12, 3, 20*time.Millisecond))
	defer s.Close()
	start := time.Now().Add(-3 * time.Second)
	for i := 0; i < 240; i++ {
		s.drain.done(start.Add(time.Duration(i/8+1) * 100 * time.Millisecond))
	}
	s.mu.Lock()
	s.queuedTotal = 48
	hint := s.retryAfterLocked()
	s.queuedTotal = 0
	s.mu.Unlock()
	if hint >= 2*time.Second {
		t.Errorf("hint %v for 48 queued 0.1s jobs on 8 slots, want under 2s", hint)
	}
	last := start.Add(3 * time.Second)
	now, stalled := s.drain.wait(49, last), s.drain.wait(49, last.Add(3*time.Second))
	if stalled <= now {
		t.Errorf("a drain stalled for 3s reads %v, no slower than the %v it read when it stalled", stalled, now)
	}
}

// TestRuntimeGauges proves the runtime sampler publishes the process
// gauges and stops cleanly on Close (the goroutine-leak check in the load
// tests would catch a sampler that outlives its service).
func TestRuntimeGauges(t *testing.T) {
	s := New(Config{RuntimeSampleEvery: 5 * time.Millisecond})
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s.reg.Gauge("process_goroutines").Value() > 0 &&
			s.reg.Gauge("process_heap_inuse_bytes").Value() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("runtime gauges never sampled")
		}
		time.Sleep(time.Millisecond)
	}
	// GC pause total is cumulative and may legitimately be zero early; it
	// must at least be registered and non-negative.
	if v := s.reg.Gauge("process_gc_pause_ns").Value(); v < 0 {
		t.Errorf("process_gc_pause_ns = %v, want >= 0", v)
	}
	s.Close()

	// A negative interval disables the sampler entirely.
	s2 := New(Config{RuntimeSampleEvery: -1})
	time.Sleep(10 * time.Millisecond)
	found := false
	for _, m := range s2.reg.Snapshot() {
		if m.Name == "process_goroutines" {
			found = true
		}
	}
	if found {
		t.Error("sampler ran despite RuntimeSampleEvery < 0")
	}
	s2.Close()
}

// TestMetricsPromEndpoint checks GET /metrics?format=prom serves the
// Prometheus text exposition: the version content type, # TYPE comments,
// cumulative histogram buckets ending at +Inf, and labeled counters.
func TestMetricsPromEndpoint(t *testing.T) {
	_, srv := apiFixture(t, Config{})
	status, m := postJSON(t, srv.URL, goodBody())
	if status != 202 {
		t.Fatalf("submit: %d %v", status, m)
	}
	cli := Client{Base: srv.URL}
	if _, err := cli.WaitDone(m["id"].(string), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatalf("GET prom: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want text exposition 0.0.4", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE jobsvc_queue_depth gauge",
		"# TYPE jobsvc_admitted_total counter",
		`jobsvc_admitted_total{tenant="t1"} 1`,
		"# TYPE jobsvc_service_seconds histogram",
		`jobsvc_service_seconds_bucket{tenant="t1",le="+Inf"} 1`,
		`jobsvc_service_seconds_count{tenant="t1"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	// JSON stays the default rendering.
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET json: %v", err)
	}
	defer resp2.Body.Close()
	var doc struct {
		Metrics []obs.Metric `json:"metrics"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&doc); err != nil || len(doc.Metrics) == 0 {
		t.Errorf("default /metrics not a JSON snapshot: %v (%d metrics)", err, len(doc.Metrics))
	}
}

// TestMetricsStream reads two SSE frames off GET /metrics/stream and
// checks each is a complete metrics snapshot; disconnecting the client
// must end the handler (covered by the server's own shutdown in Cleanup).
func TestMetricsStream(t *testing.T) {
	_, srv := apiFixture(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/metrics/stream?interval_ms=100", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	frames := 0
	for sc.Scan() && frames < 2 {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("SSE line %q lacks data: prefix", line)
		}
		var doc struct {
			Metrics []obs.Metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &doc); err != nil {
			t.Fatalf("SSE frame not a metrics snapshot: %v", err)
		}
		if len(doc.Metrics) == 0 {
			t.Fatal("SSE frame carries no metrics")
		}
		frames++
	}
	if frames < 2 {
		t.Fatalf("stream ended after %d frames: %v", frames, sc.Err())
	}

	// A bad interval is a structured 400.
	resp2, err := http.Get(srv.URL + "/metrics/stream?interval_ms=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad interval: status %d, want 400", resp2.StatusCode)
	}
}

// syncBuffer is a locked bytes.Buffer for the journal: slog records
// arrive from the scheduler and runner goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestEventJournal runs one job through a journaling service and checks
// the structured lifecycle records exist, parse as JSON, and agree on
// tenant, job id and trace id — the correlation key the trace endpoint
// serves under.
func TestEventJournal(t *testing.T) {
	var buf syncBuffer
	s := New(Config{Events: slog.New(slog.NewJSONHandler(&buf, nil))})
	s.runFn = func(j *job) (*dist.Result, *obs.Telemetry, error) {
		return &dist.Result{}, obs.NewTelemetry(), nil
	}
	defer s.Close()

	st, apiErr := s.Submit(wcRequest("acme", "high", 2))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if len(st.TraceID) != 16 {
		t.Fatalf("status trace_id %q, want 16 hex digits", st.TraceID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := s.JobStatus(st.ID)
		if cur.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
	}

	want := map[string]bool{"job-admitted": false, "job-dispatched": false, "job-completed": false}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line not JSON: %q", line)
		}
		msg, _ := rec["msg"].(string)
		if _, ok := want[msg]; !ok {
			continue
		}
		if rec["tenant"] != "acme" || rec["job"] != st.ID || rec["trace"] != st.TraceID {
			t.Errorf("%s keyed %v/%v/%v, want acme/%s/%s", msg, rec["tenant"], rec["job"], rec["trace"], st.ID, st.TraceID)
		}
		want[msg] = true
	}
	for msg, seen := range want {
		if !seen {
			t.Errorf("journal missing %s record", msg)
		}
	}
}
