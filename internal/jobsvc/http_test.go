package jobsvc

import (
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"glasswing/internal/dist"
	"glasswing/internal/obs"
)

// apiFixture is a service with an instant stub runner behind a test server.
func apiFixture(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.runFn = func(j *job) (*dist.Result, *obs.Telemetry, error) {
		return &dist.Result{}, obs.NewTelemetry(), nil
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func goodBody() string {
	in := base64.StdEncoding.EncodeToString([]byte("a b\nc a\n"))
	return `{"tenant":"t1","app":"wc","input_b64":"` + in + `"}`
}

// postJSON posts a raw body and decodes the response JSON into a map.
func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("response %d is not JSON (%v): %q", resp.StatusCode, err, raw)
	}
	return resp.StatusCode, m
}

// TestAPISubmitRejections is the malformed-request table: every bad
// submission must come back as a structured JSON error with the right
// status and a stable reason slug — never a hang, a bare 500, or a panic.
func TestAPISubmitRejections(t *testing.T) {
	bigParams := base64.StdEncoding.EncodeToString(make([]byte, 200))
	bigInput := base64.StdEncoding.EncodeToString(make([]byte, 4096))
	in := base64.StdEncoding.EncodeToString([]byte("a b\n"))
	tsParams := base64.StdEncoding.EncodeToString(dist.EncodeTSParams([][]byte{[]byte("m")}))

	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantReason string
	}{
		{"malformed json", `{"tenant":`, 400, "malformed-json"},
		{"json wrong type", `{"tenant":17}`, 400, "malformed-json"},
		{"missing tenant", `{"app":"wc","input_b64":"` + in + `"}`, 400, "missing-tenant"},
		{"unknown app", `{"tenant":"t","app":"sortzilla","input_b64":"` + in + `"}`, 400, "unknown-app"},
		{"missing app", `{"tenant":"t","input_b64":"` + in + `"}`, 400, "unknown-app"},
		{"bad priority", `{"tenant":"t","app":"wc","priority":"urgent","input_b64":"` + in + `"}`, 400, "bad-priority"},
		{"empty input", `{"tenant":"t","app":"wc"}`, 400, "empty-input"},
		{"input not base64", `{"tenant":"t","app":"wc","input_b64":"!!!"}`, 400, "bad-input-encoding"},
		{"params not base64", `{"tenant":"t","app":"wc","input_b64":"` + in + `","params_b64":"%%%"}`, 400, "bad-params-encoding"},
		{"oversized params", `{"tenant":"t","app":"wc","input_b64":"` + in + `","params_b64":"` + bigParams + `"}`, 413, "params-too-large"},
		{"oversized input", `{"tenant":"t","app":"wc","input_b64":"` + bigInput + `"}`, 413, "input-too-large"},
		{"bad collector", `{"tenant":"t","app":"wc","input_b64":"` + in + `","collector":"heap"}`, 400, "bad-collector"},
		{"negative geometry", `{"tenant":"t","app":"wc","input_b64":"` + in + `","partitions":-3}`, 400, "bad-geometry"},
		{"fault injection disabled", `{"tenant":"t","app":"wc","input_b64":"` + in + `","map_fault_mod":3}`, 400, "fault-injection-disabled"},
		{"ts without params", `{"tenant":"t","app":"ts","input_b64":"` + in + `","record_size":100}`, 400, "unknown-app"},
		// Refused before anything is sized by the count.
		{"partitions over the cap", `{"tenant":"t","app":"wc","input_b64":"` + in + `","partitions":268435456}`, 400, "bad-geometry"},
		// A combiner the job cannot run: TeraSort has no Combine kernel, and
		// the buffer pool has no table for a combiner to fold in.
		{"combiner without Combine", `{"tenant":"t","app":"ts","input_b64":"` + in + `","record_size":100,"use_combiner":true,"params_b64":"` + tsParams + `"}`, 400, "bad-combiner"},
		{"combiner on the pool", `{"tenant":"t","app":"wc","input_b64":"` + in + `","collector":"pool","use_combiner":true}`, 400, "bad-combiner"},
	}

	_, srv := apiFixture(t, Config{MaxInputBytes: 1024, MaxParamsBytes: 100})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, m := postJSON(t, srv.URL, tc.body)
			if status != tc.wantStatus {
				t.Errorf("status %d, want %d (body %v)", status, tc.wantStatus, m)
			}
			if got, _ := m["reason"].(string); got != tc.wantReason {
				t.Errorf("reason %q, want %q", got, tc.wantReason)
			}
			if msg, _ := m["error"].(string); msg == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestAPIJobLifecycle covers the read-side endpoints: unknown IDs 404,
// results before completion 409, double result fetch is idempotent, cancel
// of finished jobs 409, and the trace/metrics endpoints serve valid JSON.
func TestAPIJobLifecycle(t *testing.T) {
	_, srv := apiFixture(t, Config{})
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// Unknown IDs: every read endpoint must 404 with a structured body.
	for _, path := range []string{"/jobs/j-999", "/jobs/j-999/result", "/jobs/j-999/trace", "/jobs/j-999/metrics"} {
		status, body := get(path)
		if status != 404 {
			t.Errorf("GET %s: status %d, want 404", path, status)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil || m["reason"] != "unknown-job" {
			t.Errorf("GET %s: body %q, want unknown-job JSON", path, body)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/j-999", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != 404 {
		t.Errorf("DELETE unknown job: %v status %d, want 404", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Submit and wait for completion (instant stub runner).
	status, m := postJSON(t, srv.URL, goodBody())
	if status != 202 {
		t.Fatalf("submit: status %d body %v", status, m)
	}
	id := m["id"].(string)
	cli := Client{Base: srv.URL}
	fin, err := cli.WaitDone(id, 10*time.Second)
	if err != nil || fin.State != StateDone {
		t.Fatalf("job %s: %v / %+v", id, err, fin)
	}

	// Double fetch: both 200, byte-identical payloads.
	s1, b1 := get("/jobs/" + id + "/result")
	s2, b2 := get("/jobs/" + id + "/result")
	if s1 != 200 || s2 != 200 || string(b1) != string(b2) {
		t.Errorf("double result fetch: %d/%d, identical=%v", s1, s2, string(b1) == string(b2))
	}

	// Trace and per-job metrics are valid JSON documents.
	if st, body := get("/jobs/" + id + "/trace"); st != 200 || !json.Valid(body) {
		t.Errorf("trace: status %d, valid JSON %v", st, json.Valid(body))
	}
	if st, body := get("/jobs/" + id + "/metrics"); st != 200 || !json.Valid(body) {
		t.Errorf("job metrics: status %d, valid JSON %v", st, json.Valid(body))
	}

	// Canceling a finished job is a structured 409.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE finished: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Errorf("DELETE finished job: status %d, want 409", resp.StatusCode)
	}

	// The list endpoint includes the job.
	st, body := get("/jobs")
	if st != 200 {
		t.Fatalf("GET /jobs: %d", st)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list.Jobs) == 0 {
		t.Errorf("GET /jobs: %v, %d jobs", err, len(list.Jobs))
	}
}

// TestAPIResultBeforeDone pins the 409 on reading a job that has not
// finished: a gated runner holds the job in running state.
func TestAPIResultBeforeDone(t *testing.T) {
	s := New(Config{})
	release := make(chan struct{})
	entered := make(chan struct{})
	s.runFn = func(j *job) (*dist.Result, *obs.Telemetry, error) {
		close(entered)
		<-release
		return &dist.Result{}, obs.NewTelemetry(), nil
	}
	srv := httptest.NewServer(s.Handler())
	defer func() {
		srv.Close()
		s.Close()
	}()

	status, m := postJSON(t, srv.URL, goodBody())
	if status != 202 {
		t.Fatalf("submit: %d %v", status, m)
	}
	id := m["id"].(string)
	<-entered

	resp, err := http.Get(srv.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	var e map[string]any
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != 409 || e["reason"] != "not-finished" {
		t.Errorf("result while running: %d %v, want 409 not-finished", resp.StatusCode, e)
	}
	close(release)
}

// TestRecoverMiddleware proves a panicking handler surfaces as a
// structured 500, not a torn connection.
func TestRecoverMiddleware(t *testing.T) {
	h := withRecover(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/anything")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Errorf("status %d, want 500", resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if m["reason"] != "internal-panic" {
		t.Errorf("reason %v, want internal-panic", m["reason"])
	}
}

// TestAPIBodyTooLarge pins the transport-level body cap.
func TestAPIBodyTooLarge(t *testing.T) {
	_, srv := apiFixture(t, Config{MaxInputBytes: 512, MaxParamsBytes: 128})
	big := strings.Repeat("x", 1<<20)
	status, m := postJSON(t, srv.URL, `{"tenant":"t","app":"wc","input_b64":"`+big+`"}`)
	if status != 413 {
		t.Errorf("status %d, want 413 (%v)", status, m["reason"])
	}
}
