package jobsvc

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	"glasswing/internal/obs"
)

// maxBodyBytes bounds a request body read: the input/params caps are
// enforced post-decode, this is the transport-level backstop (base64
// inflates by 4/3, JSON quoting adds a little more).
func (s *Service) maxBodyBytes() int64 {
	return 2*(s.cfg.maxInputBytes+s.cfg.maxParamsBytes) + 1<<16
}

// Handler returns the service's HTTP API:
//
//	POST   /jobs              submit (202, or 429/4xx structured errors)
//	GET    /jobs              list all jobs
//	GET    /jobs/{id}         status
//	DELETE /jobs/{id}         cancel a queued job
//	GET    /jobs/{id}/result  final pairs (base64 kv wire format)
//	GET    /jobs/{id}/trace   merged cluster Chrome trace (coordinator + workers)
//	GET    /jobs/{id}/metrics the job's private conservation-counter registry
//	GET    /metrics           service-level registry (JSON; ?format=prom for
//	                          Prometheus text exposition)
//	GET    /metrics/stream    live SSE metric snapshots (?interval_ms=...)
//
// Every error is a structured JSON object {"error", "reason", ...}; a
// panic in any handler is recovered into a structured 500, never a torn
// connection.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics/stream", s.handleMetricsStream)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.HandleFunc("POST /fleet", s.handleFleetResize)
	return withRecover(mux)
}

// FleetStatus is the GET/POST /fleet payload: the shared worker-slot
// pool's capacity and free count. Free can read negative right after a
// shrink below current usage — the deficit drains as running jobs finish.
type FleetStatus struct {
	Total int `json:"total"`
	Free  int `json:"free"`
}

func (s *Service) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fleetStatus())
}

// handleFleetResize is the elastic scaling hook: POST /fleet {"workers": n}
// grows or shrinks the shared slot pool in place. Shrinking never preempts
// a running job; it only gates new dispatches until usage fits.
func (s *Service) handleFleetResize(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Workers int `json:"workers"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<12)).Decode(&req); err != nil {
		writeError(w, badRequest("malformed-json", "decoding request: %v", err))
		return
	}
	if req.Workers < 1 {
		writeError(w, badRequest("bad-fleet-size", "workers must be >= 1, got %d", req.Workers))
		return
	}
	writeJSON(w, http.StatusOK, s.ResizeFleet(req.Workers))
}

// withRecover converts handler panics into structured 500s so a malformed
// request can never tear down the resident service or leak a stack trace
// as a broken response.
func withRecover(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				log.Printf("jobsvc: recovered panic serving %s %s: %v", r.Method, r.URL.Path, p)
				writeError(w, &APIError{Status: http.StatusInternalServerError, Reason: "internal-panic",
					Msg: "internal error"})
			}
		}()
		h.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *APIError) {
	if e.RetryAfterMS > 0 {
		secs := (e.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, e.Status, e)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxBodyBytes()+1))
	if err != nil {
		writeError(w, badRequest("bad-body", "reading body: %v", err))
		return
	}
	if int64(len(body)) > s.maxBodyBytes() {
		writeError(w, &APIError{Status: http.StatusRequestEntityTooLarge, Reason: "body-too-large",
			Msg: fmt.Sprintf("request body exceeds %d bytes", s.maxBodyBytes())})
		return
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, badRequest("malformed-json", "decoding request: %v", err))
		return
	}
	st, apiErr := s.Submit(req)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []Status `json:"jobs"`
	}{Jobs: s.List()})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, apiErr := s.JobStatus(r.PathValue("id"))
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, apiErr := s.Cancel(r.PathValue("id"))
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// Result is the GET /jobs/{id}/result payload: the job's final pairs in
// partition order, kv wire format, base64. Fetching is idempotent — the
// result stays addressable until the service exits.
type Result struct {
	ID        string `json:"id"`
	Pairs     int    `json:"pairs"`
	OutputB64 string `json:"output_b64"`
}

// jobForRead fetches a job in a terminal-done state for the result/trace/
// metrics endpoints, mapping absence and non-terminal states to
// structured errors.
func (s *Service) jobForRead(id string) (*job, *APIError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, &APIError{Status: http.StatusNotFound, Reason: "unknown-job", Msg: fmt.Sprintf("no job %q", id)}
	}
	if !j.state.terminal() {
		return nil, &APIError{Status: http.StatusConflict, Reason: "not-finished",
			Msg: fmt.Sprintf("job %s is %s; poll GET /jobs/%s until it finishes", id, j.state, id)}
	}
	if j.state != StateDone {
		return nil, &APIError{Status: http.StatusConflict, Reason: "job-" + string(j.state),
			Msg: fmt.Sprintf("job %s finished %s: %s", id, j.state, j.errMsg)}
	}
	return j, nil
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, apiErr := s.jobForRead(r.PathValue("id"))
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	// j.output and j.stats are immutable once the job is done; no lock
	// needed to serialize them.
	writeJSON(w, http.StatusOK, Result{
		ID:        j.id,
		Pairs:     j.stats.OutputPairs,
		OutputB64: base64.StdEncoding.EncodeToString(j.output),
	})
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, apiErr := s.jobForRead(r.PathValue("id"))
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The span buffer holds the merged cluster trace: the coordinator's
	// scheduling spans and membership instants plus every worker's batch,
	// clock-aligned to the coordinator's epoch by the dist runtime before
	// they landed here.
	meta := map[string]any{"trace_id": traceIDHex(j.traceID), "job": j.id, "tenant": j.tenant}
	obs.WriteChromeTraceWithMeta(w, j.tel.Spans.Spans(), meta, j.tel.Spans.Instants()...)
}

func (s *Service) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j, apiErr := s.jobForRead(r.PathValue("id"))
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	j.tel.Metrics.WriteJSON(w)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WriteProm(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteJSON(w)
}

// handleMetricsStream serves live metric snapshots as server-sent events:
// one `data:` frame per interval, each a complete {"metrics": [...]}
// snapshot. The stream ends when the client disconnects or the service
// closes. interval_ms is clamped to [100, 60000]; default 1000.
func (s *Service) handleMetricsStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &APIError{Status: http.StatusNotImplemented, Reason: "no-streaming",
			Msg: "response writer does not support streaming"})
		return
	}
	interval := time.Second
	if v := r.URL.Query().Get("interval_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, badRequest("bad-interval", "interval_ms: %v", err))
			return
		}
		interval = time.Duration(min(max(ms, 100), 60000)) * time.Millisecond
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func() bool {
		doc, err := json.Marshal(struct {
			Metrics []obs.Metric `json:"metrics"`
		}{Metrics: s.reg.Snapshot()})
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", doc); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !emit() {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.stopCh:
			return
		case <-t.C:
			if !emit() {
				return
			}
		}
	}
}
