package jobsvc

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"glasswing/internal/dist"
	"glasswing/internal/obs"
)

// wcRequest builds a minimal valid submission for tests.
func wcRequest(tenant, pri string, workers int) Request {
	return Request{
		Tenant:   tenant,
		App:      "wc",
		Priority: pri,
		Workers:  workers,
		InputB64: base64.StdEncoding.EncodeToString([]byte("alpha beta\ngamma alpha\n")),
	}
}

// TestSchedulerOrder pins the dispatch order deterministically: a stub
// runner gated on a channel runs one job at a time (2-slot fleet, 2-worker
// jobs), a filler occupies the fleet while nine jobs from three tenants
// queue up, and the drain order must be strict priority with round-robin
// across tenants and FIFO within a tenant's class.
func TestSchedulerOrder(t *testing.T) {
	started := make(chan *job)
	release := make(chan struct{})
	s := New(Config{FleetWorkers: 2})
	defer s.Close()
	s.runFn = func(j *job) (*dist.Result, *obs.Telemetry, error) {
		started <- j
		<-release
		return &dist.Result{}, obs.NewTelemetry(), nil
	}

	submit := func(tenant, pri string) string {
		t.Helper()
		st, apiErr := s.Submit(wcRequest(tenant, pri, 2))
		if apiErr != nil {
			t.Fatalf("submit %s/%s: %v", tenant, pri, apiErr)
		}
		return st.ID
	}

	// The filler grabs both fleet slots, freezing dispatch while the real
	// workload queues behind it.
	submit("filler", "high")
	<-started

	// Submission order is deliberately adversarial: lows first, highs
	// scattered. (Tenant first-sight order: filler, A, B, C.)
	submit("A", "low")
	submit("B", "low")
	submit("A", "high")
	submit("C", "normal")
	submit("B", "high")
	submit("C", "high")
	submit("A", "normal")
	submit("B", "normal")
	submit("C", "low")

	want := []string{
		"A/high", "B/high", "C/high", // strict priority, RR across tenants
		"A/normal", "B/normal", "C/normal",
		"A/low", "B/low", "C/low",
	}
	release <- struct{}{} // let the filler finish
	for i, w := range want {
		var j *job
		select {
		case j = <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("dispatch %d: scheduler stalled waiting for %s", i, w)
		}
		if got := j.tenant + "/" + j.pri.String(); got != w {
			t.Fatalf("dispatch %d: got %s, want %s", i, got, w)
		}
		release <- struct{}{}
	}
}

// TestSchedulerProperties drives a randomized schedule — tenants x
// priorities x worker sizes x cancellations — through a fast stub runner
// and checks the invariants that must hold for every dispatch and after
// the drain:
//
//  1. Within a tenant, a job never dispatches while that tenant has a
//     higher-priority job queued.
//  2. Across tenants, a dispatch at priority p is only legal if every
//     tenant with higher-priority queued work is at its running cap.
//  3. Every admitted job reaches a terminal state (no starvation).
//  4. After the drain, all quota accounting returns exactly to zero and
//     every fleet slot is free.
func TestSchedulerProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		tenants = 4
		jobs    = 150
	)
	s := New(Config{
		FleetWorkers: 3,
		maxQueue:     jobs + 1, // no saturation evictions; admission is not under test
		quota:        quota{maxQueued: jobs + 1, maxRunning: 2},
	})
	defer s.Close()
	s.runFn = func(j *job) (*dist.Result, *obs.Telemetry, error) {
		// Varied but deterministic run times; rng itself is not
		// goroutine-safe so derive from the job's sequence number.
		time.Sleep(time.Duration(j.seq*37%200) * time.Microsecond)
		return &dist.Result{}, obs.NewTelemetry(), nil
	}

	var violations []string
	s.dispatchHook = func(ev DispatchEvent) {
		q := ev.QueuedAt[ev.Tenant]
		for p := int(ev.Priority) + 1; p < int(numPriorities); p++ {
			if q[p] > 0 {
				violations = append(violations, fmt.Sprintf(
					"%s dispatched %s for %s while it had %d queued at %s",
					ev.JobID, ev.Priority, ev.Tenant, q[p], Priority(p)))
			}
		}
		for tenant, tq := range ev.QueuedAt {
			if tenant == ev.Tenant {
				continue
			}
			for p := int(ev.Priority) + 1; p < int(numPriorities); p++ {
				if tq[p] > 0 && ev.RunningAt[tenant] < s.cfg.quota.maxRunning {
					violations = append(violations, fmt.Sprintf(
						"%s dispatched at %s while %s had %d runnable jobs queued at %s",
						ev.JobID, ev.Priority, tenant, tq[p], Priority(p)))
				}
			}
		}
	}

	pris := []string{"low", "normal", "high"}
	var ids []string
	for i := 0; i < jobs; i++ {
		tenant := fmt.Sprintf("t%d", rng.Intn(tenants))
		st, apiErr := s.Submit(wcRequest(tenant, pris[rng.Intn(3)], 1+rng.Intn(3)))
		if apiErr != nil {
			t.Fatalf("submit %d: %v", i, apiErr)
		}
		ids = append(ids, st.ID)
		// Randomly cancel a recent submission: racing the scheduler is the
		// point, so "already running" (409) is an acceptable outcome.
		if rng.Intn(10) == 0 {
			victim := ids[rng.Intn(len(ids))]
			if _, apiErr := s.Cancel(victim); apiErr != nil && apiErr.Status != 409 && apiErr.Status != 404 {
				t.Fatalf("cancel %s: %v", victim, apiErr)
			}
		}
	}

	// Drain: every admitted job must reach a terminal state.
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.mu.Lock()
		pending := s.queuedTotal + s.runningJobs
		s.mu.Unlock()
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled with %d jobs pending", pending)
		}
		time.Sleep(time.Millisecond)
	}

	for _, v := range violations {
		t.Errorf("fairness violation: %s", v)
	}
	for _, id := range ids {
		st, apiErr := s.JobStatus(id)
		if apiErr != nil {
			t.Fatalf("status %s: %v", id, apiErr)
		}
		switch st.State {
		case StateDone, StateCanceled:
		default:
			t.Errorf("job %s stranded in state %s", id, st.State)
		}
	}

	// Quota accounting must return exactly to zero.
	s.mu.Lock()
	if s.queuedTotal != 0 || s.runningJobs != 0 {
		t.Errorf("after drain: queuedTotal=%d runningJobs=%d, want 0/0", s.queuedTotal, s.runningJobs)
	}
	for name, ts := range s.tenants {
		if ts.queuedCount != 0 || ts.queuedBytes != 0 || ts.running != 0 {
			t.Errorf("tenant %s accounting not zero after drain: queued=%d bytes=%d running=%d",
				name, ts.queuedCount, ts.queuedBytes, ts.running)
		}
		for p := range ts.queued {
			if len(ts.queued[p]) != 0 {
				t.Errorf("tenant %s: %d jobs left in class %s", name, len(ts.queued[p]), Priority(p))
			}
		}
	}
	s.mu.Unlock()
	if fl := s.fleetStatus(); fl.Free != fl.Total {
		t.Errorf("fleet slots leaked: %d/%d free after drain", fl.Free, fl.Total)
	}
}

// TestEvictionIsPriced pins the admission-under-saturation contract: with
// the queue full, a submission may only displace a strictly lower-priority
// job, and the victim is marked evicted.
func TestEvictionIsPriced(t *testing.T) {
	started := make(chan *job)
	release := make(chan struct{})
	s := New(Config{FleetWorkers: 2, maxQueue: 2})
	s.runFn = func(j *job) (*dist.Result, *obs.Telemetry, error) {
		started <- j
		<-release
		return &dist.Result{}, obs.NewTelemetry(), nil
	}

	// Fill the fleet, then the queue: [low, normal] queued.
	if _, apiErr := s.Submit(wcRequest("hold", "high", 2)); apiErr != nil {
		t.Fatalf("filler: %v", apiErr)
	}
	<-started
	lowSt, apiErr := s.Submit(wcRequest("A", "low", 2))
	if apiErr != nil {
		t.Fatalf("low: %v", apiErr)
	}
	if _, apiErr = s.Submit(wcRequest("B", "normal", 2)); apiErr != nil {
		t.Fatalf("normal: %v", apiErr)
	}

	// Equal priority must NOT displace: normal vs queued [low, normal] —
	// the victim search finds the low job, but a same-class newcomer is
	// rejected when only the low is below it... normal > low, so this IS
	// admitted and evicts the low. A low newcomer, with no class below it,
	// must bounce.
	if _, apiErr = s.Submit(wcRequest("C", "low", 2)); apiErr == nil {
		t.Fatal("low submission admitted into a full queue with no lower class to displace")
	} else if apiErr.Status != 429 || apiErr.Reason != "queue-full" {
		t.Fatalf("low rejection: got %v, want 429 queue-full", apiErr)
	}

	// A high newcomer displaces the lowest-class victim: the low job.
	if _, apiErr = s.Submit(wcRequest("C", "high", 2)); apiErr != nil {
		t.Fatalf("high submission not admitted into full queue over a low job: %v", apiErr)
	}
	vic, apiErr := s.JobStatus(lowSt.ID)
	if apiErr != nil {
		t.Fatalf("victim status: %v", apiErr)
	}
	if vic.State != StateEvicted {
		t.Fatalf("victim state %s, want %s", vic.State, StateEvicted)
	}
	if s.reg.Counter("jobsvc_evicted_total", obs.L("tenant", "A")).Value() != 1 {
		t.Error("jobsvc_evicted_total{tenant=A} != 1")
	}

	// Drain: auto-release every remaining dispatch, let the filler finish,
	// then shut down (Close cancels whatever is still queued).
	go func() {
		for range started {
			release <- struct{}{}
		}
	}()
	release <- struct{}{}
	s.Close()
	close(started)
}

// TestFleetResize pins the slot budget's accounting: a dispatch acquires a
// job's workers and completion releases them; growth dispatches a blocked
// job with no other event; a shrink below the slots in use preempts
// nothing, reads as negative free slots on GET /fleet, and holds dispatch
// until releases repay the deficit; releasing slots never acquired panics.
func TestFleetResize(t *testing.T) {
	started := make(chan *job)
	release := make(chan struct{})
	s := New(Config{FleetWorkers: 2})
	defer s.Close()
	s.runFn = func(j *job) (*dist.Result, *obs.Telemetry, error) {
		started <- j
		<-release
		return &dist.Result{}, obs.NewTelemetry(), nil
	}
	submit := func(tenant string) {
		t.Helper()
		if _, apiErr := s.Submit(wcRequest(tenant, "normal", 2)); apiErr != nil {
			t.Fatalf("submit %s: %v", tenant, apiErr)
		}
	}
	dispatched := func() {
		t.Helper()
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("blocked job never dispatched")
		}
	}
	blocked := func() {
		t.Helper()
		select {
		case j := <-started:
			t.Fatalf("job %s dispatched with %+v", j.id, s.fleetStatus())
		case <-time.After(50 * time.Millisecond):
		}
	}
	waitFleet := func(want FleetStatus) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); s.fleetStatus() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("fleet %+v, want %+v", s.fleetStatus(), want)
			}
		}
	}

	submit("A")
	dispatched()
	waitFleet(FleetStatus{Total: 2, Free: 0})
	submit("B")
	blocked()

	if got := s.ResizeFleet(4); got != (FleetStatus{Total: 4, Free: 2}) {
		t.Fatalf("grow: %+v, want 4 total, 2 free", got)
	}
	dispatched()
	waitFleet(FleetStatus{Total: 4, Free: 0})

	if got := s.ResizeFleet(1); got != (FleetStatus{Total: 1, Free: -3}) {
		t.Fatalf("shrink: %+v, want 1 total, -3 free", got)
	}
	s.mu.Lock()
	running := s.runningJobs
	s.mu.Unlock()
	if running != 2 {
		t.Fatalf("%d jobs running after the shrink, want both", running)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/fleet", nil))
	var fl FleetStatus
	if err := json.NewDecoder(rec.Body).Decode(&fl); err != nil || fl != (FleetStatus{Total: 1, Free: -3}) {
		t.Fatalf("GET /fleet: %+v (%v), want 1 total, -3 free", fl, err)
	}

	submit("C") // clamped to the one-slot fleet
	blocked()
	release <- struct{}{}
	waitFleet(FleetStatus{Total: 1, Free: -1})
	blocked()
	release <- struct{}{}
	dispatched()
	waitFleet(FleetStatus{Total: 1, Free: 0})
	release <- struct{}{}
	waitFleet(FleetStatus{Total: 1, Free: 1})

	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		defer func() {
			if recover() == nil {
				t.Error("over-release did not panic")
			}
		}()
		s.releaseLocked(1)
	}()
}
