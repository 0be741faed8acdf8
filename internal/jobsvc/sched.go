package jobsvc

import (
	"time"

	"glasswing/internal/dist"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// scheduler is the dispatch loop: on every wakeup (submission, cancel,
// completion, shutdown) it re-picks the best queued job under the current
// queue state and starts it if the fleet has slots. Re-picking from
// scratch — rather than blocking on one chosen candidate — is what lets a
// high-priority submission overtake a lower one that arrived while the
// fleet was full.
func (s *Service) scheduler() {
	defer s.schedWG.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return
		}
		j, rrIdx := s.pickLocked()
		if j == nil {
			// Nothing runnable: queue empty, or every queued tenant is at
			// its running cap.
			s.cond.Wait()
			continue
		}
		// A fleet shrink after admission can leave a queued job wanting more
		// workers than the pool will ever hold again; clamp at dispatch so
		// it runs smaller instead of blocking its class forever.
		if t := s.fleet.Total; j.opts.Workers > t {
			j.opts.Workers = t
		}
		if j.opts.Workers > s.fleet.Free {
			// The class leader does not fit the free slot budget. Wait for
			// a release rather than dispatching around it: bypassing would
			// let a stream of small jobs starve a big one and would break
			// strict priority order.
			s.cond.Wait()
			continue
		}
		s.fleet.Free -= j.opts.Workers
		s.dispatchLocked(j, rrIdx)
	}
}

// pickLocked chooses the next job under strict priority with round-robin
// across tenants and FIFO within a tenant's class, skipping tenants at
// their running-set quota. Returns the job plus the tenant's index in
// tenantOrder (to advance the class's RR cursor on dispatch).
func (s *Service) pickLocked() (*job, int) {
	n := len(s.tenantOrder)
	for p := numPriorities - 1; p >= 0; p-- {
		for k := 0; k < n; k++ {
			idx := (s.rr[p] + k) % n
			t := s.tenants[s.tenantOrder[idx]]
			if len(t.queued[p]) == 0 {
				continue
			}
			if t.running >= s.cfg.quota.maxRunning {
				continue
			}
			return t.queued[p][0], idx
		}
	}
	return nil, 0
}

// dispatchLocked moves a picked job (whose slots are already acquired)
// into the running set and launches its cluster goroutine.
func (s *Service) dispatchLocked(j *job, rrIdx int) {
	if s.dispatchHook != nil {
		ev := DispatchEvent{
			JobID: j.id, Tenant: j.tenant, Priority: j.pri, Workers: j.opts.Workers,
			QueuedAt:  make(map[string][numPriorities]int, len(s.tenants)),
			RunningAt: make(map[string]int, len(s.tenants)),
		}
		for name, t := range s.tenants {
			var counts [numPriorities]int
			for p := range t.queued {
				counts[p] = len(t.queued[p])
			}
			ev.QueuedAt[name] = counts
			ev.RunningAt[name] = t.running
		}
		s.dispatchHook(ev)
	}
	s.removeQueuedLocked(j)
	t := s.tenants[j.tenant]
	t.running++
	s.runningJobs++
	s.rr[j.pri] = (rrIdx + 1) % max(len(s.tenantOrder), 1)
	j.state = StateRunning
	j.started = time.Now()
	s.counter("jobsvc_dispatch_total", obs.L("tenant", j.tenant), obs.L("priority", j.pri.String())).Inc()
	s.event("job-dispatched", "tenant", j.tenant, "job", j.id, "trace", traceIDHex(j.traceID),
		"priority", j.pri.String(), "workers", j.opts.Workers, "wait_ms", j.started.Sub(j.submitted).Milliseconds())
	s.reg.Histogram("jobsvc_queue_wait_seconds", obs.DefTimeBuckets, obs.L("tenant", j.tenant)).
		Observe(j.started.Sub(j.submitted).Seconds())
	s.gaugeQueue()
	s.gaugeSlots()
	s.runWG.Add(1)
	go s.runJob(j)
}

// runJob executes one dispatched job to completion and settles it.
func (s *Service) runJob(j *job) {
	defer s.runWG.Done()
	res, tel, err := s.runFn(j)

	s.mu.Lock()
	s.releaseLocked(j.opts.Workers)
	j.finished = time.Now()
	s.drain.done(j.finished)
	j.tel = tel
	j.opts.Blocks = nil // the run consumed them; free queue-sized memory early
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
		j.output = kv.Marshal(res.Output())
		j.stats = &JobStats{
			InputBytes:        res.InputBytes,
			IntermediatePairs: res.IntermediatePairs,
			OutputPairs:       res.OutputPairs,
			MapRetries:        res.MapRetries,
			WorkersLost:       res.WorkersLost,
			MapRecoveries:     res.MapRecoveries,
			WorkersJoined:     res.WorkersJoined,
			WorkersDrained:    res.WorkersDrained,
			Resumed:           res.Resumed,
			ReadLocalBytes:    res.ReadLocalBytes,
			ReadRemoteBytes:   res.ReadRemoteBytes,
			SpillRecords:      res.SpillRecords,
			MapMS:             res.MapElapsed.Milliseconds(),
			ReduceMS:          res.ReduceElapsed.Milliseconds(),
			TotalMS:           res.Total.Milliseconds(),
		}
	}
	t := s.tenants[j.tenant]
	t.running--
	s.runningJobs--
	s.counter("jobsvc_completed_total", obs.L("tenant", j.tenant), obs.L("state", string(j.state))).Inc()
	s.event("job-completed", "tenant", j.tenant, "job", j.id, "trace", traceIDHex(j.traceID),
		"state", string(j.state), "error", j.errMsg, "run_ms", j.finished.Sub(j.started).Milliseconds())
	s.reg.Histogram("jobsvc_service_seconds", obs.DefTimeBuckets, obs.L("tenant", j.tenant)).
		Observe(j.finished.Sub(j.started).Seconds())
	s.gaugeQueue()
	s.gaugeSlots()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// distRun is the real runner: one job-scoped loopback cluster on real
// 127.0.0.1 TCP, with a private Telemetry so this job's conservation
// ledger and spans cannot mix with any concurrent job's.
func (s *Service) distRun(j *job) (*dist.Result, *obs.Telemetry, error) {
	tel := obs.NewTelemetry()
	o := j.opts
	o.Telemetry = tel
	o.TraceID = j.traceID
	o.Journal = s.journalFor(j)
	res, err := dist.RunLoopback(o)
	return res, tel, err
}
