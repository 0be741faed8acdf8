package dist

import "fmt"

// dsched is the coordinator's map-task scheduler. It is the event-driven
// mirror of internal/core's generic taskScheduler[T] semantics: per-worker
// queues with affinity, work stealing from the most-loaded queue's tail,
// failed attempts requeued on the same worker up to maxAttempts, and
// worker death triggering redistribution plus re-execution. It is not
// self-locking — only the coordinator's single event loop touches it.
//
// One divergence from the mapper-local story is deliberate: because the
// shuffle pushes every task's output to destination workers as it is
// produced, a death invalidates a slice of *every* attempt that shuffled
// under the old partition-home map. So death re-queues not just the dead
// worker's tasks but every resolved or in-flight task, with a bumped
// attempt number; stale attempts still executing report under their old
// attempt and are ignored, and destination-side per-(task,partition) dedup
// discards whatever re-delivered output survived.
type dsched struct {
	// st holds what the journal records — each task's attempt and whether
	// it resolved; dsched reads it and writes only the retry bump (fail).
	st          *jobState
	queues      [][]int // per-worker pending task ids (FIFO)
	failures    []int   // task → failed-attempt count
	maxAttempts int

	retries    int // failed attempts requeued
	recoveries int // resolved tasks re-executed after a death
}

// newSched queues every task st has not resolved. With prefer, task t goes
// to prefer[t]: the block store passes a replica holder there, so the
// initial deal is a local disk read for every task (Fig 3(d)'s "move
// compute to data"); a stolen task simply becomes a remote read,
// the graceful degradation the locality counters exist to measure. Without
// it the tasks are dealt round-robin over the live workers, which for a
// fresh job is the classic t%n deal.
func newSched(st *jobState, nWorkers, maxAttempts int, prefer []int, alive []bool) *dsched {
	s := &dsched{
		st:          st,
		queues:      make([][]int, nWorkers),
		failures:    make([]int, st.Tasks),
		maxAttempts: maxAttempts,
	}
	var pending []int
	for t, r := range st.resolved {
		switch {
		case r:
		case prefer != nil:
			s.queues[prefer[t]] = append(s.queues[prefer[t]], t)
		default:
			pending = append(pending, t)
		}
	}
	s.deal(pending, alive)
	return s
}

// next pops the next task for wkr: its own queue first, then a steal from
// the tail of the most-loaded live queue.
func (s *dsched) next(wkr int, alive []bool) (int, bool) {
	if q := s.queues[wkr]; len(q) > 0 {
		t := q[0]
		s.queues[wkr] = q[1:]
		return t, true
	}
	victim, best := -1, 0
	for w, q := range s.queues {
		if alive[w] && len(q) > best {
			victim, best = w, len(q)
		}
	}
	if victim < 0 {
		return 0, false
	}
	q := s.queues[victim]
	t := q[len(q)-1]
	s.queues[victim] = q[:len(q)-1]
	return t, true
}

// fail requeues a failed current attempt on the same worker (survivors
// inherit via death redistribution if it later dies); exhausting
// maxAttempts fails the job.
func (s *dsched) fail(task, attempt, wkr int, alive []bool, reason string) error {
	if !s.st.current(task, attempt) {
		return nil // stale attempt; its successor is already queued
	}
	s.failures[task]++
	if s.failures[task] >= s.maxAttempts {
		if reason != "" {
			return fmt.Errorf("dist: task %d failed %d attempts (last: %s)", task, s.failures[task], reason)
		}
		return fmt.Errorf("dist: task %d failed %d attempts", task, s.failures[task])
	}
	// The one journaled field changed outside jobState.apply: a retry is
	// never journaled, and replay recovers its attempt from the map-done
	// (or membership record) that follows it.
	s.st.Attempt[task]++
	s.retries++
	if alive[wkr] {
		s.queues[wkr] = append(s.queues[wkr], task)
	} else {
		s.deal([]int{task}, alive)
	}
	return nil
}

// join grows the scheduler to admit a new worker id. The joiner starts with
// an empty queue and picks up work by stealing; nothing is re-executed —
// committed shuffle data moves to it via partition handoff, not re-delivery.
func (s *dsched) join(wkr int) {
	for len(s.queues) <= wkr {
		s.queues = append(s.queues, nil)
	}
}

// deal appends tasks round-robin across the live workers' queues in
// ascending id order — the one placement rule for a leaving worker's
// orphans, a death's superseded tasks and a resumed job's pending ones.
// With no live worker the tasks stay unqueued.
func (s *dsched) deal(tasks []int, alive []bool) {
	var live []int
	for w, a := range alive {
		if a {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return
	}
	for i, t := range tasks {
		w := live[i%len(live)]
		s.queues[w] = append(s.queues[w], t)
	}
}

// drain moves a gracefully-leaving worker's queued tasks to survivors
// (alive must already exclude it). Unlike death, nothing resolved or
// in-flight is touched: the drain is only initiated once the worker has no
// outstanding attempts, and its committed shuffle data is handed off rather
// than lost, so no attempt supersession is needed.
func (s *dsched) drain(wkr int, alive []bool) {
	orphans := s.queues[wkr]
	s.queues[wkr] = nil
	s.deal(orphans, alive)
}

// death moves a dead worker's queued tasks to the survivors (alive must
// already exclude it) together with every task no queue holds — resolved
// or in flight — and returns the latter. Their shuffle output was
// addressed under the old partition-home map, so the membership record
// announcing the death supersedes each with a bumped attempt. It runs
// before that record is applied, so the resolved ones still read as
// resolved and count as recoveries.
func (s *dsched) death(wkr int, alive []bool) (superseded []int) {
	queued := make(map[int]bool)
	for _, q := range s.queues {
		for _, t := range q {
			queued[t] = true
		}
	}
	for t, r := range s.st.resolved {
		if queued[t] {
			continue // still pending; will execute under the new home map
		}
		if r {
			s.recoveries++
		}
		superseded = append(superseded, t)
	}
	redo := append(s.queues[wkr], superseded...)
	s.queues[wkr] = nil
	s.deal(redo, alive)
	return superseded
}
