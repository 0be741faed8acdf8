package dist

import (
	"math/rand"
	"testing"
)

// testSched is a scheduler over a fresh job of nTasks tasks on nWorkers
// workers, its state formed from the records serve commits at formation.
func testSched(t testing.TB, nTasks, nWorkers, maxAttempts int) *dsched {
	t.Helper()
	st := new(jobState)
	alive := make([]bool, nWorkers)
	for i := range alive {
		alive[i] = true
	}
	for _, r := range []payload{
		&jobRecord{Job: Job{Partitions: 1}, Tasks: nTasks, Digest: make([]byte, 32)},
		&membershipRecord{Homes: []int{0}, Alive: alive, Attempt: make([]int, nTasks)},
	} {
		if err := st.apply(r); err != nil {
			t.Fatal(err)
		}
	}
	return newSched(st, nWorkers, maxAttempts, nil, alive)
}

// schedDone reports (task, attempt) done the way the coordinator does: a
// current attempt's map-done is applied, anything else is ignored.
func schedDone(s *dsched, task, attempt int) bool {
	if !s.st.current(task, attempt) {
		return false
	}
	if err := s.st.apply(&mapDoneMsg{Task: task, Attempt: attempt}); err != nil {
		panic(err)
	}
	return true
}

// schedDeath handles wkr's death the way the coordinator does (alive must
// already exclude it): dsched re-queues, and the membership record
// announcing the death bumps the attempts of the tasks it superseded.
func schedDeath(s *dsched, wkr int, alive []bool) error {
	rec := s.st.membershipRecord
	rec.Epoch++
	rec.Alive = append([]bool(nil), alive...)
	rec.Attempt = append([]int(nil), rec.Attempt...)
	rec.Lost++
	for w, a := range alive {
		if a {
			rec.Homes = []int{w}
			break
		}
	}
	for _, t := range s.death(wkr, alive) {
		rec.Attempt[t]++
	}
	return s.st.apply(&rec)
}

// schedChaos drives one dsched through a random interleaving of assigns,
// completions, failures, ghost (stale) reports, kills, joins and drains,
// checking after every membership change that no task can be lost — every
// unresolved task is queued exactly once or in flight at its current
// attempt — and at the end that every task resolved exactly once at its
// final attempt number.
type schedChaos struct {
	t    *testing.T
	rng  *rand.Rand
	s    *dsched
	seed int64

	alive    []bool // scheduler-visible liveness (drained ⇒ false)
	inflight []chaosAttempt
	ghosts   []chaosAttempt // reports from superseded attempts, delivered late
	// resolutions[t] counts done() acceptances; the final one must stand.
	resolutions []int
	finalAt     []int // attempt number each task last resolved at
}

type chaosAttempt struct {
	task, attempt, wkr int
}

func (c *schedChaos) liveWorkers() []int {
	var ids []int
	for w, a := range c.alive {
		if a {
			ids = append(ids, w)
		}
	}
	return ids
}

// checkConservation asserts the liveness invariant: every unresolved task is
// queued exactly once, or in flight on a live worker at its current attempt.
// A task satisfying neither can never resolve — the scheduler lost it.
func (c *schedChaos) checkConservation() {
	c.t.Helper()
	queued := make(map[int]int)
	for _, q := range c.s.queues {
		for _, t := range q {
			queued[t]++
		}
	}
	current := make(map[int]bool)
	for _, a := range c.inflight {
		if c.alive[a.wkr] && a.attempt == c.s.st.Attempt[a.task] {
			current[a.task] = true
		}
	}
	for t := 0; t < c.s.st.Tasks; t++ {
		if queued[t] > 1 {
			c.t.Fatalf("seed %d: task %d queued %d times", c.seed, t, queued[t])
		}
		if c.s.st.resolved[t] {
			if queued[t] > 0 {
				c.t.Fatalf("seed %d: resolved task %d still queued", c.seed, t)
			}
			continue
		}
		if queued[t] == 0 && !current[t] {
			c.t.Fatalf("seed %d: unresolved task %d neither queued nor live in flight — lost", c.seed, t)
		}
	}
}

func (c *schedChaos) step() {
	switch op := c.rng.Intn(100); {
	case op < 35: // assign: one task to one random live worker
		live := c.liveWorkers()
		if len(live) == 0 {
			return
		}
		w := live[c.rng.Intn(len(live))]
		if t, ok := c.s.next(w, c.alive); ok {
			c.inflight = append(c.inflight, chaosAttempt{t, c.s.st.Attempt[t], w})
		}
	case op < 70: // complete a random in-flight attempt
		if len(c.inflight) == 0 {
			return
		}
		i := c.rng.Intn(len(c.inflight))
		a := c.inflight[i]
		c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
		if schedDone(c.s, a.task, a.attempt) {
			if a.attempt != c.s.st.Attempt[a.task] {
				c.t.Fatalf("seed %d: task %d accepted at stale attempt %d (current %d)",
					c.seed, a.task, a.attempt, c.s.st.Attempt[a.task])
			}
			c.resolutions[a.task]++
			c.finalAt[a.task] = a.attempt
		}
	case op < 78: // fail a random in-flight attempt
		if len(c.inflight) == 0 {
			return
		}
		i := c.rng.Intn(len(c.inflight))
		a := c.inflight[i]
		c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
		if err := c.s.fail(a.task, a.attempt, a.wkr, c.alive, ""); err != nil {
			c.t.Fatalf("seed %d: %v", c.seed, err)
		}
	case op < 84: // deliver a ghost report: done or fail from a dead attempt
		if len(c.ghosts) == 0 {
			return
		}
		i := c.rng.Intn(len(c.ghosts))
		g := c.ghosts[i]
		c.ghosts = append(c.ghosts[:i], c.ghosts[i+1:]...)
		if g.attempt == c.s.st.Attempt[g.task] && !c.s.st.resolved[g.task] {
			// The attempt was never superseded (kill happened before its
			// worker shipped anything that mattered) — it is a legitimate
			// report, not a ghost after all. Treat as a completion.
			if schedDone(c.s, g.task, g.attempt) {
				c.resolutions[g.task]++
				c.finalAt[g.task] = g.attempt
			}
			return
		}
		if schedDone(c.s, g.task, g.attempt) && c.finalAt[g.task] != g.attempt {
			c.t.Fatalf("seed %d: stale attempt (%d,%d) accepted over current %d",
				c.seed, g.task, g.attempt, c.s.st.Attempt[g.task])
		}
		c.s.fail(g.task, g.attempt, g.wkr, c.alive, "") // stale fail: must be a no-op
	case op < 90: // kill a random live worker (never the last)
		live := c.liveWorkers()
		if len(live) < 2 {
			return
		}
		w := live[c.rng.Intn(len(live))]
		c.alive[w] = false
		// Its in-flight attempts become ghosts that may report later; death
		// supersedes every other in-flight attempt too, but those workers
		// still report normally (and get refused as stale).
		keep := c.inflight[:0]
		for _, a := range c.inflight {
			if a.wkr == w {
				c.ghosts = append(c.ghosts, a)
			} else {
				keep = append(keep, a)
			}
		}
		c.inflight = keep
		// Live in-flight attempts are also superseded by death's re-queue:
		// move them to ghosts half the time to model arbitrary arrival order.
		if c.rng.Intn(2) == 0 {
			c.ghosts = append(c.ghosts, c.inflight...)
			c.inflight = c.inflight[:0]
		}
		if err := schedDeath(c.s, w, c.alive); err != nil {
			c.t.Fatalf("seed %d: %v", c.seed, err)
		}
		c.checkConservation()
	case op < 95: // join a fresh worker
		if len(c.alive) >= 9 {
			return
		}
		id := len(c.alive)
		c.s.join(id)
		c.alive = append(c.alive, true)
		c.checkConservation()
	default: // drain: coordinator quiesces the cluster first, so model that
		if len(c.inflight) > 0 {
			return
		}
		live := c.liveWorkers()
		if len(live) < 2 {
			return
		}
		w := live[c.rng.Intn(len(live))]
		c.alive[w] = false
		c.s.drain(w, c.alive)
		c.checkConservation()
	}
}

// TestSchedChaos is the randomized conformance harness for dsched: 300
// seeded schedules interleaving join, kill, drain, steal, completion,
// failure and stale ghost reports. Every schedule must terminate with every
// task resolved exactly once at its final attempt number, with no task ever
// lost along the way.
func TestSchedChaos(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nTasks := 4 + rng.Intn(37)
		nWorkers := 2 + rng.Intn(4)
		c := &schedChaos{
			t: t, rng: rng, seed: seed,
			s:           testSched(t, nTasks, nWorkers, 1000),
			alive:       make([]bool, nWorkers),
			resolutions: make([]int, nTasks),
			finalAt:     make([]int, nTasks),
		}
		for i := range c.alive {
			c.alive[i] = true
		}
		steps := 0
		for c.s.st.resolvedCount < c.s.st.Tasks {
			c.step()
			if steps++; steps > 200000 {
				t.Fatalf("seed %d: schedule did not terminate (%d/%d resolved)",
					seed, c.s.st.resolvedCount, c.s.st.Tasks)
			}
		}
		for task := 0; task < nTasks; task++ {
			if !c.s.st.resolved[task] {
				t.Fatalf("seed %d: task %d unresolved at end", seed, task)
			}
			if c.resolutions[task] == 0 {
				t.Fatalf("seed %d: task %d resolved with no accepted report", seed, task)
			}
			if c.finalAt[task] != c.s.st.Attempt[task] {
				t.Fatalf("seed %d: task %d final resolution at attempt %d, scheduler expects %d",
					seed, task, c.finalAt[task], c.s.st.Attempt[task])
			}
		}
		// Exactly-once: acceptances beyond one per task must each have been
		// explicitly superseded by a death (recoveries counts those).
		extra := 0
		for _, r := range c.resolutions {
			extra += r - 1
		}
		if extra > c.s.recoveries {
			t.Fatalf("seed %d: %d duplicate acceptances but only %d recoveries", seed, extra, c.s.recoveries)
		}
	}
}
