package dist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"glasswing/internal/blockstore"
	"glasswing/internal/obs"
)

// coordinator phases.
const (
	phaseForm = iota
	phaseMap
	phaseReduce
	phaseDone
)

// Coordinator-side worker states. A joiner is admitted as wJoining and
// promoted to wActive when its join transition completes; a drain target
// moves wActive → wDraining → wDrained. Only wActive workers are assigned
// map tasks or own partitions.
const (
	wActive = iota
	wJoining
	wDraining
	wDrained
)

// cworker is the coordinator's view of one worker node.
type cworker struct {
	cc          *conn
	addr        string // peer-facing listen address
	alive       bool
	state       int
	outstanding int             // map tasks dispatched, not yet reported
	clock       *clockEstimator // NTP-style offset estimate for this worker
	// left is set once the membership frame naming this worker Left has gone
	// out: from then on it is dead to its peers, though still data-alive
	// until its handoff completes.
	left bool
}

// cevent is one event for the coordinator's step: a frame (or connection
// loss) from worker w, funneled in by per-worker reader goroutines; an
// admission (w == evAdmit: a candidate's first frame, with its connection);
// or the formation deadline passing (w == evTimeout).
type cevent struct {
	w       int
	typ     byte
	payload []byte
	err     error
	cc      *conn
}

// transition is one queued or in-flight membership change. Transitions run
// one at a time: the cluster quiesces (no outstanding map attempts), the
// epoch bumps, partition homes rebalance, the membership frame goes out,
// and the transition completes when every moved partition's new home
// reports its handoff adopted.
type transition struct {
	kind    string // "join" or "drain"
	target  int
	started bool // quiesce passed: epoch bumped, membership frame broadcast
	epoch   int
	pending map[int]bool // partitions whose handoff is still outstanding
}

// loopHooks are the loopback runner's fault and elasticity hooks: kill
// murders a worker in-process, spawn launches one new live-join worker, and
// joiners is how many joiners crashed coordinators of this job spawned —
// a fact the runner keeps across a restart, so a resumed coordinator waits
// for the ones it has not admitted. exited lists the ids spawned joiners
// were welcomed under (-1: never welcomed) once their worker has returned,
// so no coordinator waits for one that died before it was admitted; exits
// wakes the loop after each.
type loopHooks struct {
	kill    func(id int)
	spawn   func()
	joiners int
	exited  func() []int
	exits   <-chan struct{}
}

// restartCrash is the error a scheduled coordinator restart fails with;
// the loopback runner catches it, re-listens, and resumes from the journal.
// fired is how many elastic events (including the restart itself) had been
// consumed, so the resumed coordinator picks up after them.
type restartCrash struct{ fired int }

func (*restartCrash) Error() string { return "dist: coordinator restarted (elastic schedule)" }

// CoordinatorRestarted reports whether a Serve error is a scheduled
// restart crash: the job is not failed, the journal is complete, and a new
// coordinator process can resume it with Options.Resume (cmd/distnode's
// -resume flag) while the workers redial in.
func CoordinatorRestarted(err error) bool {
	var rc *restartCrash
	return errors.As(err, &rc)
}

// acceptTimeout bounds the wait for each candidate during cluster
// formation, so a worker that never dials fails the job instead of hanging
// CI.
const acceptTimeout = 60 * time.Second

// maxWorkers caps the cluster's width: a worker id at or above it, from a
// rejoin frame or a join that would be numbered past it, is turned away.
// Ids index the coordinator's and every worker's per-worker slices, and
// the journal's alive set, so an unchecked id from the network would size
// them.
const maxWorkers = 1 << 12

// Effects are what step asks the event loop to do once it returns, in the
// order step queued them: step itself touches no socket and starts no
// goroutine, so the schedule checker can run it with no cluster behind it.
const (
	fxSend  = iota // send f on cc
	fxClose        // hard-close cc, after sending f if it has a type
	fxProbe        // start worker w's clock probes on cc
	fxRead         // start worker w's reader on cc
	fxKill         // murder worker w (loopback hook)
	fxSpawn        // launch one live-join worker (loopback hook)
)

type effect struct {
	op int
	w  int // worker id; -1 for a candidate not admitted
	cc *conn
	f  frame
}

// Event sources besides a worker id: a candidate's first frame, the
// formation deadline passing, and a spawned joiner's worker returning.
const (
	evAdmit   = -1
	evTimeout = -2
	evExit    = -3
)

// serve runs the coordinator side of one job on an already-open listener:
// it does the I/O a coord may not — reading or creating the journal,
// accepting candidates, reading workers' frames, performing the effects
// step queues — and assembles the result. led receives the
// coordinator-side reduce conservation counters (shared with the workers in
// loopback mode); hooks are the loopback fault/elasticity callbacks.
func serve(ln net.Listener, o Options, led *ledger, hooks loopHooks) (*Result, error) {
	o.Job = o.Job.withDefaults()
	if led == nil {
		led = newLedger(o.Telemetry)
	}
	if o.TraceID == 0 {
		o.TraceID = uint64(time.Now().UnixNano())
	}
	var st *jobState
	if o.Resume {
		if o.JournalPath == "" {
			return nil, fmt.Errorf(resumeRefused + ": no journal path configured")
		}
		data, err := os.ReadFile(o.JournalPath)
		if err != nil {
			return nil, fmt.Errorf(resumeRefused+": %v", err)
		}
		if st, err = replayJournal(data); err != nil {
			return nil, err
		}
		if err := st.validateResume(&o); err != nil {
			return nil, err
		}
	}
	var jn *journal
	if o.JournalPath != "" {
		var err error
		if jn, err = openJournal(o.JournalPath, o.Resume); err != nil {
			return nil, err
		}
	}
	c := newCoord(o, led, hooks, st, jn)
	defer func() {
		jn.close()
		for _, cw := range c.ws {
			if cw != nil && cw.cc != nil {
				cw.cc.close()
			}
		}
		for _, h := range c.held {
			h.cc.close()
		}
	}()

	// The acceptor hands each candidate's first frame to the loop as an
	// admission event. The gate closes when serve returns: a candidate queued
	// to a finished coordinator would keep its connection, and the worker
	// behind it, alive forever.
	events := make(chan cevent, 1024)
	var admitMu sync.Mutex
	admitOpen := true
	defer func() {
		admitMu.Lock()
		admitOpen = false
		admitMu.Unlock()
		// Nothing can enqueue past this point; close whatever made it in.
		for {
			select {
			case ev := <-events:
				if ev.cc != nil {
					ev.cc.close()
				}
			default:
				return
			}
		}
	}()
	tun := c.tun
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				cc := newConn(c, "worker", tun, nil)
				typ, p, err := cc.recv()
				if err != nil {
					cc.close()
					return
				}
				admitMu.Lock()
				if admitOpen {
					events <- cevent{w: evAdmit, typ: typ, payload: p, cc: cc}
					admitMu.Unlock()
					return
				}
				admitMu.Unlock()
				cc.close()
			}(c)
		}
	}()

	readers := 0
	perform := func() {
		for _, e := range c.out {
			switch e.op {
			case fxSend:
				e.cc.send(e.f)
			case fxClose:
				if e.f.buf != nil {
					e.cc.send(e.f)
					e.cc.flush()
				}
				e.cc.close()
			case fxProbe:
				// Only the coordinator probes; the worker side just echoes.
				e.cc.enableClock(c.ws[e.w].clock, tun.heartbeatEvery)
			case fxRead:
				readers++
				go func(w int, cc *conn) {
					for {
						typ, p, err := cc.recv()
						if err != nil {
							events <- cevent{w: w, err: err}
							return
						}
						events <- cevent{w: w, typ: typ, payload: p}
					}
				}(e.w, e.cc)
			case fxKill:
				go hooks.kill(e.w) // the victim's lost link comes back as an event
			case fxSpawn:
				hooks.spawn()
			}
		}
		c.out = c.out[:0]
	}
	// Formation fails once acceptTimeout passes with no candidate arriving.
	formDeadline := time.NewTimer(acceptTimeout)
	defer formDeadline.Stop()
	for c.phase == phaseForm || readers > 0 {
		var ev cevent
		select {
		case ev = <-events:
		case <-formDeadline.C:
			ev = cevent{w: evTimeout}
		case <-hooks.exits:
			ev = cevent{w: evExit}
		}
		if ev.w == evAdmit && c.phase == phaseForm && formDeadline.Stop() {
			formDeadline.Reset(acceptTimeout)
		}
		if ev.w >= 0 && ev.err != nil {
			readers--
		}
		c.step(ev)
		perform()
	}
	if c.err != nil {
		return nil, c.err
	}
	return c.result(), nil
}

// coord is the coordinator of one job. Every decision it makes is a method
// reached from step, one event at a time: a candidate's first frame, a
// worker's frame, a lost link, or the formation deadline. step touches no
// socket, starts no goroutine and reads no clock to decide anything; it
// queues effects in out, which the caller performs in order after step
// returns. Journal appends are the exception, and stay synchronous inside
// commit, so a record is durable before any effect that broadcasts it runs.
type coord struct {
	o     Options
	tun   Tuning
	led   *ledger
	hooks loopHooks
	ctr   *obs.Tracer // the coordinator's own spans, node -1
	start time.Time
	res   *Result

	ws      []*cworker // index by worker id; grows on join
	st      *jobState
	sched   *dsched
	jn      *journal
	holders [][]int // block t's replica set (block-store modes)
	phase   int
	err     error

	// Resume formation: the journaled-live workers yet to rejoin, and the
	// joiners held until it completes. Ids below base are the journal's
	// members; fresh joiners are numbered from idFloor, past every id an
	// earlier coordinator of this job could have given a loopback joiner.
	need    map[int]bool
	held    []cevent
	base    int
	idFloor int
	spawned int // joiners this coordinator's join events launched

	// reduceAttempt[p] is the attempt partition p's next reduce task runs
	// under; a reduce-phase death cancels the wave and bumps it.
	reduceAttempt []int
	mapElapsed    time.Duration
	reduceStart   time.Time
	pendingKills  map[int]bool // kills fired, death not yet observed
	eventIdx      int
	queuedT       []*transition
	activeT       *transition

	// Open scheduling spans: sched/assign keyed by (task, attempt), which
	// is also the set of attempts counted in outstanding, and sched/reduce
	// by partition, which is also the reduce wave's outstanding partitions.
	// Dispatches that die with their worker are never recorded.
	assignSpans map[attemptKey]openSpan
	reduceSpans map[int]openSpan
	batches     []spanBatchMsg

	out []effect
}

// openSpan is a scheduling span dispatched under id at start and recorded
// when its task reports.
type openSpan struct {
	id    uint64
	start time.Time
}

// newCoord builds a coordinator in its formation phase. st is the replayed
// journal of a resumed job, nil for a fresh one; jn, if set, receives every
// record the coordinator commits.
func newCoord(o Options, led *ledger, hooks loopHooks, st *jobState, jn *journal) *coord {
	c := &coord{
		o: o, tun: o.Tuning.withDefaults(), led: led, hooks: hooks,
		ctr: obs.NewTracer(-1, new(obs.SpanBuffer)), start: time.Now(),
		st: st, jn: jn, phase: phaseForm,
		reduceAttempt: make([]int, o.Job.Partitions),
		pendingKills:  make(map[int]bool),
		assignSpans:   make(map[attemptKey]openSpan),
		reduceSpans:   make(map[int]openSpan),
		res:           &Result{App: o.Job.App.Name, Workers: o.Workers, Resumed: st != nil},
	}
	for _, b := range o.Blocks {
		c.res.InputBytes += int64(len(b))
	}
	if st == nil {
		c.st = new(jobState)
		c.base = o.Workers
		return c
	}
	c.need = make(map[int]bool)
	c.ws = make([]*cworker, len(st.Alive))
	for i, a := range st.Alive {
		if a {
			c.need[i] = true
		} else {
			c.ws[i] = &cworker{state: wActive}
		}
	}
	c.base = len(st.Alive)
	c.idFloor = max(c.base, o.Workers+hooks.joiners)
	return c
}

func (c *coord) emit(op, w int, cc *conn, f frame) {
	c.out = append(c.out, effect{op: op, w: w, cc: cc, f: f})
}

func (c *coord) send(w int, f frame) { c.emit(fxSend, w, c.ws[w].cc, f) }

// note logs one scheduling event to Options.Journal, if set.
func (c *coord) note(msg string, args ...any) {
	if c.o.Journal != nil {
		c.o.Journal.Info(msg, args...)
	}
}

func (c *coord) step(ev cevent) {
	switch {
	case ev.w == evTimeout:
		if c.phase == phaseForm {
			c.fail(fmt.Errorf("dist: forming the cluster: no worker arrived for %v", acceptTimeout))
		}
	case ev.w == evAdmit:
		c.admit(ev)
	case ev.w == evExit:
		if c.phase == phaseMap {
			c.fireEvents() // an event held for that joiner, or reduce, may go now
			c.maybeReduce()
		}
	case ev.err != nil:
		c.death(ev.w)
	default:
		c.onFrame(ev.w, ev.typ, ev.payload)
	}
}

func (c *coord) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.phase = phaseDone
	for i, cw := range c.ws {
		if cw != nil && cw.cc != nil {
			c.emit(fxClose, i, cw.cc, frame{}) // hard: unblock every reader
		}
	}
}

// commit makes one change to the job's journaled state: the record is
// durable, when journaling, before apply changes the state, and callers
// broadcast the change only once commit reports success. p is the record's
// bytes when the caller already holds them (a worker's map-done or
// reduce-done payload); nil encodes r.
func (c *coord) commit(typ byte, r payload, p []byte) bool {
	if c.jn != nil {
		if p == nil {
			p = encode(r)
		}
		if err := c.jn.append(typ, p); err != nil {
			c.fail(err)
			return false
		}
	}
	if err := c.st.apply(r); err != nil {
		c.fail(fmt.Errorf("dist: %w", err))
		return false
	}
	return true
}

// liveness is the alive set by worker id. The journal records a drain
// target alive until its drain completes; announced, it is dead to its
// peers once the frame naming it Left has gone out, never while the drain
// is merely queued: until then its peers still owe it marks and acks.
func (c *coord) liveness(announced bool) []bool {
	v := make([]bool, len(c.ws))
	for i, cw := range c.ws {
		v[i] = cw != nil && cw.alive && !(announced && cw.left)
	}
	return v
}

// membership builds the one frame every membership change travels as,
// from current state.
func (c *coord) membership(joined, left int) frame {
	m := membershipMsg{
		Epoch: c.st.Epoch, Homes: c.st.Homes, Alive: c.liveness(true), Settled: c.st.done,
		Joined: joined, Left: left,
	}
	if joined >= 0 {
		m.JoinedAddr = c.ws[joined].addr
	}
	return newFrame(mMembership, &m)
}

// nextEpoch is the membership record of the next epoch as things stand:
// the caller edits in its change, then commits it.
func (c *coord) nextEpoch() *membershipRecord {
	r := c.st.membershipRecord
	r.Epoch++
	r.Homes = append([]int(nil), r.Homes...)
	r.Attempt = append([]int(nil), r.Attempt...)
	r.Alive = c.liveness(false)
	return &r
}

// admit is the one admission path: a candidate's first frame, in any phase.
// A fresh job's formation numbers the first o.Workers mJoins in arrival
// order; a resumed one's waits for every journaled-live worker's mRejoin
// and holds mJoins until it completes. Later mJoins are live joiners. A
// rejoiner beyond the journal's membership is a joiner whose transition
// never started: its transition is queued now, since it may have meshed
// before the crash and not report ready again. A rejoiner the journal says left
// is told to exit; anything else, and any id past maxWorkers, is refused.
func (c *coord) admit(ev cevent) {
	cc := ev.cc
	refuse := func() { c.emit(fxClose, evAdmit, cc, frame{}) }
	if c.phase == phaseDone {
		refuse()
		return
	}
	forming := c.phase == phaseForm
	switch ev.typ {
	case mJoin:
		var h helloMsg
		if decode(ev.payload, &h).fin("hello") != nil {
			refuse()
			return
		}
		id := max(len(c.ws), c.idFloor)
		switch {
		case forming && c.need != nil:
			c.held = append(c.held, ev)
		case id >= maxWorkers:
			refuse()
		case forming:
			c.adopt(id, h.ListenAddr, cc, wActive)
			if len(c.ws) == c.o.Workers {
				c.form()
			}
		default:
			// A mid-reduce joiner meshes, idles (its transition waits for a
			// map phase that may never come back) and exits at job end.
			c.adopt(id, h.ListenAddr, cc, wJoining)
			c.welcome(id)
			c.emit(fxRead, id, cc, frame{})
			c.note("worker-join", "worker", id, "addr", h.ListenAddr)
			c.ctr.Mark(obs.InstantJoin)
			c.fireEvents() // a deferred drain/kill of this joiner can fire now
		}
	case mRejoin:
		var m rejoinMsg
		if decode(ev.payload, &m).fin("rejoin") != nil || c.need == nil ||
			m.WorkerID < 0 || m.WorkerID >= maxWorkers {
			refuse()
			return
		}
		id := m.WorkerID
		switch {
		case m.Epoch > c.st.Epoch:
			refuse()
			if forming {
				c.fail(fmt.Errorf(resumeRefused+": worker %d is at epoch %d, ahead of the journal's %d",
					id, m.Epoch, c.st.Epoch))
			}
		case c.need[id]:
			delete(c.need, id)
			c.adopt(id, m.ListenAddr, cc, wActive)
			if forming && len(c.need) == 0 {
				c.form()
			}
		case id >= c.base && (id >= len(c.ws) || c.ws[id].cc == nil):
			c.adopt(id, m.ListenAddr, cc, wJoining)
			c.queuedT = append(c.queuedT, &transition{kind: "join", target: id})
			if !forming {
				c.send(id, c.membership(-1, -1))
				c.emit(fxRead, id, cc, frame{})
				c.startNextTransition()
			}
		default: // it already left, or its slot is filled: let it exit cleanly
			c.emit(fxClose, evAdmit, cc, ctlFrame(mDrained))
		}
	default:
		refuse()
	}
}

// adopt installs a worker under id, padding the membership with dead slots
// up to it.
func (c *coord) adopt(id int, addr string, cc *conn, state int) {
	for len(c.ws) <= id {
		c.ws = append(c.ws, &cworker{state: wActive})
	}
	c.ws[id] = &cworker{cc: cc, addr: addr, alive: true, state: state, clock: &clockEstimator{}}
	// The initial probe burst lands during formation, before shuffle
	// traffic can queue behind it.
	c.emit(fxProbe, id, cc, frame{})
	if c.sched != nil {
		c.sched.join(id)
	}
}

// welcome sends worker id its handshake: its id and the cluster width, then
// the job, its peers' addresses, the partition homes and the epoch.
func (c *coord) welcome(id int) {
	peers := make([]string, len(c.ws))
	for i, cw := range c.ws {
		if cw != nil && cw.alive && !cw.left && cw.cc != nil {
			peers[i] = cw.addr
		}
	}
	c.send(id, newFrame(mWelcome, &welcomeMsg{WorkerID: id, Workers: len(c.ws)}))
	c.send(id, newFrame(mJobStart, &jobStartMsg{
		Job: c.o.Job, TraceID: c.st.TraceID, Peers: peers, Homes: c.st.Homes, Epoch: c.st.Epoch,
		Live: c.phase != phaseForm,
	}))
}

// form ends formation. A fresh job commits its first records — identity,
// block-store namespace, the formation epoch — welcomes its workers and
// ingests the namespace; a resumed one re-syncs its rejoined workers.
// Then the map phase starts and held joiners are admitted.
func (c *coord) form() {
	o, n, nTasks := &c.o, len(c.ws), len(c.o.Blocks)
	if c.need == nil {
		rec := &jobRecord{Job: o.Job, Tasks: nTasks, TraceID: o.TraceID}
		if c.jn != nil {
			// Only a resume reads the digest, and only a journal resumes:
			// an unjournaled job does not hash its input.
			rec.Digest = blocksDigest(o.Blocks)
		}
		c.commit(jrJobStart, rec, nil)
		if o.Blockstore != "" {
			// Block b's replicas are computed once, at formation width, and
			// journaled so a resumed coordinator reconstructs the placement
			// the workers' disks actually hold.
			repl := o.Replication
			if repl <= 0 {
				repl = 3
			}
			if o.Blockstore == "remote" && repl >= n && n > 1 {
				repl = n - 1 // forced-remote needs a non-holder to run every task on
			}
			c.commit(jrNamespace, &namespaceRecord{Mode: o.Blockstore, Repl: min(repl, n), Width: n}, nil)
		}
		homes := make([]int, o.Job.Partitions)
		for p := range homes {
			homes[p] = p % n
		}
		c.commit(jrMembership, &membershipRecord{Homes: homes, Alive: c.liveness(false), Attempt: make([]int, nTasks)}, nil)
		if c.err != nil {
			return
		}
	}
	// Block-store namespace: holders[t] is the replica set of block t. Resume
	// never re-ingests — rejoining workers still have their replicas, and
	// dead holders fall out at dispatch time.
	if c.st.Mode != "" {
		c.holders = blockstore.Place(nTasks, c.st.Width, c.st.Repl)
	}
	if c.need != nil {
		// A resumed job starts a new epoch that supersedes every unresolved
		// task's attempt: the crashed coordinator's attempts may still be
		// running, this one cannot count them toward quiesce, and their runs
		// — staged under the old epoch — are fenced once the homes adopt the
		// new one. If the crash interrupted a transition, its handoffs in
		// flight are fenced too, so every task is superseded, as by a death.
		// The bump clears every attempt the crashed coordinator may have
		// dispatched: its retries bumped attempts up to maxAttempts-1 times
		// without journaling them, and a reused (task, attempt) would collide
		// with a stale one in every home's staging.
		rec := c.nextEpoch()
		for t, r := range c.st.resolved {
			if !r || c.st.moving {
				rec.Attempt[t] += maxAttempts
			}
		}
		// A drain the crash interrupted resumes: its target, rejoined and
		// owning nothing, is drained again once the cluster quiesces.
		drain := c.st.draining
		if !c.commit(jrMembership, rec, nil) {
			return
		}
		c.ctr.Mark(obs.InstantResume)
		if drain >= 0 {
			c.ws[drain].state = wDraining
			c.queuedT = append(c.queuedT, &transition{kind: "drain", target: drain})
		}
	}
	var prefer []int
	if c.holders != nil && c.need == nil {
		prefer = make([]int, nTasks)
		for t := range prefer {
			if o.Blockstore == "remote" {
				// First worker past the replica window: never a holder.
				prefer[t] = (t + len(c.holders[t])) % n
			} else {
				// holders[t][0] is t%n, so the locality-preferring deal keeps
				// the classic deal's balance exactly.
				prefer[t] = c.holders[t][0]
			}
		}
	}
	c.sched = newSched(c.st, len(c.ws), maxAttempts, prefer, c.schedAlive())

	if c.need != nil {
		// The refresh announcing the new epoch carries the homes, liveness
		// and settled set, so a worker that missed a crash-window broadcast
		// applies it now (journaling is write-ahead, so the journal is never
		// behind a broadcast a worker saw).
		c.broadcast(c.membership(-1, -1))
	} else {
		for i := range c.ws {
			c.welcome(i)
		}
		// Ingest the namespace: push every block to each of its replica
		// holders, after job-start so the worker's handshake stays two
		// frames, before any map task thanks to FIFO links. Puts ride the
		// bulk send window, so a slow disk backpressures the push instead of
		// ballooning the queue; replica bytes are booked by the receiving
		// worker as dist_block_ingest_bytes_total, never as shuffle traffic.
		// One frame goes to every holder: its header is written as it is
		// built, and no link writes to it.
		for t, hs := range c.holders {
			put := newFrame(mBlockPut, &blockPutMsg{ID: t, Data: o.Blocks[t]})
			put.bulk, put.acct = true, int64(len(put.payload()))
			for _, h := range hs {
				c.send(h, put)
			}
		}
	}
	c.phase = phaseMap
	for i, cw := range c.ws {
		if cw != nil && cw.cc != nil && cw.alive {
			c.emit(fxRead, i, cw.cc, frame{})
		}
	}
	for _, ev := range c.held {
		c.admit(ev) // no longer forming: admitted live
	}
	c.held = nil
	c.startNextTransition()
	c.fireEvents()
	c.fill()
	c.maybeReduce() // a resumed job may already have every task and partition done
}

// schedAlive is the scheduler's view of liveness: only wActive workers may
// receive, steal or inherit tasks. Joiners still meshing and drain targets
// are excluded so nothing is queued where it cannot run.
func (c *coord) schedAlive() []bool {
	v := make([]bool, len(c.ws))
	for i, cw := range c.ws {
		v[i] = cw != nil && cw.alive && cw.state == wActive
	}
	return v
}

func (c *coord) activeIDs(except int) (ids []int) {
	for i, a := range c.schedAlive() {
		if a && i != except {
			ids = append(ids, i)
		}
	}
	return ids
}

func (c *coord) totalOutstanding() int {
	sum := 0
	for _, cw := range c.ws {
		if cw != nil && cw.alive {
			sum += cw.outstanding
		}
	}
	return sum
}

func (c *coord) broadcast(f frame) {
	for i, cw := range c.ws {
		if cw != nil && cw.alive && cw.cc != nil && cw.state != wDrained {
			c.send(i, f)
		}
	}
}

// claimed reports whether churn the loopback runner scheduled is still in
// flight: a queued or active drain (drains are only ever scheduled), and in
// loopback a join transition, a joiner still meshing, or a spawned joiner no
// coordinator of this job has admitted — every spawn, by this coordinator or
// a crashed one, less the joiners the journal's membership and this
// coordinator's admissions account for, and less those whose worker returned
// unaccounted for. Reduce does not start under a claim, and a drain or kill
// aimed at a joiner waits for it.
func (c *coord) claimed() bool {
	loopback := c.hooks.spawn != nil
	if t := c.activeT; t != nil && (t.kind == "drain" || loopback) {
		return true
	}
	for _, t := range c.queuedT {
		if t.kind == "drain" || loopback {
			return true
		}
	}
	if !loopback {
		return false
	}
	admitted := c.base - c.o.Workers
	for i, cw := range c.ws {
		if cw != nil && cw.alive && cw.state == wJoining {
			return true
		}
		if i >= c.base && cw.cc != nil {
			admitted++
		}
	}
	for _, id := range c.hooks.exited() {
		if id < 0 || id >= len(c.ws) || id >= c.base && c.ws[id].cc == nil {
			admitted++ // it died before any admission counted it: none will
		}
	}
	return c.hooks.joiners+c.spawned > admitted
}

// rehome moves every partition homes places on a leaving worker — dead or
// draining — across the active survivors, deterministically: ascending
// partitions, cycling ascending ids. It returns the partitions moved.
func (c *coord) rehome(homes []int, from int) map[int]bool {
	surv := c.activeIDs(from)
	moved := make(map[int]bool)
	for p, h := range homes {
		if h == from {
			homes[p] = surv[len(moved)%len(surv)]
			moved[p] = true
		}
	}
	return moved
}

// mapSlots is how many map tasks a worker may hold at once; the wire
// shuffle of task k overlaps the kernel of task k+1 even at 1 because sends
// are asynchronous.
const mapSlots = 2

// fill tops every active worker up to its mapSlots quota. Dispatch pauses
// while a membership transition is queued or in flight: the transition
// needs the cluster quiesced, and new attempts would stage shuffle output
// across a partition map about to move.
func (c *coord) fill() {
	if c.phase != phaseMap || c.activeT != nil || len(c.queuedT) > 0 {
		return
	}
	sa := c.schedAlive()
	for w, cw := range c.ws {
		if cw == nil || !cw.alive || cw.state != wActive {
			continue
		}
		for cw.outstanding < mapSlots {
			t, ok := c.sched.next(w, sa)
			if !ok {
				break
			}
			sp := openSpan{c.ctr.NewID(), time.Now()}
			c.assignSpans[attemptKey{t, c.st.Attempt[t]}] = sp
			msg := mapTaskMsg{Task: t, Attempt: c.st.Attempt[t], SpanID: sp.id}
			if c.holders == nil {
				msg.Block = c.o.Blocks[t]
			} else {
				// Block-store dispatch: a reference plus the replica set still
				// alive to serve it. AllowLocal=false is the forced-remote
				// baseline — even a holder must fetch.
				msg.Ref = true
				msg.BlockSize = int64(len(c.o.Blocks[t]))
				msg.AllowLocal = c.o.Blockstore != "remote"
				for _, h := range c.holders[t] {
					if h < len(c.ws) && c.ws[h] != nil && c.ws[h].alive && c.ws[h].state != wDrained {
						msg.Holders = append(msg.Holders, h)
					}
				}
				if len(msg.Holders) == 0 {
					// Every replica is gone: embed the bytes — availability
					// beats locality, and the read books as remote.
					msg.Block = c.o.Blocks[t]
				}
			}
			c.send(w, newFrame(mMapTask, &msg))
			cw.outstanding++
		}
	}
}

func (c *coord) finishJob() {
	if c.phase == phaseDone {
		return
	}
	c.phase = phaseDone
	if !c.reduceStart.IsZero() {
		c.res.ReduceElapsed = time.Since(c.reduceStart)
	}
	c.broadcast(ctlFrame(mJobEnd))
	// Workers close their end after job-end; readers drain out.
}

// maybeReduce fires the reduce phase once every map task is resolved —
// and, crucially, once no kill or membership change is pending: a kill that
// has been triggered but whose death the coordinator has not yet observed
// must not let reduce start against a store that is about to be lost, and
// partitions must not move while reduce reads them.
func (c *coord) maybeReduce() {
	if c.phase != phaseMap || len(c.pendingKills) > 0 || c.claimed() ||
		c.activeT != nil || len(c.queuedT) > 0 || c.st.resolvedCount != c.st.Tasks {
		return
	}
	c.phase = phaseReduce
	if c.mapElapsed == 0 {
		c.mapElapsed = time.Since(c.start)
	}
	c.reduceStart = time.Now()
	for p := 0; p < c.o.Job.Partitions; p++ {
		if c.st.done[p] {
			continue // accepted before a restart or recovery; output is final
		}
		sp := openSpan{c.ctr.NewID(), time.Now()}
		c.reduceSpans[p] = sp
		c.send(c.st.Homes[p], newFrame(mReduceTask, &reduceTaskMsg{
			Partition: p, Attempt: c.reduceAttempt[p], SpanID: sp.id,
		}))
	}
	if len(c.reduceSpans) == 0 {
		c.finishJob()
	}
}

// fireEvents consumes elastic events whose progress threshold has been
// met, strictly in order.
func (c *coord) fireEvents() {
	for c.err == nil && c.eventIdx < len(c.o.Elastic) {
		e := c.o.Elastic[c.eventIdx]
		trigger, threshold := c.st.resolvedCount, e.AfterMapDone
		if e.AfterReduceDone > 0 {
			trigger, threshold = c.st.doneCount, e.AfterReduceDone
		}
		// A fired kill lands asynchronously. Hold later events until its
		// death is observed (death re-runs fireEvents), or a drain that
		// starts in between is aborted by that death and the schedule's
		// outcome depends on goroutine timing.
		if trigger < threshold || len(c.pendingKills) > 0 {
			return
		}
		// A drain or kill may target a joiner from an earlier event in the
		// schedule. While that join is still in flight, hold the event
		// un-consumed — admission and transition completion re-run
		// fireEvents — instead of silently skipping it.
		target := e.Worker
		if (e.Kind == "drain" || e.Kind == "kill") && c.claimed() &&
			(target >= len(c.ws) || c.ws[target] == nil || c.ws[target].state == wJoining) {
			return
		}
		c.eventIdx++
		valid := target >= 0 && target < len(c.ws) && c.ws[target] != nil && c.ws[target].alive
		switch e.Kind {
		case "join":
			if c.hooks.spawn != nil {
				c.spawned++
				c.emit(fxSpawn, -1, nil, frame{})
			}
		case "drain":
			// Draining the last active worker is refused: nothing could take
			// its partitions.
			if valid && c.ws[target].state == wActive && len(c.activeIDs(target)) > 0 {
				c.ws[target].state = wDraining
				c.queuedT = append(c.queuedT, &transition{kind: "drain", target: target})
				c.startNextTransition()
			}
		case "kill":
			if c.hooks.kill != nil && valid {
				c.pendingKills[target] = true
				c.emit(fxKill, target, nil, frame{})
			}
		case "restart":
			c.fail(&restartCrash{fired: c.eventIdx})
			return
		}
	}
}

// startNextTransition promotes the head of the transition queue, dropping
// entries invalidated by deaths along the way.
func (c *coord) startNextTransition() {
	if c.activeT != nil || c.err != nil {
		return
	}
	for c.activeT == nil && len(c.queuedT) > 0 {
		t := c.queuedT[0]
		c.queuedT = c.queuedT[1:]
		cw := c.ws[t.target]
		switch {
		case !cw.alive:
		case t.kind == "drain" && len(c.activeIDs(t.target)) == 0:
			cw.state = wActive // can't drain the last active worker; drop the drain
		default:
			c.activeT = t
		}
	}
	if c.activeT != nil {
		c.tryAdvance()
	}
}

// tryAdvance starts the active transition once the cluster is quiesced: no
// outstanding map attempts means every shipped run has passed its commit
// barrier, so the partition map can move without stranding staged data. A
// fired kill must land first: its death would abort a transition started
// under it, and whether it did would hang on goroutine timing.
func (c *coord) tryAdvance() {
	t := c.activeT
	if t == nil || t.started || c.phase != phaseMap || c.totalOutstanding() > 0 || len(c.pendingKills) > 0 {
		return
	}
	rec := c.nextEpoch()
	homes := rec.Homes
	joined, left := t.target, -1
	if t.kind == "join" {
		t.pending = make(map[int]bool)
		// Move ⌊P/live⌋ partitions to the joiner, one at a time from the
		// currently most-loaded owner (lowest id on ties) — deterministic and
		// balanced.
		surv := c.activeIDs(-1)
		load := make(map[int]int)
		for _, h := range homes {
			load[h]++
		}
		for moved := 0; moved < len(homes)/(len(surv)+1); moved++ {
			donor := -1
			for _, id := range surv {
				if load[id] > 1 && (donor < 0 || load[id] > load[donor]) {
					donor = id
				}
			}
			if donor < 0 {
				break
			}
			p := slices.Index(homes, donor)
			homes[p] = t.target
			load[donor]--
			t.pending[p] = true
		}
		rec.Joined++
	} else {
		joined, left = -1, t.target
		t.pending = c.rehome(homes, t.target)
	}
	// Write-ahead: journal the new epoch before any worker hears of it. A
	// drain journals the target still data-alive — a resume must accept its
	// rejoin while un-handed-off partitions live only on it — while the
	// frame naming it Left announces it compute-dead, so peers stop counting
	// it in commit barriers and it flushes and hands off. The second journal
	// record at completion retires it fully.
	if !c.commit(jrMembership, rec, nil) {
		return
	}
	t.epoch = c.st.Epoch
	if left >= 0 {
		c.sched.drain(left, c.schedAlive())
		c.ws[left].left = true
	}
	c.broadcast(c.membership(joined, left))
	t.started = true
	c.note("rehome", "kind", t.kind, "target", t.target, "epoch", c.st.Epoch, "moved", len(t.pending))
	if len(t.pending) == 0 {
		c.completeTransition()
	}
}

func (c *coord) completeTransition() {
	t := c.activeT
	if t == nil || !t.started || len(t.pending) > 0 {
		return
	}
	c.activeT = nil
	if t.kind == "join" {
		// Journal the end of the handoff, so a resume knows none is in flight.
		if !c.commit(jrMembership, c.nextEpoch(), nil) {
			return
		}
		c.ws[t.target].state = wActive
		// Rescue tasks stranded on dead workers' queues now that a fresh
		// active worker exists (possible only if every prior active died
		// while the joiner was meshing).
		sa := c.schedAlive()
		for i, cw := range c.ws {
			if (cw == nil || !cw.alive) && i < len(c.sched.queues) && len(c.sched.queues[i]) > 0 {
				c.sched.drain(i, sa)
			}
		}
	} else {
		cw := c.ws[t.target]
		cw.alive = false
		cw.state = wDrained
		rec := c.nextEpoch()
		rec.Drained++
		if !c.commit(jrMembership, rec, nil) {
			return
		}
		c.send(t.target, ctlFrame(mDrained))
		c.ctr.Mark(obs.InstantDrain)
	}
	c.note("membership-complete", "kind", t.kind, "target", t.target, "epoch", c.st.Epoch)
	c.fireEvents() // a drain/kill deferred on this join's completion can fire now
	c.startNextTransition()
	c.fill()
	c.maybeReduce()
}

func (c *coord) death(w int) {
	cw := c.ws[w]
	if cw == nil || !cw.alive {
		return
	}
	cw.alive = false
	if c.phase == phaseDone {
		return // workers close their links once the job ends
	}
	cw.outstanding = 0
	delete(c.pendingKills, w)
	c.note("worker-dead", "worker", w, "active", len(c.activeIDs(-1)))
	c.ctr.Mark(obs.InstantDeath)
	// Drop the transitions the dead worker was the target of.
	keep := c.queuedT[:0]
	for _, t := range c.queuedT {
		if t.target != w {
			keep = append(keep, t)
		}
	}
	c.queuedT = keep
	// A bystander death while the active transition awaits quiesce keeps
	// it: quiesce re-checks after redistribution. A started one's handoff
	// plan is invalidated — the dead worker may be its source, target or
	// destination — so it aborts: death re-execution supersedes whatever
	// moved, and the store's epoch fence drops stale handoff remnants. A
	// join target survives as a full (empty-handed) member; a drain target
	// survives in limbo — compute-dead to its peers, data-alive, owning
	// nothing — and idles until job end.
	if t := c.activeT; t != nil && (t.started || t.target == w) {
		if t.kind == "join" && t.target != w {
			c.ws[t.target].state = wActive
		}
		c.activeT = nil
	}
	if len(c.activeIDs(-1)) == 0 {
		c.fail(errors.New("dist: all workers dead or leaving"))
		return
	}
	// Accepted outputs whose holder just died take their resident records
	// with them: the dying store books them lost, so book them settled here
	// or the ledger reads them as recoverable losses. The record announcing
	// the death zeroes them.
	for p, h := range c.st.holder {
		if h == w && c.st.done[p] {
			c.led.storeSettled.Add(c.st.resident[p])
		}
	}
	rec := c.nextEpoch()
	rec.Lost++
	c.rehome(rec.Homes, w)
	if c.st.doneCount == c.o.Job.Partitions {
		// Every partition's output was already accepted — final by
		// definition — so the death recovers nothing. Record it and finish
		// instead of re-executing the world.
		if c.commit(jrMembership, rec, nil) {
			c.finishJob()
		}
		return
	}
	if c.phase == phaseReduce {
		// Reduce-phase death is no longer fatal: cancel the reduce wave, fall
		// back to the map phase, and let death redistribution re-execute what
		// died with the worker's store. Partitions whose output was already
		// accepted keep it — first acceptance is final — and late reports
		// from the cancelled wave are still accepted if their partition's
		// data was complete.
		c.phase = phaseMap
		for _, sp := range c.reduceSpans {
			c.ctr.RecordID(sp.id, obs.StageSchedReduce, sp.start, 0, nil)
		}
		clear(c.reduceSpans)
		for p := range c.reduceAttempt {
			if !c.st.done[p] {
				c.reduceAttempt[p]++
			}
		}
	}
	for _, t := range c.sched.death(w, c.schedAlive()) {
		rec.Attempt[t]++
	}
	if !c.commit(jrMembership, rec, nil) {
		return
	}
	c.broadcast(c.membership(-1, -1))
	// Events held behind this kill can fire now. And the death may have
	// aborted the active transition: promote the next queued one, or nothing
	// ever will and dispatch stays paused.
	c.fireEvents()
	c.startNextTransition()
	c.fill()
	c.tryAdvance()
	c.maybeReduce()
}

// onFrame handles one frame from worker w.
func (c *coord) onFrame(w int, typ byte, p []byte) {
	if typ == mSpanBatch {
		// Span batches arrive as workers wind down — drained workers mid-job,
		// everyone else after job-end — so they are handled ahead of the
		// done check below.
		var m spanBatchMsg
		if decode(p, &m).fin("span-batch") == nil {
			c.batches = append(c.batches, m)
		}
		return
	}
	if c.phase == phaseDone {
		return // draining
	}
	cw := c.ws[w]
	switch typ {
	case mMapDone, mMapFailed:
		var m *mapDoneMsg
		var reason string
		if typ == mMapDone {
			r, err := decodeRecord(jrMapDone, p)
			if err != nil {
				c.fail(err)
				return
			}
			m = r.(*mapDoneMsg)
		} else {
			var f taskFailMsg
			if err := decode(p, &f).fin("task-fail"); err != nil {
				c.fail(err)
				return
			}
			m, reason = &mapDoneMsg{Task: f.Task, Attempt: f.Attempt}, f.Reason
		}
		// Only an attempt this coordinator dispatched counts against quiesce:
		// a resumed one also hears from attempts its predecessor dispatched.
		k := attemptKey{m.Task, m.Attempt}
		if sp, ok := c.assignSpans[k]; ok {
			c.ctr.RecordID(sp.id, obs.StageSchedAssign, sp.start, 0, nil)
			delete(c.assignSpans, k)
			cw.outstanding--
		}
		if typ == mMapFailed {
			c.note("map-retry", "task", m.Task, "attempt", m.Attempt, "worker", w, "reason", reason)
			if err := c.sched.fail(m.Task, m.Attempt, w, c.schedAlive(), reason); err != nil {
				c.fail(err)
				return
			}
		} else if c.st.current(m.Task, m.Attempt) {
			// The journal record is the payload itself.
			if !c.commit(jrMapDone, m, p) {
				return
			}
			c.fireEvents()
		}
		c.fill()
		c.tryAdvance()
		c.maybeReduce()
	case mJoinReady:
		// The joiner's peer mesh is connected; it can own partitions now. A
		// joiner a resumed coordinator admitted has its join queued already,
		// and reports ready anyway if its mesh formed after the crash.
		queued := c.activeT != nil && c.activeT.target == w
		for _, t := range c.queuedT {
			queued = queued || t.target == w
		}
		if cw.alive && cw.state == wJoining && !queued {
			c.queuedT = append(c.queuedT, &transition{kind: "join", target: w})
			c.startNextTransition()
		}
	case mHandoffDone:
		var m handoffMsg
		if err := decode(p, &m).fin("handoff-done"); err != nil {
			c.fail(err)
			return
		}
		if t := c.activeT; t != nil && t.started && m.Epoch == t.epoch {
			delete(t.pending, m.Partition)
			c.completeTransition()
		}
	case mReduceDone:
		r, err := decodeRecord(jrReduceDone, p)
		if err != nil {
			c.fail(err)
			return
		}
		m := r.(*reduceDoneMsg)
		if m.Partition < 0 || m.Partition >= c.o.Job.Partitions {
			c.fail(fmt.Errorf("dist: reduce-done for unknown partition %d", m.Partition))
			return
		}
		// Count a partition against the wave once: a reduce task the crashed
		// coordinator dispatched can report to its resumed successor, under
		// the same attempt number as the re-dispatch.
		if sp, ok := c.reduceSpans[m.Partition]; ok && m.Attempt == c.reduceAttempt[m.Partition] {
			c.ctr.RecordID(sp.id, obs.StageSchedReduce, sp.start, 0, nil)
			delete(c.reduceSpans, m.Partition)
		}
		if !c.st.done[m.Partition] {
			if !c.commit(jrReduceDone, m, p) {
				return
			}
			// Reduce-side conservation books at first acceptance, here on the
			// coordinator: recoveries and restarts can run a partition's
			// kernel more than once, but only one report may count or the
			// ledger double-books.
			c.led.ReduceRecordsIn.Add(m.RecordsIn)
			c.led.ReduceGroupsIn.Add(m.GroupsIn)
			c.led.OutputPairs.Add(int64(len(m.Pairs)))
			c.fireEvents()
		}
		// A fired kill whose death has not yet been observed blocks
		// completion: the scheduled churn must land (and be recovered from)
		// before the job may declare itself done.
		if c.phase == phaseReduce && len(c.reduceSpans) == 0 && len(c.pendingKills) == 0 {
			c.finishJob()
		}
	case mReduceFailed:
		var m taskFailMsg
		err := decode(p, &m).fin("task-fail")
		if err == nil {
			err = fmt.Errorf("dist: reduce partition %d failed: %s", m.Task, m.Reason)
		}
		c.fail(err)
	default:
		c.fail(fmt.Errorf("dist: unexpected %s from worker %d", typeName(typ), w))
	}
}

// result assembles a finished job's Result.
func (c *coord) result() *Result {
	res, st := c.res, c.st
	for _, s := range st.stats {
		res.IntermediatePairs += s.PairsOut
	}
	for _, rd := range st.reduced {
		res.OutputPairs += len(rd.Pairs)
	}
	res.WorkersJoined, res.WorkersDrained, res.WorkersLost = st.Joined, st.Drained, st.Lost
	res.MapRetries = c.sched.retries
	res.MapRecoveries = c.sched.recoveries
	res.MapElapsed = c.mapElapsed
	res.Total = time.Since(c.start)
	res.state = st

	// Merge the cluster's trace: the coordinator's own scheduling spans plus
	// every worker's span batch, rebased from the worker's epoch onto ours.
	// The rebase is (worker epoch − coordinator epoch) by the two wall
	// clocks, minus the estimated offset between those clocks — after which
	// a worker that booted with its clock an hour ahead still lands its
	// spans where they causally belong on the coordinator timeline.
	res.TraceID = st.TraceID
	res.ClockOffsets = make(map[int]float64)
	res.ClockRTTs = make(map[int]float64)
	for i, cw := range c.ws {
		if cw == nil || cw.clock == nil {
			continue
		}
		if off, rtt, ok := cw.clock.estimate(); ok {
			res.ClockOffsets[i] = off / 1e9
			res.ClockRTTs[i] = float64(rtt) / 1e9
		}
	}
	if tel := c.o.Telemetry; tel != nil && tel.Spans != nil {
		for _, s := range c.ctr.Spans() {
			tel.Spans.Span(s)
		}
		for _, i := range c.ctr.Instants() {
			tel.Spans.Mark(i)
		}
		coordEpoch := c.ctr.Epoch().UnixNano()
		for _, b := range c.batches {
			delta := float64(b.EpochUnixNano-coordEpoch)/1e9 - res.ClockOffsets[b.Node]
			for _, s := range b.Spans {
				s.Start += delta
				s.End += delta
				tel.Spans.Span(s)
			}
		}
	}
	return res
}

// Serve runs a coordinator for one job at addr, waiting for o.Workers
// multi-process workers (cmd/distnode) to join — or, with o.Resume set,
// for the journaled membership to rejoin. Loopback-only Options fields are
// ignored.
func Serve(addr string, o Options) (*Result, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: coordinator listen: %w", err)
	}
	defer ln.Close()
	return serve(ln, o, nil, loopHooks{})
}
