package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"glasswing/internal/kv"
)

// The schedule checker drives coord.step against a fake cluster: no
// sockets, no goroutines, no RunLoopback. Every source of nondeterminism a
// real cluster has — which worker's frame arrives next, when a task
// finishes, when a handoff lands, when a worker dies or joins, when the
// coordinator crashes — is a choice drawn from one seeded generator, so a
// seed is a schedule and replays exactly. After every step the checker
// asserts the coordinator's invariants (simSchedule.check).
//
// Fake workers mirror the real worker's protocol at the level the
// coordinator can observe: they apply membership frames like
// worker.handleMembership (adopt epoch, homes, liveness and the settled
// set; hand off every partition that moved away), and instead of runs they
// keep, per partition, the set of tasks whose output they have committed.
// A map task commits its task id at every partition's home as the mapper
// sees it — fenced, like the store, when the mapper's epoch is older than
// the home's — before the mapper reports map-done (the commit barrier); a
// reduce task reports the home's set as its output. Handoffs move sets and
// are delivered as events of their own; deaths lose them.

// memFile is an in-memory journal file.
type memFile struct{ bytes.Buffer }

func (*memFile) Sync() error  { return nil }
func (*memFile) Close() error { return nil }

type simWorker struct {
	id       int // coordinator id; -1 until welcomed
	addr     string
	link     *simLink
	welcomed bool // processed its job-start
	dead     bool // killed: its store is lost
	exited   bool // drained, or the job ended
	epoch    int
	homes    []int
	alive    []bool
	settled  []bool
	parts    [][]bool // partition → task → output committed here
	queue    []execItem
	reports  []frame // every map-done and reduce-done sent, for duplicates
}

type simLink struct {
	w            *simWorker
	cc           *conn   // identity token only: never used as a connection
	in, out      []frame // coordinator → worker, worker → coordinator
	admitted     bool    // first frame delivered as an admission
	id           int     // reader's worker id once the coordinator reads it, else -1
	coordClosed  bool
	workerClosed bool
	eof          bool // lost-link event delivered
}

type simHandoff struct {
	from         *simWorker
	to, p, epoch int
	tasks        []bool
}

// simSchedule is one seeded schedule: a coordinator, the fake cluster it
// talks to, and the chaos budget left.
type simSchedule struct {
	t    testing.TB
	seed int64
	rng  *rand.Rand
	o    Options
	c    *coord
	mem  *memFile
	led  *ledger

	workers  []*simWorker
	links    map[*conn]*simLink
	handoffs []simHandoff
	kills    []int // fired kill hooks not yet carried out
	joiners  int   // joiners the spawn hook launched (the runner's count)
	faultPct int   // chance a map attempt fails, in percent

	// chaos budget: unsolicited kills, joins, crashes and duplicate reports.
	chaosKills, chaosJoins, chaosCrashes, chaosDups int

	shadow  *jobState // the journal replayed so far
	read    int       // journal bytes shadow has applied
	checked []bool    // partitions whose accepted output has been checked

	gen  int      // coordinator generation: bumps at every restart
	log  []string // every effect every coordinator queued, rendered
	sent []simSent

	crashed   *jobState // the journal's state at the last restart
	onRestart func()    // called once a resumed coordinator is built
}

// simSent is one task-carrying frame a coordinator sent, for the recovery
// matrix's outcome checks.
type simSent struct {
	gen, w int
	typ    byte
	task   int  // task, or partition for a reduce task
	done   bool // reduce task: partition already accepted when sent
}

// newSimSchedule derives a job, an elastic schedule and a chaos budget
// from seed.
func newSimSchedule(t testing.TB, seed int64) *simSchedule {
	rng := rand.New(rand.NewSource(seed))
	n, tasks, parts := 1+rng.Intn(4), 3+rng.Intn(12), 1+rng.Intn(6)
	o := simOptions(n, tasks, parts)
	o.Job.MaxAttempts = 2 + rng.Intn(4)
	if rng.Intn(4) == 0 {
		o.Blockstore = "local"
	}
	for k := rng.Intn(4); k > 0; k-- {
		e := ElasticEvent{Kind: []string{"join", "drain", "kill", "restart"}[rng.Intn(4)], Worker: rng.Intn(n + 1)}
		if rng.Intn(3) == 0 {
			e.AfterReduceDone = 1 + rng.Intn(parts)
		} else {
			e.AfterMapDone = rng.Intn(tasks + 1)
		}
		o.Elastic = append(o.Elastic, e)
	}
	s := startSim(t, seed, o)
	if rng.Intn(3) == 0 {
		s.faultPct = 5 + rng.Intn(20)
	}
	s.chaosKills, s.chaosJoins, s.chaosCrashes, s.chaosDups = rng.Intn(3), rng.Intn(2), rng.Intn(2), rng.Intn(4)
	return s
}

// simOptions is a fresh job of tasks one-byte blocks on n workers.
func simOptions(n, tasks, parts int) Options {
	o := Options{
		Job:     Job{App: AppSpec{Name: "sim"}, Partitions: parts},
		Workers: n, TraceID: 1, KillWorker: -1,
	}
	for t := 0; t < tasks; t++ {
		o.Blocks = append(o.Blocks, []byte{byte(t)})
	}
	return o
}

// startSim builds a schedule's fresh coordinator and its n workers, each
// dialing in with an mJoin.
func startSim(t testing.TB, seed int64, o Options) *simSchedule {
	o.Job = o.Job.withDefaults()
	s := &simSchedule{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed ^ 0x5eed)), o: o,
		mem: new(memFile), led: newLedger(nil), links: make(map[*conn]*simLink),
		shadow: new(jobState), checked: make([]bool, o.Job.Partitions),
	}
	s.c = newCoord(o, s.led, s.hooks(), nil, &journal{f: s.mem})
	for i := 0; i < o.Workers; i++ {
		s.addWorker()
	}
	return s
}

func (s *simSchedule) hooks() loopHooks {
	return loopHooks{
		kill:    func(int) {}, // the effect is carried out by the checker
		spawn:   func() {},
		joiners: s.joiners,
	}
}

func (s *simSchedule) fatalf(format string, args ...any) {
	s.t.Helper()
	for _, l := range s.log[max(0, len(s.log)-simLogTail):] {
		s.t.Log(l)
	}
	s.t.Fatalf("seed %d: %s", s.seed, fmt.Sprintf(format, args...))
}

// addWorker starts one fresh worker dialing in.
func (s *simSchedule) addWorker() *simWorker {
	w := &simWorker{id: -1, addr: fmt.Sprintf("w%d", len(s.workers))}
	s.workers = append(s.workers, w)
	s.dial(w, frame{typ: mJoin, payload: encode(&helloMsg{ListenAddr: w.addr})})
	return w
}

// dial opens a new link for w whose first frame is first.
func (s *simSchedule) dial(w *simWorker, first frame) *simLink {
	l := &simLink{w: w, cc: new(conn), out: []frame{first}, id: -1}
	s.links[l.cc] = l
	w.link = l
	return l
}

func (s *simSchedule) byID(id int) *simWorker {
	for _, w := range s.workers {
		if w.welcomed && w.id == id {
			return w
		}
	}
	return nil
}

// report sends f to the coordinator on w's current link; a closed link
// loses it.
func (s *simSchedule) report(w *simWorker, f frame) {
	if l := w.link; l != nil && !l.coordClosed && !l.workerClosed {
		l.out = append(l.out, f)
	}
	if f.typ == mMapDone || f.typ == mReduceDone {
		w.reports = append(w.reports, f)
	}
}

// step hands the coordinator one event, carries out the effects it queued,
// and checks the invariants.
func (s *simSchedule) step(ev cevent) {
	defer func() {
		if r := recover(); r != nil {
			s.fatalf("step panicked: %v", r)
		}
	}()
	s.c.step(ev)
	out := s.c.out
	s.c.out = nil
	for _, e := range out {
		s.record(e)
		l := s.links[e.cc]
		switch e.op {
		case fxSend, fxClose:
			if e.f.typ != 0 && !l.coordClosed {
				l.in = append(l.in, e.f)
			}
			if e.op == fxClose {
				s.closeLink(l)
			}
		case fxRead:
			l.id = e.w
		case fxKill:
			s.kills = append(s.kills, e.w)
		case fxSpawn:
			s.joiners++
			s.addWorker()
		}
	}
	s.check(out)
}

func (s *simSchedule) closeLink(l *simLink) {
	l.coordClosed = true
	l.out = nil
}

// record appends one effect to the log, with its link named by worker.
func (s *simSchedule) record(e effect) {
	who := "-"
	if l := s.links[e.cc]; l != nil {
		who = l.w.addr
	}
	s.log = append(s.log, fmt.Sprintf("g%d op%d w%d %s %s %s", s.gen, e.op, e.w, who, typeName(e.f.typ), describe(e.f)))
	switch e.f.typ {
	case mMapTask:
		var m mapTaskMsg
		decode(e.f.payload, &m)
		s.sent = append(s.sent, simSent{gen: s.gen, w: e.w, typ: mMapTask, task: m.Task})
	case mReduceTask:
		var m reduceTaskMsg
		decode(e.f.payload, &m)
		s.sent = append(s.sent, simSent{gen: s.gen, w: e.w, typ: mReduceTask, task: m.Partition,
			done: s.c.st.done[m.Partition]})
	}
}

// check asserts every invariant the coordinator keeps after a step whose
// effects were out.
func (s *simSchedule) check(out []effect) {
	s.t.Helper()
	c, st := s.c, s.c.st
	s.checkReplay()
	for _, e := range out {
		switch {
		case e.op != fxSend:
		case e.f.typ == mMapTask:
			cw := c.ws[e.w]
			if !cw.alive || cw.state != wActive {
				s.fatalf("map task sent to worker %d (alive %v, state %d)", e.w, cw.alive, cw.state)
			}
			if c.activeT != nil || len(c.queuedT) > 0 {
				s.fatalf("map task sent to worker %d while a transition is queued", e.w)
			}
		case e.f.typ == mReduceTask:
			if st.resolvedCount != st.Tasks || len(c.pendingKills) > 0 || c.claimed() {
				s.fatalf("reduce task sent with %d/%d tasks resolved, %d kills pending, claimed %v",
					st.resolvedCount, st.Tasks, len(c.pendingKills), c.claimed())
			}
		}
	}
	if c.phase == phaseMap || c.phase == phaseReduce {
		for p, h := range st.Homes {
			cw := c.ws[h]
			// A drain target keeps its partitions until its drain starts; a
			// joiner owns its share from the moment its join starts.
			joining := c.activeT != nil && c.activeT.started && c.activeT.kind == "join" && c.activeT.target == h
			if !cw.alive || cw.state != wActive && !joining && (cw.state != wDraining || cw.left) {
				s.fatalf("partition %d homed on worker %d (alive %v, state %d)", p, h, cw.alive, cw.state)
			}
		}
	}
	for p, done := range st.done {
		if !done || s.checked[p] {
			continue
		}
		s.checked[p] = true
		seen := make([]int, st.Tasks)
		for _, pr := range st.reduced[p].pairs {
			seen[binary.BigEndian.Uint16(pr.Key)]++
		}
		for task, k := range seen {
			if k != 1 {
				s.fatalf("partition %d's accepted output names task %d %d times", p, task, k)
			}
		}
	}
}

// checkReplay applies the journal records appended since the last step to
// the shadow state and asserts it equals the coordinator's. The one
// difference allowed is apply's documented exception: a failed attempt's
// retry bump is not journaled until the task's next record carries it.
func (s *simSchedule) checkReplay() {
	s.t.Helper()
	recs, err := journalRecords(s.mem.Bytes()[s.read:])
	for _, r := range recs {
		if err == nil {
			err = s.shadow.apply(r)
		}
	}
	if err != nil {
		s.fatalf("replaying the journal: %v", err)
	}
	s.read = s.mem.Len()
	live := s.c.st
	if !live.started {
		if s.shadow.started {
			s.fatalf("journal holds records the coordinator has not applied")
		}
		return
	}
	want := *s.shadow
	want.Attempt = append([]int(nil), want.Attempt...)
	for t, a := range live.Attempt {
		if t < len(want.Attempt) && a > want.Attempt[t] && !live.resolved[t] &&
			s.c.sched != nil && a-want.Attempt[t] <= s.c.sched.failures[t] {
			want.Attempt[t] = a
		}
	}
	if !reflect.DeepEqual(&want, live) {
		s.fatalf("replayed journal differs from the coordinator's state:\n live     %+v\n replayed %+v",
			live.membershipRecord, want.membershipRecord)
	}
}

// simLogTail is how many of the last effects a failing schedule prints.
const simLogTail = 60

// simMaxSteps bounds a schedule: by this many actions the job has either
// finished with every partition accepted or failed with an allowed error.
// The longest of the default seeds takes 236.
const simMaxSteps = 20000

// journalRecords decodes a journal image's records in order.
func journalRecords(data []byte) ([]payload, error) {
	var recs []payload
	for len(data) > 0 {
		n, sz := binary.Uvarint(data)
		body := data[sz : sz+int(n)]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[sz+int(n):]) {
			return nil, errors.New("record checksum mismatch")
		}
		data = data[sz+int(n)+4:]
		r, err := decodeRecord(body[0], body[1:])
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// simAction is one thing that can happen next.
type simAction struct {
	kind int
	link *simLink
	w    *simWorker
	i    int
}

const (
	actCoord   = iota // the coordinator reads the next event off a link
	actWorker         // a worker applies its next frame from the coordinator
	actExec           // a worker finishes the task at the head of its queue
	actHandoff        // a handoff lands at its destination
	actKill           // a fired kill hook murders its victim
	actRedial         // a worker whose coordinator link closed dials again
)

// actions lists what can happen next, in a deterministic order.
func (s *simSchedule) actions(buf []simAction) []simAction {
	buf = buf[:0]
	for _, w := range s.workers {
		if l := w.link; l != nil {
			// Admission and reads from every live link, and the lost-link
			// event once a closed link's frames are read.
			switch {
			case !l.admitted && len(l.out) > 0 && !l.coordClosed:
				buf = append(buf, simAction{kind: actCoord, link: l})
			case l.id >= 0 && (len(l.out) > 0 || (l.workerClosed || l.coordClosed) && !l.eof):
				buf = append(buf, simAction{kind: actCoord, link: l})
			}
		}
		if w.dead || w.exited {
			continue
		}
		if len(w.link.in) > 0 {
			buf = append(buf, simAction{kind: actWorker, w: w})
		} else if w.link.coordClosed {
			buf = append(buf, simAction{kind: actRedial, w: w})
		}
		if len(w.queue) > 0 && s.meshed(w) {
			buf = append(buf, simAction{kind: actExec, w: w})
		}
	}
	for i, h := range s.handoffs {
		if s.byID(h.to) != nil { // a handoff waits for its destination's link
			buf = append(buf, simAction{kind: actHandoff, i: i})
		}
	}
	for i, id := range s.kills {
		if s.byID(id) != nil {
			// Like the loopback kill hook, a kill lands once its victim has
			// been welcomed.
			buf = append(buf, simAction{kind: actKill, i: i})
		}
	}
	return buf
}

// meshed reports whether every partition home w knows of has been
// welcomed: a real worker runs no task before its peer mesh is up.
func (s *simSchedule) meshed(w *simWorker) bool {
	for _, h := range w.homes {
		if s.byID(h) == nil {
			return false
		}
	}
	return true
}

// run drives the schedule to its end within maxSteps actions: the job
// either finishes with every partition accepted, or fails with an error a
// schedule may legitimately cause. A scheduled restart replays the journal
// into a fresh coordinator and carries on.
func (s *simSchedule) run(maxSteps int) error {
	s.t.Helper()
	var buf []simAction
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			s.fatalf("no outcome after %d steps (phase %d)", maxSteps, s.c.phase)
		}
		if s.c.phase == phaseDone {
			var rc *restartCrash
			switch {
			case s.c.err == nil:
				if s.c.st.doneCount != s.o.Job.Partitions {
					s.fatalf("job ended with %d/%d partitions accepted", s.c.st.doneCount, s.o.Job.Partitions)
				}
				return nil
			case errors.As(s.c.err, &rc):
				s.restart(rc.fired)
				continue
			}
			return s.allowed(s.c.err)
		}
		if s.chaos() {
			continue
		}
		buf = s.actions(buf)
		if len(buf) == 0 {
			if s.c.phase != phaseForm {
				s.fatalf("stuck: nothing can happen and the job is not over (phase %d)", s.c.phase)
			}
			s.step(cevent{w: evTimeout})
			continue
		}
		s.do(buf[s.rng.Intn(len(buf))])
	}
}

// allowed returns err if a schedule may end in it, and fails the test
// otherwise.
func (s *simSchedule) allowed(err error) error {
	s.t.Helper()
	msg := err.Error()
	switch {
	case strings.Contains(msg, "all workers dead or leaving"),
		strings.Contains(msg, "attempts"):
		return err
	case strings.Contains(msg, "forming the cluster"):
		// A resumed coordinator waits for every journaled-live worker. One
		// that died before its death was journaled never rejoins, and
		// neither does one the crash cut off before it read its job-start:
		// it redials as a fresh joiner.
		for id := range s.c.need {
			if w := s.byID(id); w == nil || w.dead || w.exited {
				return err
			}
		}
	}
	s.fatalf("job failed: %v", err)
	return nil
}

// chaos spends the unsolicited-event budget at random moments: a kill, a
// join, a coordinator crash, or a duplicate of a report already sent.
func (s *simSchedule) chaos() bool {
	if s.c.phase == phaseForm || s.rng.Intn(40) != 0 {
		return false
	}
	switch s.rng.Intn(4) {
	case 0:
		if s.chaosKills > 0 {
			if w := s.workers[s.rng.Intn(len(s.workers))]; w.welcomed && !w.dead && !w.exited {
				s.chaosKills--
				s.kill(w)
				return true
			}
		}
	case 1:
		if s.chaosJoins > 0 {
			s.chaosJoins--
			s.addWorker()
			return true
		}
	case 2:
		if s.chaosCrashes > 0 {
			s.chaosCrashes--
			s.restart(s.c.eventIdx)
			return true
		}
	case 3:
		if w := s.workers[s.rng.Intn(len(s.workers))]; s.chaosDups > 0 && len(w.reports) > 0 && !w.dead {
			s.chaosDups--
			s.report(w, w.reports[s.rng.Intn(len(w.reports))])
			return true
		}
	}
	return false
}

// restart crashes the coordinator: every link it had is gone, each worker
// keeps a random prefix of what was sent to it, and a fresh coordinator
// resumes from the journal with the elastic events already fired sliced
// off.
func (s *simSchedule) restart(fired int) {
	s.gen++
	for _, w := range s.workers {
		if l := w.link; l != nil {
			s.closeLink(l)
			l.id = -1 // its reader died with the coordinator
			l.in = l.in[:s.rng.Intn(len(l.in)+1)]
		}
	}
	st, err := replayJournal(s.mem.Bytes())
	if err == nil {
		err = st.validateResume(&s.o)
	}
	if err != nil {
		s.fatalf("resume: %v", err)
	}
	s.o.Elastic = s.o.Elastic[min(fired, len(s.o.Elastic)):]
	s.o.Resume = true
	s.c = newCoord(s.o, s.led, s.hooks(), st, &journal{f: s.mem})
	s.checkReplay()
	s.crashed, _ = replayJournal(s.mem.Bytes())
	if s.onRestart != nil {
		s.onRestart()
	}
}

func (s *simSchedule) kill(w *simWorker) {
	w.dead = true
	w.parts, w.queue = nil, nil
	keep := s.handoffs[:0]
	for _, h := range s.handoffs {
		if h.from != w {
			keep = append(keep, h)
		}
	}
	s.handoffs = keep
	l := w.link
	l.workerClosed = true
	l.in = nil
	l.out = l.out[:s.rng.Intn(len(l.out)+1)] // the rest was never written
}

func (s *simSchedule) do(a simAction) {
	switch a.kind {
	case actCoord:
		l := a.link
		switch {
		case !l.admitted:
			f := l.out[0]
			l.out, l.admitted = l.out[1:], true
			s.step(cevent{w: evAdmit, typ: f.typ, payload: f.payload, cc: l.cc})
		case len(l.out) > 0:
			f := l.out[0]
			l.out = l.out[1:]
			s.step(cevent{w: l.id, typ: f.typ, payload: f.payload})
		default:
			l.eof = true
			s.step(cevent{w: l.id, err: io.EOF})
		}
	case actWorker:
		w := a.w
		f := w.link.in[0]
		w.link.in = w.link.in[1:]
		s.apply(w, f)
	case actExec:
		s.exec(a.w)
	case actHandoff:
		h := s.handoffs[a.i]
		s.handoffs = append(s.handoffs[:a.i], s.handoffs[a.i+1:]...)
		to := s.byID(h.to)
		if to.dead || to.exited {
			return
		}
		if h.epoch >= to.epoch { // the store's epoch fence
			for t, ok := range h.tasks {
				if ok {
					to.commit(h.p, t, len(s.o.Blocks))
				}
			}
		}
		s.report(to, frame{typ: mHandoffDone, payload: encode(&handoffDoneMsg{Epoch: h.epoch, Partition: h.p})})
	case actKill:
		id := s.kills[a.i]
		s.kills = append(s.kills[:a.i], s.kills[a.i+1:]...)
		if w := s.byID(id); w != nil && !w.dead && !w.exited {
			s.kill(w)
		}
	case actRedial:
		w := a.w
		if w.welcomed {
			s.dial(w, frame{typ: mRejoin, payload: encode(&rejoinMsg{WorkerID: w.id, ListenAddr: w.addr, Epoch: w.epoch})})
		} else {
			s.dial(w, frame{typ: mJoin, payload: encode(&helloMsg{ListenAddr: w.addr})})
		}
	}
}

func (w *simWorker) commit(p, task, tasks int) {
	if w.parts[p] == nil {
		w.parts[p] = make([]bool, tasks)
	}
	w.parts[p][task] = true
}

// apply is the fake worker's handling of one coordinator frame.
func (s *simSchedule) apply(w *simWorker, f frame) {
	switch f.typ {
	case mWelcome:
		var m welcomeMsg
		decode(f.payload, &m)
		w.id = m.WorkerID
	case mJobStart:
		var m jobStartMsg
		decode(f.payload, &m)
		w.welcomed, w.epoch, w.homes = true, m.Epoch, m.Homes
		w.alive = make([]bool, len(m.Peers))
		for i, a := range m.Peers {
			w.alive[i] = a != ""
		}
		w.settled = make([]bool, len(m.Homes))
		w.parts = make([][]bool, len(m.Homes))
		if m.Live {
			s.report(w, frame{typ: mJoinReady})
		}
	case mMapTask:
		var m mapTaskMsg
		decode(f.payload, &m)
		w.queue = append(w.queue, execItem{mapTask: m})
	case mReduceTask:
		var m reduceTaskMsg
		decode(f.payload, &m)
		w.queue = append(w.queue, execItem{reduce: true, redTask: m})
	case mMembership:
		var m membershipMsg
		decode(f.payload, &m)
		if m.Epoch < w.epoch || len(m.Homes) != len(w.homes) {
			return
		}
		w.alive, w.settled, w.epoch = m.Alive, m.Settled, m.Epoch
		prev := w.homes
		w.homes = m.Homes
		for p := range m.Homes {
			if prev[p] == w.id && m.Homes[p] != w.id {
				s.handoffs = append(s.handoffs, simHandoff{from: w, to: m.Homes[p], p: p, epoch: m.Epoch, tasks: w.parts[p]})
				w.parts[p] = nil
			}
		}
	case mDrained, mJobEnd:
		w.exited = true
		w.queue = nil
		w.link.workerClosed = true
	}
}

// exec finishes the task at the head of w's queue.
func (s *simSchedule) exec(w *simWorker) {
	it := w.queue[0]
	w.queue = w.queue[1:]
	if it.reduce {
		p := it.redTask.Partition
		var pairs []kv.Pair
		for t, ok := range w.parts[p] {
			if ok {
				pairs = append(pairs, kv.Pair{Key: binary.BigEndian.AppendUint16(nil, uint16(t))})
			}
		}
		s.report(w, frame{typ: mReduceDone, payload: encode(&reduceDoneMsg{
			Partition: p, Attempt: it.redTask.Attempt, RecordsIn: int64(len(pairs)), GroupsIn: int64(len(pairs)),
			Output: kv.Marshal(pairs),
		})})
		return
	}
	m := it.mapTask
	if s.rng.Intn(100) < s.faultPct {
		s.report(w, frame{typ: mMapFailed, payload: encode(&taskFailMsg{Task: m.Task, Attempt: m.Attempt, Reason: "injected"})})
		return
	}
	for p, h := range w.homes {
		home := s.byID(h)
		if w.settled[p] || h >= len(w.alive) || !w.alive[h] || home == nil || home.dead || home.exited ||
			w.epoch < home.epoch {
			continue // settled, dead to the mapper, or fenced by the home's store
		}
		home.commit(p, m.Task, len(s.o.Blocks))
	}
	s.report(w, frame{typ: mMapDone, payload: encode(&mapDoneMsg{Task: m.Task, Attempt: m.Attempt,
		Stats: attemptStats{RecordsIn: 1, PairsOut: 1}})})
}

// coordSeeds is how many seeded schedules TestCoordSchedules runs; each
// is its own subtest, so `-run 'TestCoordSchedules/seed=N'` replays one.
const coordSeeds = 3000

// TestCoordSchedules drives the coordinator through coordSeeds seeded
// schedules mixing stale and duplicate reports, map failures up to
// MaxAttempts, deaths in both phases, unsolicited and scheduled joins,
// drains, kills and coordinator restarts, checking its invariants after
// every step.
func TestCoordSchedules(t *testing.T) {
	for seed := int64(0); seed < coordSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			newSimSchedule(t, seed).run(simMaxSteps)
		})
	}
}

// FuzzCoordSchedules runs the checker on seeds beyond the fixed range
// TestCoordSchedules covers.
func FuzzCoordSchedules(f *testing.F) {
	f.Add(int64(coordSeeds))
	f.Fuzz(func(t *testing.T, seed int64) {
		newSimSchedule(t, seed).run(simMaxSteps)
	})
}

// TestCoordSchedulesDeterministic pins the property that makes a failing
// seed worth printing: running a seed twice produces the same effects.
func TestCoordSchedulesDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := newSimSchedule(t, seed), newSimSchedule(t, seed)
		a.run(simMaxSteps)
		b.run(simMaxSteps)
		if !reflect.DeepEqual(a.log, b.log) {
			t.Fatalf("seed %d: two runs produced different effect logs", seed)
		}
	}
}

// describe renders a frame's payload for the effect log.
func describe(f frame) string {
	var m payload
	switch f.typ {
	case mMapTask:
		m = new(mapTaskMsg)
	case mReduceTask:
		m = new(reduceTaskMsg)
	case mMembership:
		m = new(membershipMsg)
	case mWelcome:
		m = new(welcomeMsg)
	default:
		return fmt.Sprintf("%x", f.payload)
	}
	decode(f.payload, m)
	if mt, ok := m.(*mapTaskMsg); ok {
		mt.Block = nil
	}
	return fmt.Sprintf("%+v", m)
}

// beforeFirstDeath is the journaled state just before the record that
// announced the schedule's first death, or nil if no worker died.
func beforeFirstDeath(t *testing.T, s *simSchedule) *jobState {
	t.Helper()
	recs, err := journalRecords(s.mem.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	st := new(jobState)
	for _, r := range recs {
		if m, ok := r.(*membershipRecord); ok && m.Lost > st.Lost {
			return st
		}
		if err := st.apply(r); err != nil {
			t.Fatal(err)
		}
	}
	return nil
}

// owned is how many partitions worker id is home to.
func owned(s *simSchedule, id int) int {
	n := 0
	for _, h := range s.c.st.Homes {
		if h == id {
			n++
		}
	}
	return n
}

// TestRecoveryMatrix is DESIGN.md's recovery matrix as a table over step:
// a join, a drain, a death and a coordinator crash, each during the map
// phase and during the reduce phase of a 3-worker, 8-task, 4-partition job,
// each run under 20 seeded schedules that must all finish with every
// output complete (the checker's invariants hold throughout) and end in
// the outcome the matrix's cell states. check reports whether a schedule
// reached the cell's situation; every cell must be reached at least once.
func TestRecoveryMatrix(t *testing.T) {
	const workers, tasks, parts = 3, 8, 4
	for _, tc := range []struct {
		name, spec string
		check      func(t *testing.T, s *simSchedule) bool
	}{
		{"join/map", "join@1", func(t *testing.T, s *simSchedule) bool {
			// Admitted, meshed, then handed ⌊P/live⌋ partitions.
			if s.c.st.Joined != 1 || owned(s, workers) != parts/(workers+1) {
				t.Fatalf("joined %d, joiner owns %d partitions", s.c.st.Joined, owned(s, workers))
			}
			return true
		}},
		{"join/reduce", "join@r1", func(t *testing.T, s *simSchedule) bool {
			// Admitted and meshed, then idles: no task, no partition.
			for _, x := range s.sent {
				if x.w >= workers {
					t.Fatalf("reduce-phase joiner %d was sent %s", x.w, typeName(x.typ))
				}
			}
			if s.c.st.Joined != 0 || owned(s, workers) != 0 {
				t.Fatalf("joined %d, joiner owns %d partitions", s.c.st.Joined, owned(s, workers))
			}
			return len(s.c.ws) > workers
		}},
		{"drain/map", "drain:0@1", func(t *testing.T, s *simSchedule) bool {
			// Every partition moves off the target, which is released.
			if s.c.st.Drained != 1 || s.c.st.Lost != 0 || owned(s, 0) != 0 || s.c.ws[0].state != wDrained {
				t.Fatalf("drained %d, lost %d, target owns %d, state %d",
					s.c.st.Drained, s.c.st.Lost, owned(s, 0), s.c.ws[0].state)
			}
			return true
		}},
		{"drain/reduce", "drain:0@r1", func(t *testing.T, s *simSchedule) bool {
			// Deferred: transitions advance only in the map phase.
			if s.c.st.Drained != 0 || s.c.st.Epoch != 0 || owned(s, 0) == 0 {
				t.Fatalf("drained %d at epoch %d, target owns %d", s.c.st.Drained, s.c.st.Epoch, owned(s, 0))
			}
			return true
		}},
		{"death/map", "kill:1@2", func(t *testing.T, s *simSchedule) bool {
			// The dead worker's partitions re-home, and every task resolved
			// before the death re-executes under a bumped attempt.
			before := beforeFirstDeath(t, s)
			if s.c.st.Lost != 1 || owned(s, 1) != 0 || before == nil {
				t.Fatalf("lost %d, dead worker owns %d", s.c.st.Lost, owned(s, 1))
			}
			for task, r := range before.resolved {
				if r && s.c.st.Attempt[task] <= before.Attempt[task] {
					t.Fatalf("task %d resolved at attempt %d before the death, still at %d",
						task, before.Attempt[task], s.c.st.Attempt[task])
				}
			}
			return true
		}},
		{"death/reduce", "kill:1@r1", func(t *testing.T, s *simSchedule) bool {
			// The wave is cancelled: every partition not yet accepted runs
			// again under a bumped reduce attempt; accepted outputs are final.
			before := beforeFirstDeath(t, s)
			if before == nil || before.doneCount == parts {
				return false // every output was accepted before the death landed
			}
			for p, done := range before.done {
				if want := map[bool]int{true: 0, false: 1}[done]; s.c.reduceAttempt[p] != want {
					t.Fatalf("partition %d (accepted %v) ends at reduce attempt %d", p, done, s.c.reduceAttempt[p])
				}
			}
			for _, x := range s.sent {
				if x.typ == mReduceTask && x.done {
					t.Fatalf("accepted partition %d re-dispatched", x.task)
				}
			}
			return true
		}},
		{"crash/map", "restart@3", func(t *testing.T, s *simSchedule) bool {
			// The resumed coordinator re-dispatches only unresolved tasks.
			for _, x := range s.sent {
				if x.gen > 0 && x.typ == mMapTask && s.crashed.resolved[x.task] {
					t.Fatalf("task %d resolved before the crash was dispatched again", x.task)
				}
			}
			return s.gen == 1
		}},
		{"crash/reduce", "restart@r1", func(t *testing.T, s *simSchedule) bool {
			// Journaled outputs are kept; only the missing partitions re-run.
			rerun := make([]bool, parts)
			for _, x := range s.sent {
				if x.gen > 0 && x.typ == mReduceTask {
					rerun[x.task] = true
				}
			}
			for p, done := range s.crashed.done {
				if rerun[p] == done {
					t.Fatalf("partition %d: accepted before the crash %v, re-run %v", p, done, rerun[p])
				}
			}
			return s.gen == 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evs, err := ParseElastic(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			reached := 0
			for seed := int64(0); seed < 20; seed++ {
				o := simOptions(workers, tasks, parts)
				o.Elastic = evs
				s := startSim(t, seed, o)
				if err := s.run(simMaxSteps); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if tc.check(t, s) {
					reached++
				}
			}
			if reached == 0 {
				t.Fatal("no schedule reached the cell")
			}
		})
	}
}

// TestHostileRejoinTurnedAway sends a resuming coordinator rejoin frames
// whose worker ids no cluster could have: each is turned away before it
// sizes anything, and the job still completes.
func TestHostileRejoinTurnedAway(t *testing.T) {
	for _, id := range []int{1 << 40, maxWorkers, -1} {
		o := simOptions(3, 8, 4)
		o.Elastic = []ElasticEvent{{Kind: "restart", AfterMapDone: 2}}
		s := startSim(t, 1, o)
		var hostile *simLink
		s.onRestart = func() {
			hostile = s.dial(&simWorker{id: -1, addr: "hostile"}, frame{})
			s.step(cevent{w: evAdmit, typ: mRejoin, cc: hostile.cc,
				payload: encode(&rejoinMsg{WorkerID: id, ListenAddr: "hostile", Epoch: 0})})
		}
		if err := s.run(simMaxSteps); err != nil {
			t.Fatalf("id %d: %v", id, err)
		}
		if hostile == nil || !hostile.coordClosed {
			t.Fatalf("id %d: rejoin not turned away", id)
		}
		if len(s.c.ws) != 3 || len(s.c.st.Alive) != 3 {
			t.Fatalf("id %d: membership grew to %d workers (journal %d)", id, len(s.c.ws), len(s.c.st.Alive))
		}
	}
}
