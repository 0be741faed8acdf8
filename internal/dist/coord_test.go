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
	"slices"
	"strings"
	"testing"

	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// The schedule checker drives coord.step and the real worker's
// wstate.step against a fake cluster: no sockets, no goroutines, no
// RunLoopback. Every source of nondeterminism a real cluster has — which
// link delivers next, when a task finishes, when a peer's hello lands, when
// a worker dies or joins, when the coordinator crashes — is a choice drawn
// from one seeded generator, so a seed is a schedule and replays exactly.
// After every step the checker asserts the coordinator's invariants
// (simSchedule.check) or the stepped worker's (checkWorker); a schedule
// that completes must balance both ledgers exactly (checkLedgers).
//
// Each worker is a wstate with a real shuffleStore; only its shell is
// fake, and it performs effects the way worker.do does. Fake links carry
// every frame a worker sends — run batches, marks, acks, handoffs and
// handoff marks, framed by the real shipment.stream — FIFO per direction,
// each delivery its own step. They book the wire ledger where the real
// transport does: sent when a frame is queued (shipment.stream), lost when
// a seal or close drops it from the queue (conn.seal). Fake executors build
// each map attempt's runs directly — one pair per partition, keyed by the
// task — and reduce by draining the store's real iterators. Block-store
// jobs ingest every pushed replica into the worker's fake disk and step its
// arrival; a Ref task that may not read its own replica fetches it through
// the step, over the fake links, from a holder that answers from its disk.

// memFile is an in-memory journal file.
type memFile struct{ bytes.Buffer }

func (*memFile) Sync() error  { return nil }
func (*memFile) Close() error { return nil }

type simWorker struct {
	id       int // coordinator id; -1 until welcomed
	addr     string
	link     *simLink // its current coordinator link
	st       *wstate
	welcomed bool // stepped its job-start
	dead     bool // killed: its store is lost
	spawned  bool // launched by the loopback spawn hook
	exited   bool // its coordinator loop ended and its mesh is torn down
	links    map[int]*simConn
	queue    []execItem
	reports  []frame // every map-done and reduce-done sent, for duplicates
	barrier  map[attemptKey][]int
	acked    map[attemptKey]map[int]bool
	disk     map[int][]byte // ingested block replicas
	fetch    *simFetch      // the executor's block fetch in flight
}

// simFetch is the executor waiting on a block fetch: done once the step
// resolves it, with err if it failed.
type simFetch struct {
	done bool
	err  error
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

// simConn is one peer connection: end[0] dialed end[1]; dir[i] carries
// end[i]'s frames to the other end.
type simConn struct {
	addr    string // the address end[0] dialed
	end     [2]*simWorker
	peer    [2]int  // the id each end knows the other by
	reading [2]bool // each end's reader runs
	dir     [2]simDir
}

type simDir struct {
	q      []frame
	sealed bool // its writer sealed or closed it: EOF once q drains
	dead   bool // its reader closed: a frame sent now is lost
	eof    bool // EOF delivered
}

func (c *simConn) side(w *simWorker) int {
	if c.end[0] == w {
		return 0
	}
	return 1
}

type simDial struct {
	from  *simWorker
	peer  int
	addr  string
	retry bool // dialed again after a failure: see canLink
}

// simReply is the end of a dial: the acceptor's hello coming back, or the
// link closing without one.
type simReply struct {
	c  *simConn
	ok bool
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
	conns    []*simConn
	dials    []simDial
	accepts  []*simConn
	replies  []simReply
	pending  *simConn // the link a worker's link-up step is about
	retrying bool     // the worker step being performed is a failed dial's
	kills    []int    // fired kill hooks not yet carried out
	joiners  int      // joiners the spawn hook launched (the runner's count)
	faultPct int      // chance a map attempt fails, in percent
	remote   int      // map inputs read from another worker's replica

	// chaos budget: unsolicited kills, joins, crashes and duplicate reports.
	chaosKills, chaosJoins, chaosCrashes, chaosDups int

	shadow  *jobState // the journal replayed so far
	read    int       // journal bytes shadow has applied
	checked []bool    // partitions whose accepted output has been checked

	gen  int           // coordinator generation: bumps at every restart
	log  []simLogEntry // every effect every step queued
	sent []simSent

	crashed   *jobState // the journal's state at the last restart
	onRestart func()    // called once a resumed coordinator is built
}

// simLogEntry is one effect: a coordinator's, rendered, or a worker's.
type simLogEntry struct {
	coord         string
	gen, w, op, j int
	typ           byte
}

func (e simLogEntry) String() string {
	if e.coord != "" {
		return e.coord
	}
	return fmt.Sprintf("g%d worker %d fx%d peer %d %s", e.gen, e.w, e.op, e.j, typeName(e.typ))
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
	switch rng.Intn(4) {
	case 0:
		o.Blockstore = "local"
	case 1:
		o.Blockstore = "remote"
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
		exited: func() (ids []int) {
			for _, w := range s.workers {
				if w.spawned && w.exited {
					id := -1 // the runner learns the id at job start
					if w.welcomed {
						id = w.id
					}
					ids = append(ids, id)
				}
			}
			return ids
		},
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
	addr := fmt.Sprintf("w%d", len(s.workers))
	w := &simWorker{id: -1, addr: addr, st: newWState(addr, newShuffleStore(), s.led),
		links: make(map[int]*simConn), barrier: make(map[attemptKey][]int), acked: make(map[attemptKey]map[int]bool),
		disk: make(map[int][]byte)}
	s.workers = append(s.workers, w)
	s.dial(w, newFrame(mJoin, &helloMsg{ListenAddr: w.addr}))
	return w
}

// dial opens a new coordinator link for w whose first frame is first, and
// steps it in as the worker's link.
func (s *simSchedule) dial(w *simWorker, first frame) *simLink {
	l := &simLink{w: w, cc: new(conn), out: []frame{first}, id: -1}
	s.links[l.cc] = l
	w.link = l
	if w.st != nil {
		s.wstep(w, wevent{kind: weCoordUp})
	}
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
	if f.typ() == mMapDone || f.typ() == mReduceDone {
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
			if e.f.typ() != 0 && !l.coordClosed {
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
			s.addWorker().spawned = true
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
	s.log = append(s.log, simLogEntry{coord: fmt.Sprintf("g%d op%d w%d %s %s %s", s.gen, e.op, e.w, who, typeName(e.f.typ()), describe(e.f))})
	switch e.f.typ() {
	case mMapTask:
		var m mapTaskMsg
		decode(e.f.payload(), &m)
		s.sent = append(s.sent, simSent{gen: s.gen, w: e.w, typ: mMapTask, task: m.Task})
	case mReduceTask:
		var m reduceTaskMsg
		decode(e.f.payload(), &m)
		s.sent = append(s.sent, simSent{gen: s.gen, w: e.w, typ: mReduceTask, task: m.Partition,
			done: s.c.st.done[m.Partition]})
	}
}

// wstep hands worker w one event, performs the effects it returns as
// worker.do would, and checks the worker's invariants. An effect that ends
// the worker's coordinator loop tears its mesh down, as runWorker does.
func (s *simSchedule) wstep(w *simWorker, ev wevent) []weffect {
	s.t.Helper()
	defer func() {
		if r := recover(); r != nil {
			s.fatalf("worker %d step panicked: %v", w.id, r)
		}
	}()
	pre := s.snapshot(w)
	fx := w.st.step(ev)
	s.retrying = ev.kind == weDialFailed
	for _, e := range fx {
		s.log = append(s.log, simLogEntry{gen: s.gen, w: w.id, op: e.op, j: e.peer, typ: e.f.typ()})
		s.perform(w, e)
	}
	s.checkWorker(w, ev, pre, fx)
	if !w.exited && slices.ContainsFunc(fx, func(e weffect) bool { return e.op == wfxExit }) {
		s.exit(w)
	}
	return fx
}

// perform carries out one worker effect on the fake cluster.
func (s *simSchedule) perform(w *simWorker, e weffect) {
	switch e.op {
	case wfxSend:
		if e.peer == coordPeer {
			s.report(w, e.f)
		} else {
			s.send(w, e.peer, e.f)
		}
	case wfxFetched:
		if f := w.fetch; f != nil {
			f.done, f.err = true, e.err
		}
	case wfxServe:
		data, ok := w.disk[e.block]
		s.send(w, e.peer, newFrame(mBlockData, &blockDataMsg{ID: e.block, Nonce: e.nonce, OK: ok, Data: data}))
	case wfxShip:
		e.sh.stream(s.led, obs.NewTracer(w.id, nil), 0, func(f frame) { s.send(w, e.peer, f) })
	case wfxSeal:
		if e.peer != coordPeer {
			s.seal(w, w.links[e.peer], true)
		} else if l := w.link; l != nil {
			l.workerClosed = true
			l.out = l.out[:s.rng.Intn(len(l.out)+1)] // the rest was never written
		}
	case wfxFinish:
		s.seal(w, w.links[e.peer], false)
	case wfxDial:
		s.dials = append(s.dials, simDial{from: w, peer: e.peer, addr: e.addr, retry: s.retrying})
	case wfxTimer:
		// No deadline passes here: a schedule that would need one to move
		// on is reported stuck.
	case wfxExec:
		w.queue = append(w.queue, e.task)
	case wfxAccept:
		if c := s.pending; e.peer != coordPeer {
			i := c.side(w)
			c.reading[i], c.peer[i] = true, e.peer
			w.links[e.peer] = c
		}
	case wfxRefuse:
		if c := s.pending; c != nil {
			s.closeEnd(w, c)
		} else {
			w.link.workerClosed = true
		}
	}
}

// send queues f on w's link to peer j; a sealed link, or one whose reader
// closed, loses it.
func (s *simSchedule) send(w *simWorker, j int, f frame) {
	c := w.links[j]
	d := &c.dir[c.side(w)]
	if d.sealed || d.dead {
		if f.bulk {
			s.led.dropped(f)
		}
		return
	}
	d.q = append(d.q, f)
}

// seal closes w's sending side of c. A seal drops what the pump had not
// written — a random suffix of the queue, booked lost; a finish flushes
// first and drops nothing.
func (s *simSchedule) seal(w *simWorker, c *simConn, drop bool) {
	d := &c.dir[c.side(w)]
	if d.sealed {
		return
	}
	d.sealed = true
	if drop {
		keep := s.rng.Intn(len(d.q) + 1)
		for _, f := range d.q[keep:] {
			if f.bulk {
				s.led.dropped(f)
			}
		}
		d.q = d.q[:keep]
	}
}

// closeEnd closes w's end of c both ways: its sends seal, its reader stops,
// and what the other end still sends is lost.
func (s *simSchedule) closeEnd(w *simWorker, c *simConn) {
	i := c.side(w)
	s.seal(w, c, true)
	c.reading[i] = false
	in := &c.dir[1-i]
	in.dead = true
	for _, f := range in.q {
		if f.bulk {
			s.led.dropped(f)
		}
	}
	in.q = nil
}

// exit ends w's coordinator loop: its executor stops, its coordinator link
// closes and its mesh seals, as runWorker's teardown does.
func (s *simSchedule) exit(w *simWorker) {
	w.exited = true
	w.queue, w.fetch = nil, nil
	if w.link != nil {
		w.link.workerClosed = true
	}
	s.wstep(w, wevent{kind: weEnd})
	if w.spawned && s.c.phase != phaseDone {
		s.step(cevent{w: evExit}) // the runner wakes the loop
	}
}

// workerSnap is what checkWorker compares across one worker step.
type workerSnap struct {
	staged, have []int
	recv         int64
	alive        []bool
}

func (s *simSchedule) snapshot(w *simWorker) workerSnap {
	st := w.st.store
	sn := workerSnap{staged: make([]int, s.o.Job.Partitions), have: make([]int, s.o.Job.Partitions),
		recv: s.led.netRecordsRecv.Value(), alive: slices.Clone(w.st.alive)}
	for _, m := range st.staged {
		for p := range m {
			sn.staged[p]++
		}
	}
	for _, ps := range st.have {
		for p := range ps {
			sn.have[p]++
		}
	}
	return sn
}

// checkWorker asserts the worker invariants across one step: nothing is
// staged or committed for a partition the worker knows settled, no block
// read waits on what cannot answer it, a killed worker books nothing
// received, and a map-done goes out only once every peer in the attempt's
// barrier has acked or been announced dead.
func (s *simSchedule) checkWorker(w *simWorker, ev wevent, pre workerSnap, fx []weffect) {
	s.t.Helper()
	post := s.snapshot(w)
	for p := range post.staged {
		if !w.st.isSettled(p) {
			continue
		}
		if post.staged[p] > pre.staged[p] || post.have[p] > pre.have[p] && !(ev.kind == weFrame && ev.typ == mHandoffMark) {
			s.fatalf("worker %d staged or committed a run for settled partition %d", w.id, p)
		}
	}
	// A fetch waits only on a holder that can still answer it or whose
	// link's end or death will fail it over; a held request only while its
	// block may still arrive and its requester is linked.
	if f := w.st.fetching; f != nil && (!w.st.isLinked(f.holder) || !w.st.alive[f.holder]) {
		s.fatalf("worker %d waits on block %d from worker %d, unlinked or dead", w.id, f.block, f.holder)
	}
	for _, r := range w.st.serving {
		if w.st.ingested[r.block] || w.st.ingestOver || !w.st.isLinked(r.peer) {
			s.fatalf("worker %d holds worker %d's fetch of block %d, which it could answer or drop", w.id, r.peer, r.block)
		}
	}
	if w.st.killed && ev.kind != weKill && post.recv != pre.recv {
		s.fatalf("killed worker %d booked %d records received", w.id, post.recv-pre.recv)
	}
	switch {
	case ev.kind == weBuilt:
		k := attemptKey{ev.built.task, ev.built.attempt}
		w.barrier[k], w.acked[k] = nil, make(map[int]bool)
		for j, a := range pre.alive {
			if a && j != w.st.id {
				w.barrier[k] = append(w.barrier[k], j)
			}
		}
	case ev.kind == weFrame && ev.typ == mAck:
		var m markMsg
		decode(ev.p, &m)
		if a := w.acked[attemptKey{m.Task, m.Attempt}]; a != nil {
			a[ev.peer] = true
		}
	}
	for _, e := range fx {
		if e.op != wfxSend || e.peer != coordPeer || e.f.typ() != mMapDone {
			continue
		}
		var m mapDoneMsg
		decode(e.f.payload(), &m)
		k := attemptKey{m.Task, m.Attempt}
		for _, j := range w.barrier[k] {
			if !w.acked[k][j] && j < len(w.st.alive) && w.st.alive[j] {
				s.fatalf("worker %d reported task %d attempt %d done with peer %d neither acked nor dead", w.id, m.Task, m.Attempt, j)
			}
		}
	}
}

// checkLedgers asserts a completed schedule's conservation ledgers, once
// every link has drained: every record sent was received or lost, and
// every record a winning reduce read was accepted by a store and not lost
// with it, or was lost only after a final reduce had settled it.
func (s *simSchedule) checkLedgers() {
	s.t.Helper()
	l := s.led
	if sent, recv, lost := l.netRecordsSent.Value(), l.netRecordsRecv.Value(), l.netRecordsLost.Value(); sent != recv+lost {
		s.fatalf("wire ledger: %d records sent, %d received + %d lost", sent, recv, lost)
	}
	if sent, recv, lost := l.netBytesSent.Value(), l.netBytesRecv.Value(), l.netBytesLost.Value(); sent != recv+lost {
		s.fatalf("wire ledger: %d bytes sent, %d received + %d lost", sent, recv, lost)
	}
	for _, w := range s.workers {
		if w.dead && w.id < len(s.c.ws) && s.c.ws[w.id].alive {
			// A crash the coordinator never saw before the job ended: the
			// store booked its loss, but no one could book what of it a
			// final reduce had already settled.
			return
		}
	}
	in, acc, lost, settled := l.ReduceRecordsIn.Value(), l.StoreAccepted.Value(), l.StoreLost.Value(), l.storeSettled.Value()
	if in != acc-lost+settled {
		s.fatalf("store ledger: reduce read %d records, accepted %d - lost %d + settled %d = %d", in, acc, lost, settled, acc-lost+settled)
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
		case e.f.typ() == mMapTask:
			cw := c.ws[e.w]
			if !cw.alive || cw.state != wActive {
				s.fatalf("map task sent to worker %d (alive %v, state %d)", e.w, cw.alive, cw.state)
			}
			if c.activeT != nil || len(c.queuedT) > 0 {
				s.fatalf("map task sent to worker %d while a transition is queued", e.w)
			}
		case e.f.typ() == mReduceTask:
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
		for _, pr := range st.reduced[p].Pairs {
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
// The longest of the default seeds takes 630.
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
	c    *simConn
	i    int
}

const (
	actCoord   = iota // the coordinator reads the next event off a link
	actWorker         // a worker steps its next frame from the coordinator
	actExec           // a worker's executor finishes the task at the head of its queue
	actKill           // a fired kill hook murders its victim
	actRedial         // a worker whose coordinator link closed dials again
	actDial           // a worker's dial reaches its peer's listener, or fails
	actAccept         // a peer's acceptor reads a dialer's hello
	actReply          // a dialer reads the acceptor's hello back, or the link's end
	actDeliver        // a peer link delivers its next frame to its reader
	actEOF            // a reader reaches the end of a sealed peer link
)

// actions lists what can happen next, in a deterministic order. Once the
// coordinator is done only the workers move: they drain their links.
func (s *simSchedule) actions(buf []simAction) []simAction {
	buf = buf[:0]
	done := s.c.phase == phaseDone
	for _, w := range s.workers {
		if l := w.link; l != nil && !done {
			// Admission and reads from every live link, and the lost-link
			// event once a closed link's frames are read.
			switch {
			case !l.admitted && len(l.out) > 0 && !l.coordClosed:
				buf = append(buf, simAction{kind: actCoord, link: l})
			case l.id >= 0 && (len(l.out) > 0 || (l.workerClosed || l.coordClosed) && !l.eof):
				buf = append(buf, simAction{kind: actCoord, link: l})
			}
		}
		if w.exited {
			continue
		}
		if len(w.link.in) > 0 {
			buf = append(buf, simAction{kind: actWorker, w: w})
		} else if w.link.coordClosed {
			buf = append(buf, simAction{kind: actRedial, w: w})
		}
		if len(w.queue) > 0 && (w.fetch == nil || w.fetch.done) {
			buf = append(buf, simAction{kind: actExec, w: w})
		}
	}
	for i, d := range s.dials {
		if !d.retry || s.canLink(d) {
			buf = append(buf, simAction{kind: actDial, i: i})
		}
	}
	for i := range s.accepts {
		buf = append(buf, simAction{kind: actAccept, i: i})
	}
	for i := range s.replies {
		buf = append(buf, simAction{kind: actReply, i: i})
	}
	for _, c := range s.conns {
		for i := range c.dir {
			if d := &c.dir[i]; c.reading[1-i] && len(d.q) > 0 {
				buf = append(buf, simAction{kind: actDeliver, c: c, i: i})
			} else if c.reading[1-i] && d.sealed && !d.eof {
				buf = append(buf, simAction{kind: actEOF, c: c, i: i})
			}
		}
	}
	for i, id := range s.kills {
		if s.byID(id) != nil && !done {
			// Like the loopback kill hook, a kill lands once its victim has
			// been welcomed.
			buf = append(buf, simAction{kind: actKill, i: i})
		}
	}
	return buf
}

// canLink reports whether a retried dial would link now. A real dialer
// retries on a clock; here a retry is offered only once it can succeed, so
// a dialer retrying a peer that will never answer does not spin the
// schedule forever, and a schedule with nothing else left is stuck.
func (s *simSchedule) canLink(d simDial) bool {
	for _, to := range s.workers {
		if to.addr == d.addr && !to.exited {
			return !to.st.killed && !to.st.ended && !to.st.isLinked(d.from.st.id)
		}
	}
	return false
}

// run drives the schedule to its end within maxSteps actions: the job
// either finishes with every partition accepted, or fails with an error a
// schedule may legitimately cause. A scheduled restart replays the journal
// into a fresh coordinator and carries on. A finished job's workers then
// drain their links, and its ledgers must balance.
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
				if buf = s.actions(buf); len(buf) > 0 {
					s.do(buf[s.rng.Intn(len(buf))])
					continue
				}
				s.checkLedgers()
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

// kill murders w: its step seals its links and drops its coordinator link,
// and its coordinator loop ends.
func (s *simSchedule) kill(w *simWorker) {
	w.dead = true
	s.wstep(w, wevent{kind: weKill})
	if !w.exited {
		s.exit(w)
	}
}

func (s *simSchedule) do(a simAction) {
	switch a.kind {
	case actCoord:
		l := a.link
		switch {
		case !l.admitted:
			f := l.out[0]
			l.out, l.admitted = l.out[1:], true
			s.step(cevent{w: evAdmit, typ: f.typ(), payload: f.payload(), cc: l.cc})
		case len(l.out) > 0:
			f := l.out[0]
			l.out = l.out[1:]
			s.step(cevent{w: l.id, typ: f.typ(), payload: f.payload()})
		default:
			l.eof = true
			s.step(cevent{w: l.id, err: io.EOF})
		}
	case actWorker:
		w := a.w
		f := w.link.in[0]
		w.link.in = w.link.in[1:]
		if f.typ() == mBlockPut {
			// The shell's ingest: the put lands on disk, then its arrival is
			// stepped.
			var m blockPutMsg
			decode(f.payload(), &m)
			w.disk[m.ID] = m.Data
			s.wstep(w, wevent{kind: weIngest, block: m.ID})
			return
		}
		s.wstep(w, wevent{kind: weFrame, peer: coordPeer, typ: f.typ(), p: f.payload()})
		switch f.typ() {
		case mWelcome:
			var m welcomeMsg
			decode(f.payload(), &m)
			w.id = m.WorkerID
		case mJobStart:
			w.welcomed = true
		}
	case actExec:
		s.runTask(a.w)
	case actKill:
		id := s.kills[a.i]
		s.kills = append(s.kills[:a.i], s.kills[a.i+1:]...)
		if w := s.byID(id); w != nil && !w.exited {
			s.kill(w)
		}
	case actRedial:
		w := a.w
		for _, e := range s.wstep(w, wevent{kind: weLinkDown, peer: coordPeer}) {
			if e.op == wfxRedial {
				if s.c.phase == phaseDone {
					s.exit(w) // no coordinator to redial: the rejoin grace runs out
				} else {
					s.dial(w, e.f)
				}
			}
		}
	case actDial:
		d := s.dials[a.i]
		s.dials = append(s.dials[:a.i], s.dials[a.i+1:]...)
		var to *simWorker
		for _, w := range s.workers {
			if w.addr == d.addr && !w.exited {
				to = w
			}
		}
		if to == nil || d.from.exited {
			s.wstep(d.from, wevent{kind: weDialFailed, peer: d.peer, addr: d.addr})
			return
		}
		c := &simConn{addr: d.addr, end: [2]*simWorker{d.from, to}, peer: [2]int{d.peer, -1}}
		s.conns = append(s.conns, c)
		s.accepts = append(s.accepts, c)
	case actAccept:
		c := s.accepts[a.i]
		s.accepts = append(s.accepts[:a.i], s.accepts[a.i+1:]...)
		if to := c.end[1]; to.exited {
			s.closeEnd(to, c) // its listener is closed: the dial is reset
			s.replies = append(s.replies, simReply{c: c})
		} else {
			s.pending = c
			fx := s.wstep(to, wevent{kind: weLinkUp, peer: c.end[0].st.id, f: ctlFrame(mPeerHello)})
			s.pending = nil
			s.replies = append(s.replies, simReply{c: c, ok: slices.ContainsFunc(fx, func(e weffect) bool {
				return e.op == wfxAccept && e.f.typ() == mPeerHello
			})})
		}
	case actReply:
		r := s.replies[a.i]
		s.replies = append(s.replies[:a.i], s.replies[a.i+1:]...)
		from, j := r.c.end[0], r.c.peer[0]
		if !r.ok {
			s.closeEnd(from, r.c)
			s.wstep(from, wevent{kind: weDialFailed, peer: j, addr: r.c.addr})
			return
		}
		s.pending = r.c
		s.wstep(from, wevent{kind: weLinkUp, peer: j})
		s.pending = nil
	case actDeliver:
		c, d := a.c, &a.c.dir[a.i]
		f := d.q[0]
		d.q = d.q[1:]
		if ev, _, err := peerEvent(c.peer[1-a.i], f.typ(), f.payload()); err == nil {
			s.wstep(c.end[1-a.i], ev)
		}
	case actEOF:
		// The reader closes its end and fails over, as peerReader does.
		c, to := a.c, a.c.end[1-a.i]
		c.dir[a.i].eof = true
		s.closeEnd(to, c)
		s.wstep(to, wevent{kind: weLinkDown, peer: c.peer[1-a.i]})
	}
}

// runTask is a fake executor finishing the task at the head of w's queue.
// A map attempt emits one pair per partition, keyed by its task; a reduce
// reports the pairs the store's iterators hold for the partition.
func (s *simSchedule) runTask(w *simWorker) {
	it := w.queue[0]
	if !it.reduce {
		waiting, err := s.readBlock(w, it.mapTask)
		if waiting {
			return
		}
		if err != nil {
			w.queue = w.queue[1:]
			s.wstep(w, wevent{kind: weSend, f: newFrame(mMapFailed,
				&taskFailMsg{Task: it.mapTask.Task, Attempt: it.mapTask.Attempt, Reason: err.Error()})})
			return
		}
	}
	w.queue = w.queue[1:]
	if it.reduce {
		p := it.redTask.Partition
		for _, e := range s.wstep(w, wevent{kind: weReduce, part: p}) {
			if e.op != wfxReduce {
				continue
			}
			pairs := kv.Drain(e.iters...)
			e.closeIters()
			s.wstep(w, wevent{kind: weSend, f: newFrame(mReduceDone, &reduceOutMsg{reduceDoneMsg{
				Partition: p, Attempt: it.redTask.Attempt, RecordsIn: int64(len(pairs)), GroupsIn: int64(len(pairs)),
				Pairs: pairs,
			}})})
		}
		return
	}
	m := it.mapTask
	if s.rng.Intn(100) < s.faultPct {
		s.wstep(w, wevent{kind: weSend, f: newFrame(mMapFailed,
			&taskFailMsg{Task: m.Task, Attempt: m.Attempt, Reason: "injected"})})
		return
	}
	b := &builtMap{task: m.Task, attempt: m.Attempt, stats: attemptStats{RecordsIn: 1, PairsOut: int64(s.o.Job.Partitions)}}
	for range s.o.Job.Partitions {
		b.runs = append(b.runs, kv.NewRun([]kv.Pair{{Key: binary.BigEndian.AppendUint16(nil, uint16(m.Task))}}, false))
	}
	s.wstep(w, wevent{kind: weBuilt, built: b})
}

// readBlock resolves a map task's input as acquireBlock does: embedded
// bytes, else its own replica when a local read is allowed, else a fetch
// from another holder through the step, else — forced remote — its own
// replica. It reports whether the executor still waits on a fetch, and the
// read's error.
func (s *simSchedule) readBlock(w *simWorker, m mapTaskMsg) (waiting bool, err error) {
	_, own := w.disk[m.Task]
	switch {
	case !m.Ref || len(m.Block) > 0 || m.AllowLocal && own:
		return false, nil
	case w.fetch == nil:
		w.fetch = new(simFetch)
		s.wstep(w, wevent{kind: weFetch, fetch: &blockFetch{block: m.Task, size: m.BlockSize, holders: m.Holders}})
		return true, nil
	case !w.fetch.done:
		return true, nil
	default:
		err, w.fetch = w.fetch.err, nil
		if err == nil {
			s.remote++
			return false, nil
		}
	}
	if !m.AllowLocal && own {
		return false, nil
	}
	return false, err
}

// coordSeeds is how many seeded schedules TestCoordSchedules runs; each
// is its own subtest, so `-run 'TestCoordSchedules/seed=N'` replays one.
const coordSeeds = 3000

// TestCoordSchedules drives the coordinator and the workers through
// coordSeeds seeded schedules mixing stale and duplicate reports, map
// failures up to MaxAttempts, deaths in both phases and mid-formation,
// unsolicited and scheduled joins, drains, kills with frames in flight,
// coordinator restarts and reordering across links, checking the
// invariants after every step and the ledgers at the end.
func TestCoordSchedules(t *testing.T) {
	remote := 0
	for seed := int64(0); seed < coordSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := newSimSchedule(t, seed)
			s.run(simMaxSteps)
			if s.remote > 0 {
				remote++
			}
		})
	}
	t.Logf("%d schedules read at least one block from another worker", remote)
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
	if f.buf == nil {
		return ""
	}
	var m payload
	switch f.typ() {
	case mMapTask:
		m = new(mapTaskMsg)
	case mReduceTask:
		m = new(reduceTaskMsg)
	case mMembership:
		m = new(membershipMsg)
	case mWelcome:
		m = new(welcomeMsg)
	default:
		return fmt.Sprintf("%x", f.payload())
	}
	decode(f.payload(), m)
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

// TestSpawnedJoinerExitReleasesReduce: the runner spawned a joiner that no
// coordinator ever admitted — it died first. Reduce is held for it until the
// runner reports its worker returned; that report alone wakes the loop, and
// the job then completes.
func TestSpawnedJoinerExitReleasesReduce(t *testing.T) {
	s := startSim(t, 1, simOptions(2, 4, 2))
	var exited []int
	s.c.hooks.joiners = 1
	s.c.hooks.exited = func() []int { return exited }
	settle := func() {
		for buf := s.actions(nil); len(buf) > 0; buf = s.actions(buf) {
			s.do(buf[0])
		}
	}
	settle()
	if s.c.phase != phaseMap || s.c.st.resolvedCount != s.c.st.Tasks || !s.c.claimed() {
		t.Fatalf("phase %d, %d/%d tasks resolved, claimed %v: want every task resolved and reduce held",
			s.c.phase, s.c.st.resolvedCount, s.c.st.Tasks, s.c.claimed())
	}
	exited = []int{-1}
	s.step(cevent{w: evExit})
	settle()
	if s.c.phase != phaseDone || s.c.err != nil || s.c.st.doneCount != s.o.Job.Partitions {
		t.Fatalf("after the exit report: phase %d, err %v, %d/%d partitions accepted", s.c.phase, s.c.err, s.c.st.doneCount, s.o.Job.Partitions)
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
			hostile = s.dial(&simWorker{id: -1, addr: "hostile"}, ctlFrame(0))
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

// TestDrainResumesAcrossRestart crashes the coordinator just after a drain
// started — its membership frame out, its handoffs in flight. The resumed
// coordinator finds the unfinished drain in the journal and completes it:
// the target exits drained and the job finishes on the others.
func TestDrainResumesAcrossRestart(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		o := simOptions(3, 8, 4)
		o.Elastic = []ElasticEvent{{Kind: "join", AfterMapDone: 1}, {Kind: "drain", Worker: 3, AfterMapDone: 1}, {Kind: "restart", AfterMapDone: 1}}
		s := startSim(t, seed, o)
		if err := s.run(simMaxSteps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !s.crashed.moving || s.crashed.draining != 3 {
			t.Fatalf("seed %d: the restart did not land mid-drain (moving %v, draining %d)", seed, s.crashed.moving, s.crashed.draining)
		}
		if s.c.st.Drained != 1 || s.c.ws[3].state != wDrained || owned(s, 3) != 0 {
			t.Fatalf("seed %d: drained %d, target state %d, target owns %d", seed, s.c.st.Drained, s.c.ws[3].state, owned(s, 3))
		}
	}
}
