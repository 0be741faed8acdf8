package dist

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// coordPeer names the coordinator where an event source or an effect target
// is a peer id.
const coordPeer = -1

// Worker event kinds: every input a worker decides on.
const (
	weFrame      = iota // frame typ/p from peer (coordPeer: the coordinator)
	weLinkUp            // a link to peer came up: cc, installed if step accepts it, replying f
	weCoordUp           // a (re)dialed coordinator link: cc, installed if step accepts it
	weLinkDown          // peer's installed link ended (coordPeer: the coordinator link)
	weDialFailed        // a dial of peer at addr got no hello back
	weTimeout           // peer's link deadline passed (coordPeer: the mesh's); with fetch, the fetch's
	weBuilt             // the executor built a map attempt (kernel and partition ran)
	weReduce            // the executor starts reducing partition part
	weSend              // the executor reports f to the coordinator
	weFetch             // the executor reads a block from another holder: fetch
	weIngest            // the shell stored block in the worker's block store
	weKill              // the worker dies (loopback fault cells)
	weEnd               // the coordinator loop ended: tear the mesh down
)

type wevent struct {
	kind  int
	peer  int
	typ   byte
	p     []byte
	f     frame
	part  int
	addr  string
	runs  runEntries // a run batch or handoff, decoded outside the lock
	built *builtMap
	fetch *blockFetch
	block int
	cc    *conn // weLinkUp only; step never reads it
}

// builtMap is one map attempt after kernel and partition: its runs by
// partition (nil where it emitted nothing) and its stats. span is the kernel
// span the attempt's shuffle sends parent on.
type builtMap struct {
	task, attempt int
	runs          []*kv.Run
	stats         attemptStats
	span          uint64
}

// Worker effect kinds: what step asks the shell (worker.do) to perform, in
// order, once the lock is released.
const (
	wfxSend    = iota // send f to peer
	wfxShip           // stream sh to peer: a map attempt's inline, a handoff on its own goroutine
	wfxSeal           // seal peer's link (coordPeer: close the link)
	wfxDial           // dial peer at addr
	wfxExec           // queue task for the executor
	wfxAccept         // install the event's link as peer's, queue f on it (if any), start its reader
	wfxRefuse         // close the event's link
	wfxReduce         // the committed runs of the partition the executor reduces
	wfxTimer          // step weTimeout for peer once peerMeshTimeout has passed
	wfxRedial         // the coordinator link is lost: redial it, sending f first
	wfxExit           // the coordinator loop ends: killed, or with err
	wfxFinish         // shut peer's link down: flush, seal, and its reader drains to EOF
	wfxFetched        // hand the executor its fetch's outcome: data, or err
	wfxServe          // read block from the store and send it to peer, answering nonce
)

type weffect struct {
	op     int
	peer   int
	f      frame
	sh     *shipment
	task   execItem
	addr   string
	killed bool
	err    error
	block  int
	nonce  uint64
	data   []byte

	// wfxReduce: kv.RunStore.Iters over the partition's committed runs.
	iters      []kv.Iterator
	closeIters func()
	iterErr    func() error

	// The peer's link: step never sets it; the shell (worker.decide)
	// resolves it under the lock.
	cc *conn
}

// execItem is one task for the executor.
type execItem struct {
	reduce  bool
	mapTask mapTaskMsg
	redTask reduceTaskMsg
}

// pendingDone tracks the commit barrier of one finished map attempt: the
// peers whose acks are still outstanding, and the attempt's stats to flush
// when the last ack lands.
type pendingDone struct {
	k     attemptKey
	acks  map[int]bool
	stats attemptStats
}

// coalesceBytes closes a shipment's bulk frame once its entries reach this
// many bytes: a frame's header, socket write and send-window bookkeeping are
// paid once per batch of runs, not once per run.
const coalesceBytes = 256 << 10

// shipment is what this worker owes one peer on their FIFO link: runs, then
// the frame that closes them — a map attempt's runs homed at the peer and
// the attempt's mark, or a re-homed partition's committed runs, taken off
// this node's store at the epoch that moved it, and its handoff mark.
type shipment struct {
	typ    byte // the runs' bulk frame type: mRunBatch or mHandoff
	runs   []shipRun
	span   uint64 // what the frames' net/send spans parent on: the attempt's map kernel
	last   frame
	stored int64 // records taken off the store (a handoff's): lost to the stores if it never ships
	// lastFiled is the index of the last filed run (a handoff's): the runs
	// share their partition's spill file, which goes once that run is read.
	lastFiled int
}

// shipRun is one run of a shipment and the entry it ships as; the entry's
// Blob is set once the run is in memory for the wire.
type shipRun struct {
	runEntry
	run *kv.Run
}

// newHandoff is partition part's committed runs on their way to its new
// home under epoch.
func newHandoff(part, epoch int, runs []kv.TaskRun) *shipment {
	sh := &shipment{typ: mHandoff, runs: make([]shipRun, len(runs))}
	for i, tr := range runs {
		sh.runs[i] = shipRun{runEntry{Task: tr.Task, Partition: part, Records: tr.Run.Records,
			RawBytes: tr.Run.RawBytes, Epoch: epoch}, tr.Run}
		sh.stored += int64(tr.Run.Records)
		if tr.Run.Path() != "" {
			sh.lastFiled = i
		}
	}
	sh.last = newFrame(mHandoffMark, &handoffMsg{Epoch: epoch, Partition: part})
	return sh
}

// wstate is one worker's decision state: every fact the worker decides on,
// and nothing it performs I/O through — no link, channel or lock.
// Every input reaches it through step, one event at a time; step returns the
// effects for the shell to perform and reads no clock. The store's spill is
// the one I/O it does in place, as the journal append is for coord.
type wstate struct {
	id, n   int
	lnAddr  string // our peer-facing address, for a rejoin
	live    bool   // joined a job underway: report ready once meshed
	epoch   int
	homes   []int
	alive   []bool
	settled []bool // partitions with a settled final output: stage nothing for them
	linked  []bool // a link to this peer is installed
	// need is the formation peers not linked yet — the peers alive at job
	// start, by id: counting links instead would let a live joiner stand in
	// for a formation peer, and every mark owed to that peer would go
	// nowhere. nil once the mesh is up; tasks are held until then.
	need   map[int]bool
	formed int // formation peers at job start
	held   []execItem
	// wait holds what is owed to an alive peer not linked yet (a joiner whose
	// hello is still in flight): shipments and acks, released in order by its
	// link-up, dropped by its death.
	wait    map[int][]weffect
	ackWait []*pendingDone // in registration order: barriers clear in it

	compress               bool // the job's runs are DEFLATEd: how a peer's run bytes read
	killed, drained, ended bool
	err                    error // a deadline passed: the coordinator link closes, and the loop ends with it

	// Block reads (blockio.go): the executor's fetch in flight, the blocks
	// this worker's store holds, and peers' fetches held for a block not
	// ingested yet. ingestOver: the link that carried our puts is gone.
	nonce      uint64
	fetching   *blockFetch
	ingested   map[int]bool
	serving    []weffect // wfxServe, held
	ingestOver bool

	store *shuffleStore
	led   *ledger
	out   []weffect
}

func newWState(lnAddr string, store *shuffleStore, led *ledger) *wstate {
	return &wstate{
		lnAddr: lnAddr, store: store, led: led,
		need: make(map[int]bool), wait: make(map[int][]weffect), ingested: make(map[int]bool),
	}
}

// step applies one event and returns the effects it calls for.
func (s *wstate) step(ev wevent) (out []weffect) {
	switch ev.kind {
	case weFrame:
		if ev.peer == coordPeer {
			s.coordFrame(ev.typ, ev.p)
		} else {
			s.peerFrame(ev)
		}
	case weLinkUp:
		s.linkUp(ev.peer, ev.f)
	case weCoordUp:
		if s.killed || s.err != nil {
			s.emit(weffect{op: wfxRefuse}, weffect{op: wfxExit, killed: s.killed, err: s.err})
		} else {
			s.emit(weffect{op: wfxAccept, peer: coordPeer})
		}
	case weLinkDown:
		if ev.peer == coordPeer && s.homes != nil {
			s.ingestOver = true
			s.serveHeld()
		}
		switch {
		case ev.peer != coordPeer:
			s.linked[ev.peer] = false
			s.holderLost(ev.peer, "unlinked")
			s.serving = slices.DeleteFunc(s.serving, func(e weffect) bool { return e.peer == ev.peer })
		case s.killed || s.drained || s.err != nil:
			s.emit(weffect{op: wfxExit, killed: s.killed, err: s.err})
		case s.homes == nil: // lost before our job-start: nothing of us reached the journal
			s.emit(weffect{op: wfxRedial, f: newFrame(mJoin, &helloMsg{ListenAddr: s.lnAddr})})
		default:
			s.emit(weffect{op: wfxRedial, f: newFrame(mRejoin, &rejoinMsg{WorkerID: s.id, ListenAddr: s.lnAddr, Epoch: s.epoch})})
		}
	case weDialFailed:
		if j := ev.peer; s.alive[j] && !s.linked[j] && !s.killed && !s.ended && s.err == nil {
			// Its listener is not up yet, or it still holds a link under our
			// id from an incarnation a restarted coordinator never journaled:
			// dial again until it links or is announced dead.
			s.emit(weffect{op: wfxDial, peer: j, addr: ev.addr})
		} else {
			delete(s.need, j)
			s.meshCheck()
		}
	case weTimeout:
		switch j := ev.peer; {
		case ev.fetch != nil:
			if ev.fetch == s.fetching {
				s.resolve(nil, fmt.Errorf("dist: fetching block %d timed out", ev.fetch.block))
			}
		case s.killed || s.ended || s.err != nil:
		case j == coordPeer && len(s.need) > 0:
			s.fail(fmt.Errorf("dist: peer mesh incomplete: %d/%d connected", s.formed-len(s.need), s.formed))
		case j != coordPeer && len(s.wait[j]) > 0:
			s.fail(fmt.Errorf("dist: worker %d not linked after %v", j, peerMeshTimeout))
		}
	case weBuilt:
		if !s.killed {
			s.built(ev.built)
		}
	case weReduce:
		// A killed worker's store is already written off as lost, and a
		// partition that moved away left in a handoff: either reduce would
		// report an emptied partition as final, so it reads nothing. A moved
		// partition's reduce goes to its new home once the move completes.
		if !s.killed && ev.part < len(s.homes) && s.homes[ev.part] == s.id {
			e := weffect{op: wfxReduce}
			e.iters, e.closeIters, e.iterErr = s.store.partitionIters(ev.part)
			s.emit(e)
		}
	case weSend:
		if !s.killed {
			s.toCoord(ev.f)
		}
	case weFetch:
		s.fetch(ev.fetch)
	case weIngest:
		s.ingested[ev.block] = true
		s.serveHeld()
	case weKill:
		s.kill()
	case weEnd:
		s.ended = true
		s.endBlockReads(errors.New("dist: worker ended mid-fetch"))
		s.led.StoreLost.Add(s.store.dropHandoffs())
		op := wfxFinish
		if s.killed {
			op = wfxSeal
		}
		for j, l := range s.linked {
			if l {
				s.emit(weffect{op: op, peer: j})
			}
		}
	}
	out, s.out = s.out, nil
	return out
}

func (s *wstate) emit(e ...weffect) { s.out = append(s.out, e...) }

func (s *wstate) toCoord(f frame) { s.emit(weffect{op: wfxSend, peer: coordPeer, f: f}) }

func (s *wstate) isLinked(j int) bool { return j >= 0 && j < len(s.linked) && s.linked[j] }

func (s *wstate) isSettled(p int) bool { return p < len(s.settled) && s.settled[p] }

// toPeer emits e for peer j, holds it while j is alive but not linked, and
// drops it if j is neither — a handoff dropped so books its records lost.
func (s *wstate) toPeer(j int, e weffect) {
	e.peer = j
	switch {
	case s.isLinked(j):
		s.emit(e)
	case j < len(s.alive) && s.alive[j]:
		if len(s.wait[j]) == 0 {
			s.emit(weffect{op: wfxTimer, peer: j})
		}
		s.wait[j] = append(s.wait[j], e)
	case e.op == wfxShip:
		s.led.StoreLost.Add(e.sh.stored)
	}
}

// dropWaiting discards what is held for peer j.
func (s *wstate) dropWaiting(j int) {
	for _, e := range s.wait[j] {
		if e.op == wfxShip {
			s.led.StoreLost.Add(e.sh.stored)
		}
	}
	delete(s.wait, j)
}

// grow widens the per-worker slices to n slots.
func (s *wstate) grow(n int) {
	if n <= s.n {
		return
	}
	s.alive = append(s.alive, make([]bool, n-s.n)...)
	s.linked = append(s.linked, make([]bool, n-s.n)...)
	s.n = n
}

// meshCheck ends mesh formation once every formation peer is linked or
// gone: held tasks go to the executor, and a live joiner reports ready.
func (s *wstate) meshCheck() {
	if s.need == nil || len(s.need) > 0 || s.homes == nil {
		return
	}
	s.need = nil
	for _, it := range s.held {
		s.emit(weffect{op: wfxExec, task: it})
	}
	s.held = nil
	if s.live {
		s.toCoord(ctlFrame(mJoinReady))
	}
}

func (s *wstate) exit(err error) { s.emit(weffect{op: wfxExit, err: err}) }

// fail ends the worker on a passed deadline: closing the coordinator link
// wakes the loop, which exits with err, and tells the coordinator.
func (s *wstate) fail(err error) {
	s.err = err
	s.emit(weffect{op: wfxSeal, peer: coordPeer})
}

// coordFrame handles one frame from the coordinator.
func (s *wstate) coordFrame(typ byte, p []byte) {
	if s.killed {
		return
	}
	switch typ {
	case mWelcome:
		var m welcomeMsg
		decode(p, &m) // well formed: worker.start decoded it
		s.id = m.WorkerID
		s.grow(m.Workers)
	case mJobStart:
		var js jobStartMsg
		decode(p, &js)
		s.homes, s.epoch, s.live, s.compress = js.Homes, js.Epoch, js.Live, js.Job.Compress
		s.settled = make([]bool, len(js.Homes))
		s.store.setEpoch(js.Epoch)
		for j := range s.alive {
			s.alive[j] = j == s.id || j < len(js.Peers) && js.Peers[j] != ""
			if j != s.id && s.alive[j] && !s.linked[j] {
				s.need[j] = true
				if j < s.id {
					// This worker dials every live lower id and is dialed by
					// the higher ones; a live joiner is the highest id.
					s.emit(weffect{op: wfxDial, peer: j, addr: js.Peers[j]})
				}
			}
		}
		if s.formed = len(s.need); s.formed > 0 {
			s.emit(weffect{op: wfxTimer, peer: coordPeer})
		}
		s.meshCheck()
	case mMapTask, mReduceTask:
		it := execItem{reduce: typ == mReduceTask}
		var err error
		if it.reduce {
			err = decode(p, &it.redTask).fin("reduce-task")
		} else {
			err = decode(p, &it.mapTask).fin("map-task")
		}
		switch {
		case err != nil:
			s.exit(err)
		case s.need != nil:
			s.held = append(s.held, it)
		default:
			s.emit(weffect{op: wfxExec, task: it})
		}
	case mMembership:
		var m membershipMsg
		if err := decode(p, &m).fin("membership"); err != nil {
			s.exit(err)
			return
		}
		s.membership(m)
	case mDrained:
		s.drained = true
		s.exit(nil)
	case mJobEnd:
		s.exit(nil)
	default:
		s.exit(fmt.Errorf("dist: unexpected %s from coordinator", typeName(typ)))
	}
}

// membership applies a membership frame — a death, a join, a drain or a
// resumed coordinator's refresh: adopt the new epoch, homes, liveness and
// settled set, release newly dead peers from every commit barrier, then hand
// any partition that moved away from this node to its new home. Newly dead
// peers are sealed (queued frames are accounted lost; already-delivered
// bytes are still drained by the dying peer); the worker named in Left is
// not — its link must stay open to carry the handoff it is about to send.
func (s *wstate) membership(m membershipMsg) {
	if m.Epoch < s.epoch || len(m.Homes) != len(s.homes) || len(m.Settled) != len(m.Homes) ||
		m.Joined >= maxWorkers {
		return
	}
	if m.Joined >= 0 {
		s.grow(m.Joined + 1)
	}
	for i := 0; i < s.n && i < len(m.Alive); i++ {
		if i == s.id {
			continue
		}
		if m.Alive[i] && !s.alive[i] && s.linked[i] {
			s.alive[i] = true
		}
		if m.Alive[i] || !s.alive[i] {
			continue
		}
		s.alive[i] = false
		delete(s.need, i)
		s.dropWaiting(i)
		s.holderLost(i, "died")
		if i != m.Left && s.linked[i] {
			s.emit(weffect{op: wfxSeal, peer: i})
		}
		for _, pd := range slices.Clone(s.ackWait) {
			if pd.acks[i] {
				delete(pd.acks, i)
				s.barrierCleared(pd)
			}
		}
	}
	if m.Joined >= 0 && m.Joined != s.id {
		s.alive[m.Joined] = true
		if m.Joined < s.id && !s.linked[m.Joined] && m.JoinedAddr != "" {
			// A joiner a resumed coordinator admitted after this worker's
			// job start never learned our address, so we dial it; should a
			// dial of ours be racing, its acceptor replies to one of the two.
			s.emit(weffect{op: wfxDial, peer: m.Joined, addr: m.JoinedAddr})
		}
	}
	// A settled partition's accepted output is final: built stages and
	// ships nothing for it, or its home would book re-executed runs as
	// accepted records no reduce will ever read.
	s.settled = m.Settled
	prev := s.homes
	s.homes = append([]int(nil), m.Homes...)
	s.epoch = m.Epoch
	s.store.setEpoch(m.Epoch)
	for p, h := range m.Homes {
		if prev[p] != s.id || h == s.id {
			continue
		}
		// A settled partition's output is final: it moves empty, and its
		// records stay where the coordinator books them settled if they die.
		var runs []kv.TaskRun
		if !s.isSettled(p) {
			runs = s.store.takePartition(p)
		}
		s.toPeer(h, weffect{op: wfxShip, sh: newHandoff(p, m.Epoch, runs)})
	}
	s.meshCheck()
}

// barrierCleared reports pd's attempt done once its last ack is in.
func (s *wstate) barrierCleared(pd *pendingDone) {
	if len(pd.acks) > 0 {
		return
	}
	s.ackWait = slices.DeleteFunc(s.ackWait, func(x *pendingDone) bool { return x == pd })
	pd.stats.Book(&s.led.Conserv)
	s.toCoord(newFrame(mMapDone, &mapDoneMsg{Task: pd.k.task, Attempt: pd.k.attempt, Stats: pd.stats}))
}

// linkUp admits one link, sending reply on it first: a dialer sends
// nothing on a link before the reply shows it was accepted. Peer ids are
// bounded like the coordinator's: they size this worker's per-worker
// slices, and any TCP client of the peer listener can claim one. A link
// makes no peer alive: a joiner counts once the membership frame announcing
// it lands, and a departed peer whose dial was slow stays departed —
// neither is owed marks before that.
func (s *wstate) linkUp(j int, reply frame) {
	if j < 0 || j >= maxWorkers || j == s.id || s.isLinked(j) {
		s.emit(weffect{op: wfxRefuse})
		return
	}
	s.grow(j + 1)
	s.linked[j] = true
	delete(s.need, j)
	if s.killed || s.ended {
		// Its reader drains what the peer sends; nothing goes back, not even
		// the reply.
		s.emit(weffect{op: wfxAccept, peer: j}, weffect{op: wfxSeal, peer: j})
		return
	}
	s.emit(weffect{op: wfxAccept, peer: j, f: reply})
	s.emit(s.wait[j]...)
	delete(s.wait, j)
	s.meshCheck()
}

// built stages and commits an attempt's runs for this node's own
// partitions, registers its commit barrier and ships every live peer the
// runs homed there, then the attempt's mark. The attempt reports done only
// when every live peer has acked its mark — at which point its output is
// committed everywhere it needs to be. A membership change applied before
// this point is reflected here; one applied after prunes the barrier
// (death) or fences the staged runs out at commit time (epoch).
func (s *wstate) built(b *builtMap) {
	for p, r := range b.runs {
		if r != nil && s.homes[p] == s.id && !s.isSettled(p) {
			s.store.stage(b.task, b.attempt, p, r, s.epoch)
		}
	}
	acc, dup := s.store.commit(b.task, b.attempt)
	s.led.StoreAccepted.Add(acc)
	s.led.StoreDupDropped.Add(dup)
	pd := &pendingDone{k: attemptKey{b.task, b.attempt}, acks: make(map[int]bool), stats: b.stats}
	mark := newFrame(mMark, &markMsg{Task: b.task, Attempt: b.attempt})
	runs := make([]shipRun, 0, len(b.runs)) // every peer's shipment slices it
	for j, a := range s.alive {
		if !a || j == s.id {
			continue
		}
		pd.acks[j] = true
		from := len(runs)
		for p, r := range b.runs {
			if r != nil && s.homes[p] == j && !s.isSettled(p) {
				runs = append(runs, shipRun{runEntry{Task: b.task, Attempt: b.attempt, Partition: p,
					Records: r.Records, RawBytes: r.RawBytes, Epoch: s.epoch}, r})
			}
		}
		s.toPeer(j, weffect{op: wfxShip, sh: &shipment{typ: mRunBatch, runs: runs[from:], span: b.span, last: mark}})
	}
	s.ackWait = append(s.ackWait, pd)
	s.barrierCleared(pd) // a single-node cluster, or every peer dead
}

// peerFrame handles one shuffle frame from a peer; a run batch or handoff
// arrives decoded, in ev.runs. Bulk frames reaching a killed worker are
// drained as lost so the wire ledger still balances; wire accounting is at
// frame granularity, mirroring what the sender counted. Staged runs own the
// frame's bytes (readFrame never reuses a buffer); bytes that do not decode
// fail the reduce that iterates them.
func (s *wstate) peerFrame(ev wevent) {
	j, p := ev.peer, ev.p
	switch ev.typ {
	case mBlockFetch:
		s.serveFetch(j, p)
	case mBlockData:
		s.fetchReply(j, p)
	case mRunBatch, mHandoff:
		var records int64
		for _, re := range ev.runs {
			records += int64(re.Records)
		}
		if s.killed {
			// A handoff's records were accepted at their old home.
			s.led.netLost(records, int64(len(p)))
			if ev.typ == mHandoff {
				s.led.StoreLost.Add(records)
			}
			return
		}
		s.led.netRecv(records, int64(len(p)))
		for _, re := range ev.runs {
			switch {
			case ev.typ == mHandoff:
				s.store.stageHandoff(re.Partition, re.Epoch, re.Task, s.run(re))
			case !s.isSettled(re.Partition):
				s.store.stage(re.Task, re.Attempt, re.Partition, s.run(re), re.Epoch)
			}
		}
	case mMark:
		// A killed worker neither commits nor acks: the sender's barrier is
		// released by the membership frame announcing its death instead.
		var msg markMsg
		if decode(p, &msg).fin("mark") != nil || s.killed {
			return
		}
		acc, dup := s.store.commit(msg.Task, msg.Attempt)
		s.led.StoreAccepted.Add(acc)
		s.led.StoreDupDropped.Add(dup)
		s.toPeer(j, weffect{op: wfxSend, f: newFrame(mAck, &msg)})
	case mAck:
		var msg markMsg
		if decode(p, &msg).fin("mark") != nil {
			return
		}
		for _, pd := range s.ackWait {
			if pd.k == (attemptKey{msg.Task, msg.Attempt}) && pd.acks[j] {
				delete(pd.acks, j)
				s.barrierCleared(pd)
				break
			}
		}
	case mHandoffMark:
		// Adopt the partition and report it to the coordinator, which counts
		// adopted partitions to complete the membership transition.
		var msg handoffMsg
		if decode(p, &msg).fin("handoff-mark") != nil || s.killed {
			return
		}
		adopted, superseded := s.store.adoptHandoff(msg.Partition, msg.Epoch)
		s.led.handoffIn.Add(adopted)
		s.led.StoreLost.Add(superseded)
		s.toCoord(newFrame(mHandoffDone, &msg))
	}
}

// run rebuilds a peer's run from its entry.
func (s *wstate) run(re runEntry) *kv.Run {
	return kv.RunFromBlob(re.Blob, re.Records, re.RawBytes, s.compress)
}

// kill is this worker dying mid-job: the store's records are written off as
// lost, every outbound link seals (queued frames become net-lost) while
// inbound links switch to drain accounting, and the coordinator link drops —
// which is how the coordinator finds out.
func (s *wstate) kill() {
	if s.killed {
		return
	}
	s.killed = true
	s.led.StoreLost.Add(s.store.lostAll())
	s.endBlockReads(errors.New("dist: worker killed mid-fetch"))
	for j := range s.wait {
		s.dropWaiting(j)
	}
	s.ackWait, s.held = nil, nil
	for j, l := range s.linked {
		if l {
			s.emit(weffect{op: wfxSeal, peer: j})
		}
	}
	s.emit(weffect{op: wfxSeal, peer: coordPeer})
}

// stream ships sh through send: its runs as bulk frames, each closed once
// its entries reach coalesceBytes, then sh.last. Every frame is encoded once,
// into a payload sized from its runs, and booked sent as it is queued; its
// net/send span id, minted by tr (0 without a buffer) and parented on
// sh.span, rides in the payload for the receiver's net/recv span to parent
// on.
func (sh *shipment) stream(led *ledger, tr *obs.Tracer, traceID uint64, send func(frame)) {
	from, body := 0, 0
	for i := range sh.runs {
		if sh.load(led, i) {
			body += sh.runs[i].size()
		}
		if body >= coalesceBytes || i == len(sh.runs)-1 && body > 0 {
			send(sh.frame(led, traceID, tr.NewID(), from, i+1, body))
			from, body = i+1, 0
		}
	}
	send(sh.last)
}

// load brings run i into memory for the wire: a filed run (a handoff's) is
// read back, and after the last of them their partition's spill file is
// removed. One that does not read back is dropped from the shipment and its
// records booked lost, exactly like a disk dying under a classic worker.
func (sh *shipment) load(led *ledger, i int) bool {
	sr := &sh.runs[i]
	run, err := sr.run.Load()
	if path := sr.run.Path(); path != "" && i == sh.lastFiled {
		os.Remove(path) // the partition left this node; scratch goes too
	}
	if err != nil {
		led.StoreLost.Add(int64(sr.Records))
		sr.run = nil
		return false
	}
	sr.run, sr.Blob = run, run.Blob()
	if sh.typ == mHandoff {
		led.handoffOut.Add(int64(run.Records))
	}
	return true
}

// frame encodes the loaded runs of sh.runs[from:to], body bytes of entries,
// as one bulk frame of trace traceID with net/send span span, and books it
// sent.
func (sh *shipment) frame(led *ledger, traceID, span uint64, from, to, body int) frame {
	// runBatchMsg's layout, its Body written in place behind the frame's
	// header: the size pass gives the length of the fields before it.
	n := uint64(body)
	c := codec{size: true}
	c.u(&traceID)
	c.u(&span)
	c.u(&n)
	c = codec{buf: frameBuf(sh.typ, c.n+body)}
	c.u(&traceID)
	c.u(&span)
	c.u(&n)
	var records int64
	for i := from; i < to; i++ {
		if sr := &sh.runs[i]; sr.run != nil {
			sr.wire(&c)
			records += int64(sr.Records)
		}
	}
	payload := int64(len(c.buf) - frameHeader)
	led.netSent(records, payload)
	led.frameBytes(int64(len(c.buf)))
	return frame{buf: c.buf, bulk: true, records: records, acct: payload, spanID: span, spanParent: sh.span}
}
