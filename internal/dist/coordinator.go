package dist

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"time"

	"glasswing/internal/blockstore"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// ElasticEvent schedules one membership change during a job, triggered by
// scheduler progress: the event fires once AfterMapDone map tasks have
// resolved (or, when AfterReduceDone > 0, once that many reduce partitions
// have been accepted). Events fire strictly in declaration order; an event
// whose threshold is already met fires immediately after its predecessor.
//
//   - "join": spawn one new worker into the cluster (loopback-only — a
//     multi-process cluster admits joiners whenever they dial in).
//   - "drain": gracefully remove Worker — stop assigning it work, hand its
//     partitions off to survivors, then release it.
//   - "kill": murder Worker abruptly (loopback-only), exercising the death
//     recovery path.
//   - "restart": crash the coordinator itself. With a journal configured,
//     the loopback runner restarts it and resumes from the checkpoint.
type ElasticEvent struct {
	Kind            string // "join", "drain", "kill" or "restart"
	Worker          int    // target worker id (drain/kill); ignored otherwise
	AfterMapDone    int    // fire once this many map tasks have resolved
	AfterReduceDone int    // when > 0, fire once this many partitions are accepted instead
}

// Options configures one distributed job from the coordinator's side. The
// loopback runner shares this type; fields marked loopback-only are ignored
// by the multi-process Serve entry point.
type Options struct {
	Job     Job
	Workers int
	Tuning  Tuning
	// Blocks are the map input splits; one map task per block.
	Blocks [][]byte
	// Telemetry receives the coordinator-side counters; in loopback mode the
	// workers share it too (spans, conserv_* ledger).
	Telemetry *obs.Telemetry
	// TraceID identifies the job's distributed trace. 0 mints one from the
	// wall clock; a resident service passes the id it already handed the
	// client so the job's spans correlate with its journal.
	TraceID uint64
	// Journal, if set, receives structured scheduling events (map retries,
	// worker deaths, membership changes) — callers attach job/tenant/trace
	// context up front via slog.With.
	Journal *slog.Logger

	// NewApp resolves the job's application (loopback-only; multi-process
	// workers use the registry). The resolver's partitioner return value
	// overrides the default hash partitioner.
	NewApp Resolver
	// MapFault injects attempt failures after the map kernel but before any
	// shuffle effect (loopback-only).
	MapFault func(task, attempt int) bool
	// KillWorker, when >= 0, kills that worker once KillAfterMapDone map
	// tasks have resolved (loopback-only; folded into Elastic internally).
	KillWorker       int
	KillAfterMapDone int

	// Elastic schedules membership churn — joins, drains, kills and
	// coordinator restarts — against scheduler progress. Joins, kills and
	// restarts need the loopback runner's hooks; drains work anywhere.
	Elastic []ElasticEvent
	// Blockstore selects how map input reaches workers. "" ships each block
	// embedded in its map-task frame (the classic path). "local" ingests
	// every block into Replication worker disks up front and schedules each
	// task on a replica holder — the Fig 3(d) move-compute-to-data mode;
	// non-holders (steals, retries) stream the block from a holder. "remote"
	// ingests identically but pins every task away from its replicas, the
	// locality-off baseline the conformance suite diffs against.
	Blockstore string
	// Replication is block-store replica count (0 = default 3, clamped to
	// the cluster width; "remote" further clamps to width-1 so a non-holder
	// always exists).
	Replication int

	// JournalPath enables the checkpoint journal: an append-only, fsynced
	// record of task resolutions, partition homes, shuffle commit marks and
	// membership epochs, written write-ahead of every broadcast.
	JournalPath string
	// Resume replays JournalPath instead of forming a fresh cluster: the
	// coordinator validates the journal against this job, collects rejoins
	// from every journaled-live worker, and picks the job back up.
	Resume bool
}

// coordinator phases.
const (
	phaseMap = iota
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

// cevent is one frame (or connection loss) from one worker, funneled into
// the coordinator's single event loop by per-worker reader goroutines.
// Admission events (a candidate's first frame) carry w == -1 and the
// candidate's connection.
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
	claimed bool // holds a pendingMembership claim (event-spawned churn)
	started bool // quiesce passed: epoch bumped, membership frame broadcast
	epoch   int
	pending map[int]bool // partitions whose handoff is still outstanding
}

// loopHooks are the loopback runner's fault and elasticity hooks: kill
// murders a worker in-process, spawn launches one new live-join worker.
type loopHooks struct {
	kill  func(id int)
	spawn func()
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

// acceptTimeout bounds cluster formation so a worker that never dials
// fails the job instead of hanging CI.
const acceptTimeout = 60 * time.Second

// serve runs the coordinator side of one job on an already-open listener:
// form the cluster (or resume it from the journal), drive the map phase
// through the scheduler, apply elastic membership changes, gate reduce on
// full shuffle commit, and assemble the result. led receives the
// coordinator-side reduce conservation counters (shared with the workers in
// loopback mode); hooks are the loopback fault/elasticity callbacks.
func serve(ln net.Listener, o Options, led *ledger, hooks loopHooks) (*Result, error) {
	o.Job = o.Job.withDefaults()
	tun := o.Tuning.withDefaults()
	n := o.Workers
	if n <= 0 && !o.Resume {
		return nil, fmt.Errorf("dist: need at least one worker, got %d", n)
	}
	if len(o.Blocks) == 0 {
		return nil, fmt.Errorf("dist: no input blocks")
	}
	if o.Blockstore != "" && o.Blockstore != "local" && o.Blockstore != "remote" {
		return nil, fmt.Errorf("dist: unknown blockstore mode %q", o.Blockstore)
	}
	if led == nil {
		led = newLedger(o.Telemetry)
	}

	start := time.Now()
	traceID := o.TraceID
	if traceID == 0 {
		traceID = uint64(time.Now().UnixNano())
	}
	// The coordinator records its own scheduling spans as node -1 — the
	// merged trace's "coordinator" process — and its epoch is the timeline
	// every worker batch is rebased onto.
	ctr := newTracer(-1)
	nTasks := len(o.Blocks)

	res := &Result{App: o.Job.App.Name, Workers: n}
	for _, b := range o.Blocks {
		res.InputBytes += int64(len(b))
	}

	var (
		ws    []*cworker // index by worker id; grows on join
		homes []int
		epoch int
		sched *dsched
		jn    *journal
	)
	// Block-store namespace: holders[t] is the replica set of block t,
	// computed once at formation width and journaled so a resumed coordinator
	// reconstructs the same placement the workers' disks actually hold.
	var holders [][]int
	bsRepl := o.Replication
	if bsRepl <= 0 {
		bsRepl = 3
	}
	placeBlocks := func(width int) {
		if o.Blockstore == "" || width <= 0 {
			return
		}
		if o.Blockstore == "remote" && bsRepl >= width && width > 1 {
			// Forced-remote needs a non-holder to run every task on.
			bsRepl = width - 1
		}
		if bsRepl > width {
			bsRepl = width
		}
		holders = blockstore.Place(nTasks, width, bsRepl)
	}
	interPairs := make([]int64, nTasks) // per task, last winning attempt
	outputs := make([][]kv.Pair, o.Job.Partitions)
	donePart := make([]bool, o.Job.Partitions)
	donePartCount := 0
	reduceAttempt := make([]int, o.Job.Partitions)
	// settledResident[p] is how many committed records still live at
	// partition p's home after its output was accepted. If that home dies,
	// the records are settled — consumed by a final output, then lost with
	// the store — not recoverable losses; the death handler books them so
	// the conservation ledger stays exact. Zeroed once booked: the data
	// existed on exactly one store, and nothing re-ships to a settled
	// partition.
	settledResident := make([]int64, o.Job.Partitions)

	defer func() {
		for _, cw := range ws {
			if cw != nil && cw.cc != nil {
				cw.cc.close()
			}
		}
	}()
	defer func() { jn.close() }()

	// liveness is the alive set by worker id. The journal records a drain
	// target alive until its drain completes; announced, it is dead to its
	// peers once the frame naming it Left has gone out, never while the drain
	// is merely queued: until then its peers still owe it marks and acks.
	liveness := func(announced bool) []bool {
		v := make([]bool, len(ws))
		for i, cw := range ws {
			v[i] = cw != nil && cw.alive && !(announced && cw.left)
		}
		return v
	}
	// membership builds the one frame every membership change travels as,
	// from current state.
	membership := func(joined, left int) frame {
		m := membershipMsg{
			Epoch: epoch, Homes: homes, Alive: liveness(true), Settled: donePart,
			Joined: joined, Left: left,
		}
		if joined >= 0 {
			m.JoinedAddr = ws[joined].addr
		}
		return frame{typ: mMembership, payload: encode(&m)}
	}
	// membershipRec is the journal's membership record of current state.
	membershipRec := func() *membershipRecord {
		return &membershipRecord{
			Epoch: epoch, Homes: homes, Alive: liveness(false), Attempt: sched.attempt,
			Joined: res.WorkersJoined, Drained: res.WorkersDrained, Lost: res.WorkersLost,
		}
	}
	// adopt installs a worker re-attaching to a resumed coordinator under its
	// old id, padding the membership with dead slots up to it: resume
	// formation and a straggler's late rejoin alike.
	adopt := func(m rejoinMsg, cc *conn) {
		for len(ws) <= m.WorkerID {
			ws = append(ws, &cworker{state: wActive})
		}
		cw := &cworker{cc: cc, addr: m.ListenAddr, alive: true, state: wActive, clock: &clockEstimator{}}
		ws[m.WorkerID] = cw
		cc.enableClock(cw.clock, tun.heartbeatEvery)
		if sched != nil {
			sched.join(m.WorkerID)
		}
	}

	if o.Resume {
		// ----- resume formation: replay the journal, collect rejoins -----
		if o.JournalPath == "" {
			return nil, fmt.Errorf(resumeRefused + ": no journal path configured")
		}
		data, err := os.ReadFile(o.JournalPath)
		if err != nil {
			return nil, fmt.Errorf(resumeRefused+": %v", err)
		}
		rs, err := replayJournal(data)
		if err != nil {
			return nil, err
		}
		if err := rs.validateResume(&o); err != nil {
			return nil, err
		}
		if rs.Mode != "" {
			// Rebuild the namespace exactly as formed: the journaled width and
			// replication reproduce the placement the workers' disks hold, so
			// resume never re-ingests — rejoining workers still have their
			// replicas, and dead holders fall out at dispatch time.
			bsRepl = rs.Repl
			placeBlocks(rs.Width)
		}
		traceID = rs.TraceID
		epoch = rs.Epoch
		homes = append([]int(nil), rs.Homes...)
		ws = make([]*cworker, len(rs.Alive))
		need := make(map[int]bool)
		for i, a := range rs.Alive {
			if a {
				need[i] = true
			} else {
				ws[i] = &cworker{state: wActive}
			}
		}
		deadline := time.Now().Add(acceptTimeout)
		for len(need) > 0 {
			if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
				d.SetDeadline(deadline)
			}
			c, err := ln.Accept()
			if err != nil {
				return nil, fmt.Errorf("dist: resume: awaiting %d workers to rejoin: %w", len(need), err)
			}
			cc := newConn(c, "rejoin", tun, nil)
			typ, p, err := cc.recv()
			if err != nil || typ != mRejoin {
				cc.close()
				continue
			}
			var m rejoinMsg
			if err := decode(p, &m).fin("rejoin"); err != nil {
				cc.close()
				continue
			}
			switch {
			case m.Epoch > epoch:
				cc.close()
				return nil, fmt.Errorf(resumeRefused+": worker %d is at epoch %d, ahead of the journal's %d",
					m.WorkerID, m.Epoch, epoch)
			case m.WorkerID >= 0 && m.WorkerID < len(ws) && need[m.WorkerID]:
				adopt(m, cc)
				delete(need, m.WorkerID)
			case m.WorkerID >= len(ws):
				// Admitted after the journal's last membership record (a join
				// whose transition never started before the crash): adopt it
				// as a full member owning no partitions — the peer mesh it
				// built before the crash is intact.
				adopt(m, cc)
			default:
				// The journal says this worker already left (drained or its
				// rejoin slot is already filled): let it exit cleanly.
				cc.send(frame{typ: mDrained})
				cc.flush()
				cc.close()
			}
		}
		jn, err = openJournalAppend(o.JournalPath)
		if err != nil {
			return nil, err
		}
		sched = newSchedResume(nTasks, len(ws), o.Job.MaxAttempts, rs.resolved, rs.Attempt, liveness(false))
		for t := 0; t < nTasks; t++ {
			if rs.resolved[t] {
				interPairs[t] = rs.stats[t].PairsOut
			}
		}
		for p, out := range rs.outputs {
			pairs, err := kv.Unmarshal(out)
			if err != nil {
				return nil, fmt.Errorf(resumeRefused+": journaled output for partition %d: %v", p, err)
			}
			outputs[p] = pairs
			donePart[p] = true
			donePartCount++
			reduceAttempt[p] = rs.reduceAt[p]
			settledResident[p] = rs.records[p]
			res.OutputPairs += len(pairs)
		}
		res.WorkersJoined = rs.Joined
		res.WorkersDrained = rs.Drained
		res.WorkersLost = rs.Lost
		res.Resumed = true
		// Re-sync every rejoined worker: the refresh carries the journaled
		// epoch, homes, liveness and settled set, so a worker that missed a
		// crash-window broadcast applies it now — including any handoff it
		// still owes (journaling is write-ahead, so the journal is never
		// behind a broadcast a worker saw).
		refresh := membership(-1, -1)
		for _, cw := range ws {
			if cw != nil && cw.cc != nil && cw.alive {
				cw.cc.send(refresh)
			}
		}
	} else {
		// ----- fresh formation: worker ids in order of arrival -----
		ws = make([]*cworker, n)
		for i := 0; i < n; i++ {
			if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
				d.SetDeadline(time.Now().Add(acceptTimeout))
			}
			c, err := ln.Accept()
			if err != nil {
				return nil, fmt.Errorf("dist: awaiting worker %d/%d: %w", i+1, n, err)
			}
			cc := newConn(c, fmt.Sprintf("worker%d", i), tun, nil)
			typ, p, err := cc.recv()
			if err != nil || typ != mJoin {
				cc.close()
				return nil, fmt.Errorf("dist: bad join from worker %d (%s): %v", i, typeName(typ), err)
			}
			var h helloMsg
			if err := decode(p, &h).fin("hello"); err != nil {
				cc.close()
				return nil, err
			}
			ws[i] = &cworker{cc: cc, addr: h.ListenAddr, alive: true, state: wActive, clock: &clockEstimator{}}
			// Only the coordinator probes; the worker side just echoes. The
			// initial probe burst lands during formation, before shuffle
			// traffic can queue behind it.
			ws[i].cc.enableClock(ws[i].clock, tun.heartbeatEvery)
		}
		homes = make([]int, o.Job.Partitions)
		for p := range homes {
			homes[p] = p % n
		}
		placeBlocks(n)
		var prefer []int
		if holders != nil {
			prefer = make([]int, nTasks)
			for t := range prefer {
				if o.Blockstore == "remote" {
					// First worker past the replica window: never a holder.
					prefer[t] = (t + len(holders[t])) % n
				} else {
					// holders[t][0] is t%n, so the locality-preferring deal
					// keeps the classic deal's balance exactly.
					prefer[t] = holders[t][0]
				}
			}
		}
		sched = newSchedAffinity(nTasks, n, o.Job.MaxAttempts, prefer)
		if o.JournalPath != "" {
			var err error
			jn, err = createJournal(o.JournalPath)
			if err != nil {
				return nil, err
			}
			if err := jn.append(jrJobStart, encode(&jobRecord{
				Job: o.Job, Tasks: nTasks, TraceID: traceID, Digest: blocksDigest(o.Blocks),
			})); err != nil {
				return nil, err
			}
			if o.Blockstore != "" {
				if err := jn.append(jrNamespace, encode(&namespaceRecord{Mode: o.Blockstore, Repl: bsRepl, Width: n})); err != nil {
					return nil, err
				}
			}
			if err := jn.append(jrMembership, encode(membershipRec())); err != nil {
				return nil, err
			}
		}
		peers := make([]string, n)
		for i, cw := range ws {
			peers[i] = cw.addr
		}
		for i, cw := range ws {
			cw.cc.send(frame{typ: mWelcome, payload: encode(&welcomeMsg{WorkerID: i, Workers: n})})
			cw.cc.send(frame{typ: mJobStart, payload: encode(&jobStartMsg{
				Job: o.Job, TraceID: traceID, Peers: peers, Homes: homes, Epoch: 0, Live: false,
			})})
		}
		// Ingest the namespace: push every block to each of its replica
		// holders, after job-start so the worker's handshake stays two
		// frames, before any map task thanks to FIFO links. Puts ride the
		// bulk send window, so a slow disk backpressures the push instead of
		// ballooning the queue; replica bytes are booked by the receiving
		// worker as dist_block_ingest_bytes_total, never as shuffle traffic.
		for t, hs := range holders {
			payload := encode(&blockPutMsg{ID: t, Data: o.Blocks[t]})
			for _, h := range hs {
				ws[h].cc.send(frame{typ: mBlockPut, payload: payload, bulk: true, acct: int64(len(payload))})
			}
		}
	}

	// Post-formation acceptor: candidates dialing in after the job started
	// (live joiners, or stragglers rejoining a resumed coordinator) are
	// handshaken off-loop and funneled into the event loop as admission
	// events. The admission gate closes when serve returns — a candidate
	// admitted into a dead coordinator's queue would otherwise keep its
	// connection (and the worker behind it) alive forever.
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Time{})
	}
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
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				cc := newConn(c, "joiner", tun, nil)
				typ, p, err := cc.recv()
				if err != nil {
					cc.close()
					return
				}
				admitMu.Lock()
				if admitOpen {
					events <- cevent{w: -1, typ: typ, payload: p, cc: cc}
					admitMu.Unlock()
					return
				}
				admitMu.Unlock()
				cc.close()
			}(c)
		}
	}()

	readers := 0
	startReader := func(i int, cc *conn) {
		readers++
		go func() {
			for {
				typ, p, err := cc.recv()
				if err != nil {
					events <- cevent{w: i, err: err}
					return
				}
				events <- cevent{w: i, typ: typ, payload: p}
			}
		}()
	}
	for i, cw := range ws {
		if cw != nil && cw.cc != nil && cw.alive {
			startReader(i, cw.cc)
		}
	}

	phase := phaseMap
	var jobErr error
	reduceOutstanding := 0
	var mapElapsed time.Duration
	var reduceStart time.Time
	pendingKills := make(map[int]bool) // kills fired, death not yet observed
	pendingMembership := 0             // event-spawned churn not yet completed
	eventIdx := 0
	var queuedT []*transition
	var activeT *transition

	// Open scheduling spans: sched/assign keyed by (task, attempt),
	// sched/reduce by partition. A span ends when its done/failed report
	// lands; dispatches that die with their worker are simply never
	// recorded (the retry opens a fresh span).
	assignSpans := make(map[attemptKey]func())
	reduceSpans := make(map[int]func())
	var batches []spanBatchMsg

	countLive := func() int {
		c := 0
		for _, cw := range ws {
			if cw != nil && cw.alive && cw.state != wDrained {
				c++
			}
		}
		return c
	}
	// schedAlive is the scheduler's view of liveness: only wActive workers
	// may receive, steal or inherit tasks. Joiners still meshing and drain
	// targets are excluded so nothing is queued where it cannot run.
	schedAlive := func() []bool {
		v := make([]bool, len(ws))
		for i, cw := range ws {
			v[i] = cw != nil && cw.alive && cw.state == wActive
		}
		return v
	}
	activeIDs := func(except int) []int {
		var ids []int
		for i, cw := range ws {
			if i != except && cw != nil && cw.alive && cw.state == wActive {
				ids = append(ids, i)
			}
		}
		return ids
	}
	totalOutstanding := func() int {
		sum := 0
		for _, cw := range ws {
			if cw != nil && cw.alive {
				sum += cw.outstanding
			}
		}
		return sum
	}
	broadcast := func(f frame) {
		for _, cw := range ws {
			if cw != nil && cw.alive && cw.cc != nil && cw.state != wDrained {
				cw.cc.send(f)
			}
		}
	}

	var (
		fail                func(error)
		fill                func()
		maybeReduce         func()
		finishJob           func()
		fireEvents          func()
		startNextTransition func()
		tryAdvance          func()
		completeTransition  func()
		death               func(int)
	)

	// rehome moves every partition homed on a leaving worker — dead or
	// draining — across the active survivors, deterministically: ascending
	// partitions, cycling ascending ids. It returns the partitions moved.
	rehome := func(from int) map[int]bool {
		surv := activeIDs(from)
		moved := make(map[int]bool)
		for p, h := range homes {
			if h == from {
				homes[p] = surv[len(moved)%len(surv)]
				moved[p] = true
			}
		}
		return moved
	}

	journalMembership := func() {
		if jn == nil {
			return
		}
		if err := jn.append(jrMembership, encode(membershipRec())); err != nil {
			fail(err)
		}
	}

	fail = func(err error) {
		if jobErr == nil {
			jobErr = err
		}
		phase = phaseDone
		for _, cw := range ws {
			if cw != nil && cw.cc != nil {
				cw.cc.close() // hard: unblock every reader
			}
		}
	}

	// mapSlots is how many map tasks a worker may hold at once; the wire
	// shuffle of task k overlaps the kernel of task k+1 even at 1 because
	// sends are asynchronous.
	const mapSlots = 2

	// fill tops every active worker up to its mapSlots quota. Dispatch
	// pauses while a membership transition is queued or in flight: the
	// transition needs the cluster quiesced, and new attempts would stage
	// shuffle output across a partition map about to move.
	fill = func() {
		if phase != phaseMap || jobErr != nil || activeT != nil || len(queuedT) > 0 {
			return
		}
		sa := schedAlive()
		for w, cw := range ws {
			if cw == nil || !cw.alive || cw.state != wActive {
				continue
			}
			for cw.outstanding < mapSlots {
				t, ok := sched.next(w, sa)
				if !ok {
					break
				}
				id, endSpan := ctr.span(stageSchedAssign, 0)
				assignSpans[attemptKey{t, sched.attempt[t]}] = endSpan
				msg := mapTaskMsg{Task: t, Attempt: sched.attempt[t], SpanID: id}
				if holders == nil {
					msg.Block = o.Blocks[t]
				} else {
					// Block-store dispatch: a reference plus the replica set
					// still alive to serve it. AllowLocal=false is the
					// forced-remote baseline — even a holder must stream.
					msg.Ref = true
					msg.BlockSize = int64(len(o.Blocks[t]))
					msg.AllowLocal = o.Blockstore != "remote"
					for _, h := range holders[t] {
						if h < len(ws) && ws[h] != nil && ws[h].alive && ws[h].state != wDrained {
							msg.Holders = append(msg.Holders, h)
						}
					}
					if len(msg.Holders) == 0 {
						// Every replica is gone: embed the bytes — availability
						// beats locality, and the read books as remote.
						msg.Block = o.Blocks[t]
					}
				}
				cw.cc.send(frame{typ: mMapTask, payload: encode(&msg)})
				cw.outstanding++
			}
		}
	}

	finishJob = func() {
		if phase == phaseDone {
			return
		}
		phase = phaseDone
		if !reduceStart.IsZero() {
			res.ReduceElapsed = time.Since(reduceStart)
		}
		broadcast(frame{typ: mJobEnd})
		// Workers close their end after job-end; readers drain out.
	}

	// maybeReduce fires the reduce phase once every map task is resolved —
	// and, crucially, once no kill or membership change is pending: a kill
	// that has been triggered but whose death the coordinator has not yet
	// observed must not let reduce start against a store that is about to
	// be lost, and partitions must not move while reduce reads them.
	maybeReduce = func() {
		if phase != phaseMap || jobErr != nil || len(pendingKills) > 0 ||
			pendingMembership > 0 || activeT != nil || len(queuedT) > 0 ||
			sched.resolvedCount != sched.total {
			return
		}
		phase = phaseReduce
		if mapElapsed == 0 {
			mapElapsed = time.Since(start)
		}
		reduceStart = time.Now()
		for p := 0; p < o.Job.Partitions; p++ {
			if donePart[p] {
				continue // accepted before a restart or recovery; output is final
			}
			id, endSpan := ctr.span(stageSchedReduce, 0)
			reduceSpans[p] = endSpan
			ws[homes[p]].cc.send(frame{typ: mReduceTask, payload: encode(&reduceTaskMsg{
				Partition: p, Attempt: reduceAttempt[p], SpanID: id,
			})})
			reduceOutstanding++
		}
		if reduceOutstanding == 0 {
			finishJob()
		}
	}

	// fireEvents consumes elastic events whose progress threshold has been
	// met, strictly in order.
	fireEvents = func() {
		for jobErr == nil && eventIdx < len(o.Elastic) {
			e := o.Elastic[eventIdx]
			trigger, threshold := sched.resolvedCount, e.AfterMapDone
			if e.AfterReduceDone > 0 {
				trigger, threshold = donePartCount, e.AfterReduceDone
			}
			// A fired kill lands asynchronously. Hold later events until its
			// death is observed (death re-runs fireEvents), or a drain that
			// starts in between is aborted by that death and the schedule's
			// outcome depends on goroutine timing.
			if trigger < threshold || len(pendingKills) > 0 {
				return
			}
			// A drain or kill may target a joiner from an earlier event in the
			// schedule. While that join is still in flight (admission and
			// meshing are async, claimed by pendingMembership), hold the event
			// un-consumed — admission and transition completion re-run
			// fireEvents — instead of silently skipping it.
			if (e.Kind == "drain" || e.Kind == "kill") && pendingMembership > 0 &&
				(e.Worker >= len(ws) || ws[e.Worker] == nil || ws[e.Worker].state == wJoining) {
				return
			}
			eventIdx++
			switch e.Kind {
			case "join":
				if hooks.spawn != nil {
					pendingMembership++
					go hooks.spawn()
				}
			case "drain":
				if e.Worker >= 0 && e.Worker < len(ws) && ws[e.Worker] != nil &&
					ws[e.Worker].alive && ws[e.Worker].state == wActive {
					ws[e.Worker].state = wDraining
					pendingMembership++
					queuedT = append(queuedT, &transition{kind: "drain", target: e.Worker, claimed: true})
					startNextTransition()
				}
			case "kill":
				if hooks.kill != nil && e.Worker >= 0 && e.Worker < len(ws) &&
					ws[e.Worker] != nil && ws[e.Worker].alive {
					pendingKills[e.Worker] = true
					// The kill hook runs off-loop: it closes the victim's
					// coordinator link, which comes back as this loop's
					// death event.
					go hooks.kill(e.Worker)
				}
			case "restart":
				fail(&restartCrash{fired: eventIdx})
				return
			}
		}
	}

	// startNextTransition promotes the head of the transition queue,
	// dropping entries invalidated by deaths along the way.
	startNextTransition = func() {
		if activeT != nil || jobErr != nil {
			return
		}
		for activeT == nil && len(queuedT) > 0 {
			t := queuedT[0]
			queuedT = queuedT[1:]
			cw := ws[t.target]
			switch {
			case cw == nil || !cw.alive:
				if t.claimed {
					pendingMembership--
				}
			case t.kind == "drain" && len(activeIDs(t.target)) == 0:
				// Can't drain the last active worker; drop the drain.
				cw.state = wActive
				if t.claimed {
					pendingMembership--
				}
			default:
				activeT = t
			}
		}
		if activeT != nil {
			tryAdvance()
		}
	}

	// tryAdvance starts the active transition once the cluster is quiesced:
	// no outstanding map attempts means every shipped run has passed its
	// commit barrier, so the partition map can move without stranding
	// staged data. A fired kill must land first: its death would abort a
	// transition started under it, and whether it did would hang on
	// goroutine timing.
	tryAdvance = func() {
		if activeT == nil || activeT.started || jobErr != nil || phase != phaseMap {
			return
		}
		if totalOutstanding() > 0 || len(pendingKills) > 0 {
			return
		}
		t := activeT
		epoch++
		t.epoch = epoch
		joined, left := t.target, -1
		if t.kind == "join" {
			t.pending = make(map[int]bool)
			// Move ⌊P/live⌋ partitions to the joiner, one at a time from the
			// currently most-loaded owner (lowest id on ties) — deterministic
			// and balanced.
			surv := activeIDs(-1)
			want := len(homes) / (len(surv) + 1)
			for moved := 0; moved < want; moved++ {
				load := make(map[int]int)
				for _, h := range homes {
					load[h]++
				}
				donor, best := -1, 1
				for _, id := range surv {
					if load[id] > best {
						donor, best = id, load[id]
					}
				}
				if donor < 0 {
					break
				}
				for p := range homes {
					if homes[p] == donor {
						homes[p] = t.target
						t.pending[p] = true
						break
					}
				}
			}
			res.WorkersJoined++
		} else {
			joined, left = -1, t.target
			t.pending = rehome(t.target)
			sched.drain(t.target, schedAlive())
		}
		// Write-ahead: journal the new epoch before any worker hears of it.
		// A drain journals the target still data-alive — a resume must accept
		// its rejoin while un-handed-off partitions live only on it — while
		// the frame naming it Left announces it compute-dead, so peers stop
		// counting it in commit barriers and it flushes and hands off. The
		// second journal record at completion retires it fully.
		journalMembership()
		if jobErr != nil {
			return
		}
		if left >= 0 {
			ws[left].left = true
		}
		broadcast(membership(joined, left))
		t.started = true
		if o.Journal != nil {
			o.Journal.Info("rehome", "kind", t.kind, "target", t.target, "epoch", epoch, "moved", len(t.pending))
		}
		if len(t.pending) == 0 {
			completeTransition()
		}
	}

	completeTransition = func() {
		t := activeT
		if t == nil || !t.started || len(t.pending) > 0 {
			return
		}
		activeT = nil
		if t.claimed {
			pendingMembership--
		}
		if t.kind == "join" {
			ws[t.target].state = wActive
			// Rescue tasks stranded on dead workers' queues now that a fresh
			// active worker exists (possible only if every prior active died
			// while the joiner was meshing).
			sa := schedAlive()
			for i, cw := range ws {
				if (cw == nil || !cw.alive) && i < len(sched.queues) && len(sched.queues[i]) > 0 {
					sched.drain(i, sa)
				}
			}
		} else {
			epoch++
			cw := ws[t.target]
			cw.alive = false
			cw.state = wDrained
			res.WorkersDrained++
			journalMembership()
			if jobErr != nil {
				return
			}
			cw.cc.send(frame{typ: mDrained})
		}
		if o.Journal != nil {
			o.Journal.Info("membership-complete", "kind", t.kind, "target", t.target, "epoch", epoch)
		}
		fireEvents() // a drain/kill deferred on this join's completion can fire now
		startNextTransition()
		fill()
		maybeReduce()
	}

	death = func(w int) {
		cw := ws[w]
		if cw == nil || !cw.alive {
			return
		}
		cw.alive = false
		cw.outstanding = 0
		wasJoining := cw.state == wJoining
		res.WorkersLost++
		delete(pendingKills, w)
		if o.Journal != nil {
			o.Journal.Info("worker-dead", "worker", w, "live", countLive())
		}
		// Release any membership claims the dead worker holds.
		released := false
		keep := queuedT[:0]
		for _, t := range queuedT {
			if t.target == w {
				if t.claimed {
					pendingMembership--
				}
				released = true
				continue
			}
			keep = append(keep, t)
		}
		queuedT = keep
		if activeT != nil {
			t := activeT
			switch {
			case !t.started && t.target == w:
				if t.claimed {
					pendingMembership--
				}
				released = true
				activeT = nil
			case !t.started:
				// Bystander death while the transition awaits quiesce: keep
				// it; quiesce re-checks after redistribution.
			default:
				// Started: the handoff plan is invalidated — the dead worker
				// may be its source, target or destination. Abort: death
				// re-execution supersedes whatever moved, and the store's
				// epoch fence drops stale handoff remnants. A join target
				// survives as a full (empty-handed) member; a drain target
				// survives in limbo — compute-dead to its peers, data-alive,
				// owning nothing — and idles until job end.
				if t.kind == "join" && t.target != w {
					ws[t.target].state = wActive
				}
				if t.claimed {
					pendingMembership--
				}
				if t.target == w {
					released = true
				}
				activeT = nil
			}
		}
		// A joiner that died between spawn and its mJoinReady holds the
		// spawn-time claim with no transition to release it.
		if wasJoining && !released && hooks.spawn != nil {
			pendingMembership--
		}
		if countLive() == 0 {
			fail(fmt.Errorf("dist: all workers dead"))
			return
		}
		if len(activeIDs(-1)) == 0 {
			fail(fmt.Errorf("dist: no active workers left"))
			return
		}
		// Accepted outputs whose home just died take their resident records
		// with them: the dying store books them lost, so book them settled
		// here or the ledger reads them as recoverable losses. Zeroing makes
		// a second death of the partition's (empty-handed) next home book 0.
		for p, h := range homes {
			if h == w && donePart[p] {
				led.storeSettled.Add(settledResident[p])
				settledResident[p] = 0
			}
		}
		if donePartCount == o.Job.Partitions {
			// Every partition's output was already accepted — final by
			// definition — so the death recovers nothing. Finish instead of
			// re-executing the world.
			finishJob()
			return
		}
		if phase == phaseReduce {
			// Reduce-phase death is no longer fatal: cancel the reduce wave,
			// fall back to the map phase, and let death redistribution
			// re-execute what died with the worker's store. Partitions whose
			// output was already accepted keep it — first acceptance is
			// final — and late reports from the cancelled wave are still
			// accepted if their partition's data was complete.
			phase = phaseMap
			reduceOutstanding = 0
			for p, end := range reduceSpans {
				end()
				delete(reduceSpans, p)
			}
			for p := 0; p < o.Job.Partitions; p++ {
				if !donePart[p] {
					reduceAttempt[p]++
				}
			}
		}
		rehome(w)
		epoch++
		sched.death(w, schedAlive())
		journalMembership()
		if jobErr != nil {
			return
		}
		broadcast(membership(-1, -1))
		// Events held behind this kill can fire now. And the death may have
		// aborted the active transition: promote the next queued one, or
		// nothing ever will and dispatch stays paused.
		fireEvents()
		startNextTransition()
		fill()
		tryAdvance()
		maybeReduce()
	}

	fill()
	fireEvents()
	maybeReduce() // a resumed job may already have every task and partition done

	for readers > 0 {
		ev := <-events
		if ev.w < 0 {
			// Admission: a candidate's first frame, handshaken off-loop.
			cc := ev.cc
			if jobErr != nil || phase == phaseDone {
				cc.close()
				continue
			}
			switch ev.typ {
			case mJoin:
				// Joiners are admitted in either phase: a mid-reduce joiner
				// meshes, idles (its transition waits for a map phase that may
				// never come back) and exits at job end — refusing it would
				// strand its spawn claim.
				var h helloMsg
				if err := decode(ev.payload, &h).fin("hello"); err != nil {
					cc.close()
					continue
				}
				id := len(ws)
				cw := &cworker{cc: cc, addr: h.ListenAddr, alive: true, state: wJoining, clock: &clockEstimator{}}
				ws = append(ws, cw)
				sched.join(id)
				cc.enableClock(cw.clock, tun.heartbeatEvery)
				ps := make([]string, len(ws))
				for i, w2 := range ws {
					if w2 != nil && w2.alive && w2.cc != nil {
						ps[i] = w2.addr
					}
				}
				cc.send(frame{typ: mWelcome, payload: encode(&welcomeMsg{WorkerID: id, Workers: len(ws)})})
				cc.send(frame{typ: mJobStart, payload: encode(&jobStartMsg{
					Job: o.Job, TraceID: traceID, Peers: ps, Homes: homes, Epoch: epoch, Live: true,
				})})
				startReader(id, cc)
				if o.Journal != nil {
					o.Journal.Info("worker-join", "worker", id, "addr", h.ListenAddr)
				}
				fireEvents() // a deferred drain/kill of this joiner can fire now
			case mRejoin:
				// A pre-crash joiner whose admission post-dates the journal's
				// last membership record, rejoining late (after resume
				// formation already closed). Adopt it like the formation path.
				var m rejoinMsg
				if err := decode(ev.payload, &m).fin("rejoin"); err != nil || m.WorkerID < len(ws) || m.Epoch > epoch {
					cc.close()
					continue
				}
				adopt(m, cc)
				cc.send(membership(-1, -1))
				startReader(m.WorkerID, cc)
				fill()
			default:
				cc.close()
			}
			continue
		}
		if ev.err != nil {
			readers--
			if phase != phaseDone {
				death(ev.w)
			} else if ws[ev.w] != nil && ws[ev.w].alive {
				ws[ev.w].alive = false
			}
			continue
		}
		if ev.typ == mSpanBatch {
			// Span batches arrive as workers wind down — drained workers
			// mid-job, everyone else after job-end — so they are handled
			// ahead of the drain check below.
			var m spanBatchMsg
			if decode(ev.payload, &m).fin("span-batch") == nil {
				batches = append(batches, m)
			}
			continue
		}
		if phase == phaseDone {
			continue // draining
		}
		switch ev.typ {
		case mMapDone:
			var m mapDoneMsg
			if err := decode(ev.payload, &m).fin("map-done"); err != nil {
				fail(err)
				continue
			}
			// Clamp rather than decrement blindly: a resumed coordinator can
			// receive reports for attempts dispatched before the crash.
			if ws[ev.w].outstanding > 0 {
				ws[ev.w].outstanding--
			}
			if end := assignSpans[attemptKey{m.Task, m.Attempt}]; end != nil {
				end()
				delete(assignSpans, attemptKey{m.Task, m.Attempt})
			}
			if sched.done(m.Task, m.Attempt) {
				interPairs[m.Task] = m.Stats.PairsOut
				if jn != nil {
					// The journal record is the payload itself.
					if err := jn.append(jrMapDone, ev.payload); err != nil {
						fail(err)
						continue
					}
				}
				fireEvents()
			}
			fill()
			tryAdvance()
			maybeReduce()
		case mMapFailed:
			var m taskFailMsg
			if err := decode(ev.payload, &m).fin("task-fail"); err != nil {
				fail(err)
				continue
			}
			if ws[ev.w].outstanding > 0 {
				ws[ev.w].outstanding--
			}
			if end := assignSpans[attemptKey{m.Task, m.Attempt}]; end != nil {
				end()
				delete(assignSpans, attemptKey{m.Task, m.Attempt})
			}
			if o.Journal != nil {
				o.Journal.Info("map-retry", "task", m.Task, "attempt", m.Attempt, "worker", ev.w, "reason", m.Reason)
			}
			if err := sched.fail(m.Task, m.Attempt, ev.w, schedAlive(), m.Reason); err != nil {
				fail(err)
				continue
			}
			fill()
			tryAdvance()
		case mJoinReady:
			// The joiner's peer mesh is connected; it can own partitions now.
			cw := ws[ev.w]
			if cw != nil && cw.alive && cw.state == wJoining {
				queuedT = append(queuedT, &transition{kind: "join", target: ev.w, claimed: hooks.spawn != nil})
				startNextTransition()
			}
		case mHandoffDone:
			var m handoffDoneMsg
			if err := decode(ev.payload, &m).fin("handoff-done"); err != nil {
				fail(err)
				continue
			}
			if activeT != nil && activeT.started && m.Epoch == activeT.epoch {
				delete(activeT.pending, m.Partition)
				completeTransition()
			}
		case mReduceDone:
			var m reduceDoneMsg
			if err := decode(ev.payload, &m).fin("reduce-done"); err != nil {
				fail(err)
				continue
			}
			if m.Partition < 0 || m.Partition >= o.Job.Partitions {
				fail(fmt.Errorf("dist: reduce-done for unknown partition %d", m.Partition))
				continue
			}
			// Count a partition against the wave once: a reduce task the
			// crashed coordinator dispatched can report to its resumed
			// successor, under the same attempt number as the re-dispatch.
			if end := reduceSpans[m.Partition]; end != nil && m.Attempt == reduceAttempt[m.Partition] {
				reduceOutstanding--
				end()
				delete(reduceSpans, m.Partition)
			}
			if !donePart[m.Partition] {
				pairs, err := kv.Unmarshal(m.Output)
				if err != nil {
					fail(fmt.Errorf("dist: partition %d output: %w", m.Partition, err))
					continue
				}
				if jn != nil {
					if err := jn.append(jrReduceDone, ev.payload); err != nil {
						fail(err)
						continue
					}
				}
				donePart[m.Partition] = true
				donePartCount++
				settledResident[m.Partition] = m.RecordsIn
				outputs[m.Partition] = pairs
				res.OutputPairs += len(pairs)
				// Reduce-side conservation books at first acceptance, here on
				// the coordinator: recoveries and restarts can run a
				// partition's kernel more than once, but only one report may
				// count or the ledger double-books.
				led.ReduceRecordsIn.Add(m.RecordsIn)
				led.ReduceGroupsIn.Add(m.GroupsIn)
				led.OutputPairs.Add(int64(len(pairs)))
				fireEvents()
			}
			// A fired kill whose death has not yet been observed blocks
			// completion: the scheduled churn must land (and be recovered
			// from) before the job may declare itself done.
			if phase == phaseReduce && reduceOutstanding == 0 && len(pendingKills) == 0 {
				finishJob()
			}
		case mReduceFailed:
			var m taskFailMsg
			err := decode(ev.payload, &m).fin("task-fail")
			if err == nil {
				err = fmt.Errorf("dist: reduce partition %d failed: %s", m.Task, m.Reason)
			}
			fail(err)
		default:
			fail(fmt.Errorf("dist: unexpected %s from worker %d", typeName(ev.typ), ev.w))
		}
	}

	if jobErr != nil {
		return nil, jobErr
	}
	for _, t := range interPairs {
		res.IntermediatePairs += t
	}
	res.MapRetries = sched.retries
	res.MapRecoveries = sched.recoveries
	res.MapElapsed = mapElapsed
	res.Total = time.Since(start)
	res.outputs = outputs

	// Merge the cluster's trace: the coordinator's own scheduling spans plus
	// every worker's span batch, rebased from the worker's epoch onto ours.
	// The rebase is (worker epoch − coordinator epoch) by the two wall
	// clocks, minus the estimated offset between those clocks — after which
	// a worker that booted with its clock an hour ahead still lands its
	// spans where they causally belong on the coordinator timeline.
	res.TraceID = traceID
	res.ClockOffsets = make(map[int]float64)
	res.ClockRTTs = make(map[int]float64)
	for i, cw := range ws {
		if cw == nil || cw.clock == nil {
			continue
		}
		if off, rtt, ok := cw.clock.estimate(); ok {
			res.ClockOffsets[i] = off / 1e9
			res.ClockRTTs[i] = float64(rtt) / 1e9
		}
	}
	if o.Telemetry != nil && o.Telemetry.Spans != nil {
		for _, s := range ctr.spans() {
			o.Telemetry.Spans.Span(s)
		}
		coordEpoch := ctr.epoch.UnixNano()
		for _, b := range batches {
			var offNs float64
			if b.Node >= 0 && b.Node < len(ws) && ws[b.Node] != nil && ws[b.Node].clock != nil {
				if off, _, ok := ws[b.Node].clock.estimate(); ok {
					offNs = off
				}
			}
			delta := (float64(b.EpochUnixNano-coordEpoch) - offNs) / 1e9
			for _, s := range b.Spans {
				s.Start += delta
				s.End += delta
				o.Telemetry.Spans.Span(s)
			}
		}
	}
	return res, nil
}

// Serve runs a coordinator for one job at addr, waiting for o.Workers
// multi-process workers (cmd/distnode) to join — or, with o.Resume set,
// for the journaled membership to rejoin. Loopback-only Options fields are
// ignored.
func Serve(addr string, o Options) (*Result, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: coordinator listen: %w", err)
	}
	defer ln.Close()
	return serve(ln, o, nil, loopHooks{})
}
