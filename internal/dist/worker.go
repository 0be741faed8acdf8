package dist

import (
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"time"

	"glasswing/internal/blockstore"
	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/native"
	"glasswing/internal/obs"
)

// Join connects one worker process to the coordinator at coordAddr,
// executes its share of the job, and returns when the job ends. The
// application is resolved by name through the registry; listenAddr is the
// peer-facing listener (use ":0" to let the kernel pick). Telemetry (may be
// nil) receives this process's slice of the conservation ledger.
func Join(coordAddr, listenAddr string, tun Tuning, tel *obs.Telemetry) error {
	_, err := runWorker(workerConfig{
		coordAddr:  coordAddr,
		listenAddr: listenAddr,
		tun:        tun,
		led:        newLedger(tel),
		resolve:    RegistryResolver,
		localSpans: true,
		journal:    slog.Default(),
	})
	return err
}

// Resolver reconstructs an application from its wire spec. Code never
// crosses the network: both ends run the same binary and look the app up
// locally (registry.go provides the default; loopback injects the job's
// App directly).
type Resolver func(spec AppSpec) (*core.App, func(key []byte, n int) int, error)

// workerConfig configures one worker node.
type workerConfig struct {
	coordAddr  string
	listenAddr string // peer-facing listener ("127.0.0.1:0" for loopback)
	tun        Tuning
	led        *ledger // shared by the whole cluster in loopback
	resolve    Resolver
	// mapFault, if set, fails map attempts after the kernel but before any
	// partitioning or sends — the same injection point as the sim core's
	// FaultInjector, so failed attempts have no observable shuffle effect.
	mapFault func(task, attempt int) bool
	// onWelcome is called once the coordinator assigns this worker's id,
	// with the function that kills it (loopback wires its kill hook so).
	onWelcome func(id int, kill func())
	// localSpans additionally copies this worker's trace spans into its own
	// telemetry bundle after the job (multi-process Join, where the local
	// process wants its own view). Loopback leaves it off: there the
	// coordinator's merged, clock-aligned trace is the only copy, so spans
	// are never duplicated into the shared buffer.
	localSpans bool
	// journal, if set, receives this worker's structured events (today:
	// spilling disarmed by a disk error).
	journal *slog.Logger
	// coordGone, if set, is closed once no coordinator will listen at
	// coordAddr again (loopback, when serve has returned for good): a
	// worker redialing its coordinator gives up then, not at the end of
	// its RejoinGrace. Join passes none.
	coordGone <-chan struct{}
}

// worker is one node of the distributed runtime: an I/O shell around its
// decision state. Every decision is st.step's, taken in do under the one
// lock, mu; the shell owns what step may not touch — the links, the
// executor and the goroutines that read the links.
type worker struct {
	cfg workerConfig
	tun Tuning
	led *ledger
	tr  *obs.Tracer

	// Set by start, from the welcome and job-start, before any other
	// goroutine reads them.
	id      int
	job     Job
	traceID uint64
	app     *core.App
	prt     func(key []byte, n int) int
	lnAddr  string // our peer-facing listen address

	execCh    chan *execItem
	fetchDone chan weffect // the executor's block fetch, resolved: wfxFetched
	stop      chan struct{}
	wg        sync.WaitGroup

	mu     sync.Mutex
	st     *wstate
	coord  *conn   // replaced by the rejoin path after a coordinator restart
	peers  []*conn // by worker id; nil at own slot or unlinked
	timers []*time.Timer

	// Scratch-disk state (block-store replicas + spill files), written only
	// by the coordinator loop, before any other goroutine reads it (see
	// scratch in blockio.go).
	workdir string
	wdErr   error
	bstore  *blockstore.Store
}

// runWorker joins the coordinator at cfg.coordAddr, executes one job, and
// returns whether the worker was killed mid-job (loopback fault cells) and
// any unexpected error.
func runWorker(cfg workerConfig) (killed bool, err error) {
	tun := cfg.tun.withDefaults()
	led := cfg.led
	w := &worker{
		cfg:       cfg,
		tun:       tun,
		led:       led,
		execCh:    make(chan *execItem, 4096),
		fetchDone: make(chan weffect, 1),
		stop:      make(chan struct{}),
	}
	ln, err := net.Listen("tcp", cfg.listenAddr)
	if err != nil {
		return false, fmt.Errorf("dist: worker listen: %w", err)
	}
	defer ln.Close()
	w.lnAddr = ln.Addr().String()
	w.st = newWState(w.lnAddr, newShuffleStore(), led)

	cc, err := dialCoord(cfg.coordAddr, tun, time.Now().Add(tun.RejoinGrace), cfg.coordGone, newFrame(mJoin, &helloMsg{ListenAddr: w.lnAddr}))
	if err != nil {
		return false, err
	}
	w.do(wevent{kind: weCoordUp, cc: cc})
	cc, killed, err = w.coordLoop(cc, ln)

	close(w.stop)
	if err == nil && !killed {
		// Ship this node's trace spans before closing the coordinator link.
		// The FIFO connection guarantees the batch precedes our EOF, so the
		// coordinator always has it by the time its reader drains. A killed
		// or failed worker sends nothing — its partial timeline died with it.
		cc.send(newFrame(mSpanBatch, &spanBatchMsg{
			TraceID:       w.traceID,
			Node:          w.id,
			EpochUnixNano: w.tr.Epoch().UnixNano(),
			Spans:         w.tr.Spans(),
		}))
		cc.flush()
	}
	cc.close()
	// Every link seals once its queue is out, and its reader drains it to
	// the peer's EOF: a peer's reader closes its side on ours, so every
	// frame sent either side is booked received or lost.
	w.do(wevent{kind: weEnd})
	ln.Close() // unblock the peer acceptor
	w.wg.Wait()
	if w.workdir != "" {
		// Every goroutine has joined: nothing still reads replicas or spill
		// files. Block replicas are job-scoped (the coordinator re-ingests on
		// resume), so the scratch dir goes with the worker.
		os.RemoveAll(w.workdir)
	}
	if cfg.localSpans && w.tr != nil && led.tel != nil && led.tel.Spans != nil {
		for _, s := range w.tr.Spans() {
			led.tel.Spans.Span(s)
		}
	}
	if killed {
		return true, nil
	}
	return false, err
}

// do is the worker's one way into a decision: it steps the state under the
// lock, then performs the effects in order with the lock released, and
// returns them. Blocking bulk sends are performed by whoever caused them —
// the executor ships its own attempts; handoffs stream on their own
// goroutine — so a full send window never stalls a reader.
func (w *worker) do(ev wevent) []weffect {
	fx := w.decide(ev)
	for _, e := range fx {
		w.perform(e)
	}
	return fx
}

// decide is do's locked half: it steps the state, installs a link step
// accepted — queueing its hello reply there, so no frame another goroutine
// sends on the link can overtake it — arms the deadlines step asks for, and
// resolves every effect's peer to its link.
func (w *worker) decide(ev wevent) []weffect {
	var old *conn
	w.mu.Lock()
	fx := w.st.step(ev)
	if ev.kind == weEnd {
		for _, t := range w.timers {
			t.Stop() // a pending deadline would keep this worker reachable
		}
	}
	for i := range fx {
		e := &fx[i]
		switch {
		case e.op == wfxTimer:
			j := e.peer
			w.timers = append(w.timers, time.AfterFunc(peerMeshTimeout, func() { w.do(wevent{kind: weTimeout, peer: j}) }))
		case e.op == wfxAccept && e.peer == coordPeer:
			old, w.coord = w.coord, ev.cc
		case e.op == wfxAccept:
			for len(w.peers) <= e.peer {
				w.peers = append(w.peers, nil)
			}
			w.peers[e.peer] = ev.cc
			if e.f.buf != nil {
				ev.cc.send(e.f) // not bulk: never blocks
			}
		}
		switch {
		case e.op == wfxAccept || e.op == wfxRefuse:
			e.cc = ev.cc
		case e.peer == coordPeer:
			e.cc = w.coord
		case e.peer < len(w.peers):
			e.cc = w.peers[e.peer]
		}
	}
	w.mu.Unlock()
	if old != nil {
		old.close()
	}
	return fx
}

// perform carries out one effect; the caller acts on those it returns
// (exit, redial, reduce).
func (w *worker) perform(e weffect) {
	switch e.op {
	case wfxSend:
		e.cc.send(e.f)
	case wfxShip:
		if e.sh.typ == mRunBatch {
			// The executor ships its attempt itself, so a full send window
			// holds its next kernel back.
			e.sh.stream(w.led, w.tr, w.traceID, e.cc.send)
			return
		}
		sh, cc := e.sh, e.cc
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			sh.stream(w.led, w.tr, w.traceID, cc.send)
		}()
	case wfxSeal:
		if e.peer == coordPeer {
			e.cc.close()
		} else {
			e.cc.seal()
		}
	case wfxDial:
		w.wg.Add(1)
		go w.dial(e.peer, e.addr)
	case wfxExec:
		// The queue holds pointers: its 4,096 slots cost 32 KiB, not a
		// 128-byte item each, whatever the job's task count.
		it := new(execItem)
		*it = e.task
		w.execCh <- it
	case wfxAccept:
		if e.peer != coordPeer {
			w.wg.Add(1)
			go w.peerReader(e.peer, e.cc)
		}
	case wfxRefuse:
		e.cc.close()
	case wfxFinish:
		e.cc.shutdown()
	case wfxFetched:
		w.fetchDone <- e // buffered: one fetch in flight
	case wfxServe:
		// The store was opened before the step that marked the block
		// ingested, or the read fails with no store at all.
		w.wg.Add(1)
		go w.serve(e.cc, w.bstore, e.block, e.nonce)
	}
}

// kill simulates this worker dying mid-job (loopback fault cells).
func (w *worker) kill() { w.do(wevent{kind: weKill}) }

// peerMeshTimeout bounds the wait for a peer this worker needs a link to —
// a formation peer, or one owed a handoff or marks: one alive but
// unreachable would otherwise hold the job forever.
var peerMeshTimeout = 60 * time.Second

// newPeerConn wraps a peer link with the worker's loss accounting and
// net/send span hooks. The span id was minted by shipment.frame (it rides
// inside the frame payload, so the receiver can parent on it); the parent is
// the map kernel whose attempt the frame ships. The span is recorded on the
// pump goroutine, where the socket write actually happens — the wall-clock
// interval that overlaps the executor's map spans in the trace.
func (w *worker) newPeerConn(c net.Conn, name string) *conn {
	cc := newConn(c, name, w.tun, w.led.dropped)
	cc.onBulkDone = func(f *frame) { w.tr.RecordID(f.spanID, obs.StageNetSend, f.enq, f.spanParent, nil) }
	cc.onBulkTiming = w.led.bulkTiming
	return cc
}

// dialCoord dials the coordinator until the deadline or until gone is
// closed, trying at least once, and sends first on the new link.
func dialCoord(addr string, tun Tuning, deadline time.Time, gone <-chan struct{}, first frame) (*conn, error) {
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			cc := newConn(c, "coord", tun, nil)
			cc.send(first)
			return cc, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("dist: dialing coordinator: %w", err)
		}
		select {
		case <-gone:
			return nil, fmt.Errorf("dist: dialing coordinator: %w", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// start takes the job on from the coordinator's welcome and job-start,
// before they are stepped: the tracer, the job and its app, the store's
// spill, the peer acceptor and the executor. A coordinator crash before our
// job-start is redialed with a fresh join, and welcomes us anew.
func (w *worker) start(typ byte, p []byte, ln net.Listener) error {
	if typ == mWelcome {
		var wel welcomeMsg
		if err := decode(p, &wel).fin("welcome"); err != nil {
			return err
		}
		w.id, w.tr = wel.WorkerID, obs.NewTracer(wel.WorkerID, new(obs.SpanBuffer))
		return nil
	}
	var js jobStartMsg
	if err := decode(p, &js).fin("job-start"); err != nil {
		return err
	}
	w.job, w.traceID = js.Job.withDefaults(), js.TraceID
	app, prt, err := w.cfg.resolve(w.job.App)
	if err != nil {
		return fmt.Errorf("dist: resolving app %q: %w", w.job.App.Name, err)
	}
	if prt == nil {
		prt = kv.Partition
	}
	w.app, w.prt = app, prt
	if w.tun.SpillThreshold > 0 {
		// Armed before the job-start step dials the mesh — runs commit as
		// soon as a peer's first mark lands — and before any goroutine but
		// this one touches the store.
		journal := w.cfg.journal
		if journal != nil {
			journal = journal.With("worker", w.id)
		}
		dir, err := w.scratch()
		w.st.store.enableSpill(w.tun.SpillThreshold, func() (string, error) { return dir, err }, w.led, w.tr, journal)
	}
	if w.cfg.onWelcome != nil {
		w.cfg.onWelcome(w.id, w.kill)
	}
	w.wg.Add(2)
	go w.peerAcceptor(ln)
	go w.executor()
	return nil
}

// dial links to peer j, retrying while its listener comes up or closes
// without a hello, and steps the link up once j's hello comes back. Should
// every try fail, the step decides: a peer still alive and unlinked is
// dialed again; one announced dead leaves the mesh's need set.
func (w *worker) dial(j int, addr string) {
	defer w.wg.Done()
	for try := 0; try < 50; try++ {
		if c, err := net.Dial("tcp", addr); err == nil {
			cc := w.newPeerConn(c, fmt.Sprintf("peer%d", j))
			cc.send(newFrame(mPeerHello, &peerHelloMsg{WorkerID: w.id}))
			var ph peerHelloMsg
			if typ, p, err := cc.recv(); err == nil && typ == mPeerHello && decode(p, &ph).fin("peer-hello") == nil && ph.WorkerID == j {
				w.do(wevent{kind: weLinkUp, peer: j, cc: cc})
				return
			}
			cc.close()
		}
		time.Sleep(20 * time.Millisecond)
	}
	w.do(wevent{kind: weDialFailed, peer: j, addr: addr})
}

// peerAcceptor admits peer links for the life of the job — the formation
// mesh's higher-id dialers first, later any worker that joins the cluster
// mid-job. It exits when the listener closes.
func (w *worker) peerAcceptor(ln net.Listener) {
	defer w.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		w.wg.Add(1)
		go func(c net.Conn) {
			defer w.wg.Done()
			cc := w.newPeerConn(c, "peer?")
			typ, p, err := cc.recv()
			var ph peerHelloMsg
			if err != nil || typ != mPeerHello || decode(p, &ph).fin("peer-hello") != nil {
				cc.close()
				return
			}
			w.do(wevent{kind: weLinkUp, peer: ph.WorkerID, cc: cc,
				f: newFrame(mPeerHello, &peerHelloMsg{WorkerID: w.id})})
		}(c)
	}
}

// coordLoop steps coordinator frames from our join until job end, drain
// completion, our own kill, or the loss of the coordinator, and returns the
// link it last read. Mesh formation is its first phase: a membership frame
// landing while the mesh forms is stepped like any other. With RejoinGrace
// set, a lost coordinator link is redialed — the path a restarted,
// journal-resumed coordinator picks its workers back up by; its first frame
// (a membership refresh, or a drained notice if the journal says we already
// left) is stepped like any other. The grace also covers the join itself: a
// coordinator ingesting a large input file opens its listener only after
// the read.
func (w *worker) coordLoop(cc *conn, ln net.Listener) (last *conn, killed bool, err error) {
	var rejoinUntil time.Time
	for {
		typ, p, rerr := cc.recv()
		ev := wevent{kind: weFrame, peer: coordPeer, typ: typ, p: p}
		switch {
		case rerr != nil:
			ev = wevent{kind: weLinkDown, peer: coordPeer}
		case typ == mBlockPut:
			// Ingest precedes every map task on the FIFO link, so a Ref task
			// never races its own replica.
			if err := w.ingest(p); err != nil {
				return cc, false, err
			}
			continue
		case typ == mWelcome || typ == mJobStart:
			if err := w.start(typ, p, ln); err != nil {
				return cc, false, err
			}
			fallthrough
		default:
			rejoinUntil = time.Time{}
		}
		fx := w.do(ev)
		for i := 0; i < len(fx); i++ {
			switch e := fx[i]; e.op {
			case wfxExit:
				return cc, e.killed, e.err
			case wfxRedial:
				if w.tun.RejoinGrace <= 0 {
					return cc, false, fmt.Errorf("dist: lost coordinator: %w", rerr)
				}
				if rejoinUntil.IsZero() {
					rejoinUntil = time.Now().Add(w.tun.RejoinGrace)
				}
				ncc, err := dialCoord(w.cfg.coordAddr, w.tun, rejoinUntil, w.cfg.coordGone, e.f)
				if err != nil {
					return cc, false, fmt.Errorf("dist: lost coordinator: %w", rerr)
				}
				cc = ncc
				fx = append(fx, w.do(wevent{kind: weCoordUp, cc: ncc})...)
			}
		}
	}
}

// executor runs map and reduce tasks serially; shuffle sends are
// asynchronous (the connection write pumps own the sockets), so task k's
// network transfer overlaps task k+1's kernel — the paper's stage-4
// compute/communication overlap.
func (w *worker) executor() {
	defer w.wg.Done()
	var merger kv.Merger // reused for every partition this worker reduces
	for {
		select {
		case <-w.stop:
			return
		case it := <-w.execCh:
			if it.reduce {
				w.runReduce(it.redTask, &merger)
			} else {
				w.runMap(it.mapTask)
			}
		}
	}
}

// report sends f to the coordinator unless this worker has been killed.
func (w *worker) report(f frame) { w.do(wevent{kind: weSend, f: f}) }

// runMap executes one map attempt's kernel and partitioner and steps the
// built attempt, whose shipments this executor then streams. Runs are built
// compressed when the job compresses, and stored, spilled, shipped and
// handed off as those bytes.
func (w *worker) runMap(m mapTaskMsg) {
	fail := func(reason string) {
		w.report(newFrame(mMapFailed, &taskFailMsg{Task: m.Task, Attempt: m.Attempt, Reason: reason}))
	}
	// Resolve the task's input first: embedded bytes for classic jobs, the
	// block store (own disk, or fetched from a holder) for Ref tasks. The
	// acquisition gets its own map/input span tagged with where the bytes
	// came from — the per-split locality evidence in the merged trace.
	t0 := time.Now()
	block, locality, err := w.acquireBlock(m)
	if err != nil {
		fail(err.Error())
		return
	}
	if locality != "" {
		w.tr.RecordID(w.tr.NewID(), obs.StageMapInput, t0, m.SpanID, map[string]string{
			"locality": locality,
			"block":    fmt.Sprintf("%d", m.Task),
		})
	}

	// The kernel span parents on the coordinator's sched/assign span for
	// this attempt; everything downstream (partitioning, the shuffle sends)
	// parents on the kernel, forming the causal chain the merged trace
	// draws as flow arrows.
	t0 = time.Now()
	chunk := native.MapBlock(w.app, block, w.job.UseCombiner)
	kernelID := w.tr.Record(obs.StageMapKernel, t0, m.SpanID)

	if w.cfg.mapFault != nil && w.cfg.mapFault(m.Task, m.Attempt) {
		// Fail before partitioning: like the sim core, a failed attempt has
		// produced nothing durable and nothing has touched the wire.
		chunk.Release()
		fail("injected fault")
		return
	}

	t0 = time.Now()
	runs, stats := chunk.Partition(w.prt, w.job.Partitions, w.job.Compress)
	w.tr.Record(obs.StageMapPartition, t0, kernelID)
	w.do(wevent{kind: weBuilt, built: &builtMap{task: m.Task, attempt: m.Attempt, runs: runs, stats: stats, span: kernelID}})
}

// runReduce merges one home partition's committed runs and applies the
// reduce kernel (or drains merged pairs for reduce-less apps), reporting
// the partition's output to the coordinator. The reduce-side conservation
// counters are booked by the coordinator at acceptance, not here: under
// kills and coordinator restarts a partition can be recomputed, and only
// the first accepted report may count.
func (w *worker) runReduce(rt reduceTaskMsg, merger *kv.Merger) {
	defer w.tr.Record(obs.StageReduce, time.Now(), rt.SpanID)
	// The step hands out the partition's runs as iterators, drained here
	// outside the lock: resident runs are immutable once committed, and a
	// concurrent spill of this partition only drops the store's reference —
	// the blob an iterator already holds stays valid.
	for _, e := range w.do(wevent{kind: weReduce, part: rt.Partition}) {
		if e.op != wfxReduce {
			continue
		}
		defer e.closeIters()
		out, recordsIn, groups := native.ReducePartition(w.app, merger, e.iters)
		if err := e.iterErr(); err != nil {
			// A spilled run failed to stream back: this partition's merge is
			// incomplete, so fail the attempt instead of reporting short output.
			w.report(newFrame(mReduceFailed, &taskFailMsg{
				Task: rt.Partition, Attempt: rt.Attempt, Reason: err.Error(),
			}))
			return
		}
		w.report(newFrame(mReduceDone, &reduceOutMsg{reduceDoneMsg{
			Partition: rt.Partition, Attempt: rt.Attempt,
			RecordsIn: recordsIn, GroupsIn: groups, Pairs: out,
		}}))
	}
}

// peerReader owns the inbound side of one peer link, until it reaches EOF
// or fails.
func (w *worker) peerReader(j int, cc *conn) {
	defer w.wg.Done()
	for {
		typ, p, err := cc.recv()
		if err != nil {
			cc.close()
			w.do(wevent{kind: weLinkDown, peer: j})
			return
		}
		t0 := time.Now()
		ev, sendSpan, err := peerEvent(j, typ, p)
		if err == nil {
			w.do(ev)
		}
		if typ == mRunBatch || typ == mHandoff {
			// The staging span parents on the sender's net/send span.
			w.tr.Record(obs.StageNetRecv, t0, sendSpan)
		}
	}
}

// peerEvent is the event frame typ/p from peer j steps as. A run batch or a
// handoff — both runBatchMsg — is decoded here, outside the lock, into the
// event's runs; one that does not decode is not stepped. sendSpan is its
// net/send span.
func peerEvent(j int, typ byte, p []byte) (ev wevent, sendSpan uint64, err error) {
	ev = wevent{kind: weFrame, peer: j, typ: typ, p: p}
	if typ == mRunBatch || typ == mHandoff {
		var msg runBatchMsg
		if err = decode(p, &msg).fin("run-batch"); err == nil {
			err = decode(msg.Body, &ev.runs).fin("run-batch entries")
		}
		return ev, msg.SendSpan, err
	}
	return ev, 0, nil
}
