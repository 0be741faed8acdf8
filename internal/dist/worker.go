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
	// onWelcome is called once the coordinator assigns this worker's id
	// (loopback uses it to wire the kill hook).
	onWelcome func(w *worker)
	// localSpans additionally copies this worker's trace spans into its own
	// telemetry bundle after the job (multi-process Join, where the local
	// process wants its own view). Loopback leaves it off: there the
	// coordinator's merged, clock-aligned trace is the only copy, so spans
	// are never duplicated into the shared buffer.
	localSpans bool
	// journal, if set, receives this worker's structured events (today:
	// spilling disarmed by a disk error).
	journal *slog.Logger
}

// pendingDone tracks the commit barrier of one finished map attempt: the
// peers whose acks are still outstanding, and the attempt's stats to flush
// when the last ack lands.
type pendingDone struct {
	acks  map[int]bool
	stats attemptStats
}

// peerMeshTimeout bounds how long a worker waits for the peer mesh to form
// (or for a handoff destination to become dialable) before giving up.
const peerMeshTimeout = 60 * time.Second

// worker is one node of the distributed runtime.
type worker struct {
	cfg workerConfig
	tun Tuning
	led *ledger
	tr  *tracer

	id      int
	job     Job
	traceID uint64
	app     *core.App
	prt     func(key []byte, n int) int
	live    bool   // joined a job already underway
	lnAddr  string // our peer-facing listen address

	// conn callbacks shared by dialed and accepted peer links.
	onDrop       func(records, acct int64)
	onBulkWrite  func(f *frame) func()
	onBulkTiming func(queueNs, writeNs int64)

	execCh chan execItem
	stop   chan struct{}
	wg     sync.WaitGroup

	mu        sync.Mutex
	n         int          // cluster width; grows as workers join
	coord     *conn        // replaced by the rejoin path after a coordinator restart
	peers     []*conn      // index by worker id; nil at own slot or unconnected
	coal      []*coalescer // per-peer outbound run coalescers, parallel to peers
	peerAddrs []string     // "" = departed or never announced
	store     *shuffleStore
	epoch     int
	homes     []int
	alive     []bool
	settled   []bool // partitions with a settled final output: stage nothing for them
	meshed    bool   // setupPeers returned: every live peer is linked
	killed    bool
	drained   bool
	ackWait   map[attemptKey]*pendingDone

	// Scratch-disk state (block-store replicas + spill files). wdMu and bsMu
	// are leaf locks — never taken while holding them; fetchMu guards the
	// in-flight remote block reads (blockio.go).
	wdMu    sync.Mutex
	workdir string
	wdErr   error
	bsMu    sync.Mutex
	bstore  *blockstore.Store

	fetchMu  sync.Mutex
	fetchCtr uint64
	fetches  map[uint64]*blockFetchWait
}

type execItem struct {
	reduce  bool
	mapTask mapTaskMsg
	redTask reduceTaskMsg
}

// runWorker joins the coordinator at cfg.coordAddr, executes one job, and
// returns whether the worker was killed mid-job (loopback fault cells) and
// any unexpected error.
func runWorker(cfg workerConfig) (killed bool, err error) {
	tun := cfg.tun.withDefaults()
	led := cfg.led
	w := &worker{
		cfg:     cfg,
		tun:     tun,
		led:     led,
		execCh:  make(chan execItem, 4096),
		stop:    make(chan struct{}),
		store:   newShuffleStore(),
		ackWait: make(map[attemptKey]*pendingDone),
		fetches: make(map[uint64]*blockFetchWait),
	}
	w.onDrop = led.netLost
	// net/send spans are recorded on the pump goroutine, where the socket
	// write actually happens — that is the wall-clock interval that
	// overlaps the executor's map/kernel spans in the trace. The span id
	// was minted by the coalescer (it rides inside the frame payload, so
	// the receiver can parent on it); the parent is the map kernel that
	// first contributed to the batch.
	w.onBulkWrite = func(f *frame) func() { return w.tr.spanWithID(f.spanID, stageNetSend, f.spanParent) }
	w.onBulkTiming = led.bulkTiming

	ln, err := net.Listen("tcp", cfg.listenAddr)
	if err != nil {
		return false, fmt.Errorf("dist: worker listen: %w", err)
	}
	defer ln.Close()
	w.lnAddr = ln.Addr().String()

	if err := w.join(); err != nil {
		return false, err
	}
	defer func() { w.coordConn().close() }()
	if tun.SpillThreshold > 0 {
		// Armed only now: the tracer the spill spans book into is minted
		// during join, and nothing commits to the store before job start.
		journal := cfg.journal
		if journal != nil {
			journal = journal.With("worker", w.id)
		}
		w.store.enableSpill(tun.SpillThreshold, w.workDir, led, w.tr, journal)
	}
	if cfg.onWelcome != nil {
		cfg.onWelcome(w)
	}
	if err := w.setupPeers(ln); err != nil {
		return false, err
	}
	w.mu.Lock()
	w.meshed = true
	w.mu.Unlock()
	if w.live {
		// Mesh is up: tell the coordinator we are ready to own partitions.
		w.coord.send(frame{typ: mJoinReady})
	}

	w.wg.Add(1)
	go w.executor()
	w.wg.Add(1)
	go w.coalesceFlusher()

	err = w.coordLoop()

	close(w.stop)
	w.mu.Lock()
	wasKilled := w.killed
	cc := w.coord
	peers := append([]*conn(nil), w.peers...)
	w.mu.Unlock()
	if err == nil && !wasKilled {
		// Ship this node's trace spans before closing the coordinator link.
		// The FIFO connection guarantees the batch precedes our EOF, so the
		// coordinator always has it by the time its reader drains. A killed
		// or failed worker sends nothing — its partial timeline died with it.
		cc.send(frame{typ: mSpanBatch, payload: encode(&spanBatchMsg{
			TraceID:       w.traceID,
			Node:          w.id,
			EpochUnixNano: w.tr.epoch.UnixNano(),
			Spans:         w.tr.spans(),
		})})
		cc.flush()
	}
	cc.close()
	for _, pc := range peers {
		if pc == nil {
			continue
		}
		if wasKilled {
			pc.seal() // already sealed by kill; idempotent
		} else {
			pc.shutdown()
		}
	}
	ln.Close() // unblock the peer acceptor
	w.wg.Wait()
	w.mu.Lock()
	peers = append(peers[:0], w.peers...)
	w.mu.Unlock()
	for _, pc := range peers {
		if pc != nil {
			pc.close()
		}
	}
	if w.workdir != "" {
		// Every goroutine has joined: nothing still reads replicas or spill
		// files. Block replicas are job-scoped (the coordinator re-ingests on
		// resume), so the scratch dir goes with the worker.
		os.RemoveAll(w.workdir)
	}
	if cfg.localSpans && led.tel != nil && led.tel.Spans != nil {
		for _, s := range w.tr.spans() {
			led.tel.Spans.Span(s)
		}
	}
	if wasKilled {
		return true, nil
	}
	return false, err
}

// coordConn snapshots the current coordinator link (the rejoin path swaps
// it after a coordinator restart).
func (w *worker) coordConn() *conn {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.coord
}

// coordSend sends one frame on whatever coordinator link is current.
func (w *worker) coordSend(f frame) {
	w.coordConn().send(f)
}

// join dials the coordinator and completes the hello/welcome/job-start
// handshake. The rejoin grace covers it: a coordinator ingesting a large
// input file opens its listener only after the read, and one that crashes
// before welcoming this worker is redialed and sent a fresh mJoin, since
// nothing of this worker reached its journal.
func (w *worker) join() error {
	deadline := time.Now().Add(w.tun.RejoinGrace)
	for {
		cc, err := w.dialCoord(deadline, frame{typ: mJoin, payload: encode(&helloMsg{ListenAddr: w.lnAddr})})
		if err != nil {
			return err
		}
		w.coord = cc
		retry, err := w.handshake()
		if err == nil {
			return nil
		}
		cc.close()
		if !retry || !time.Now().Before(deadline) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// dialCoord dials the coordinator until the deadline, trying at least
// once, and sends first on the new link.
func (w *worker) dialCoord(deadline time.Time, first frame) (*conn, error) {
	for {
		c, err := net.Dial("tcp", w.cfg.coordAddr)
		if err == nil {
			cc := newConn(c, "coord", w.tun, nil)
			cc.send(first)
			return cc, nil
		}
		w.mu.Lock()
		killed := w.killed
		w.mu.Unlock()
		if killed || !time.Now().Before(deadline) {
			return nil, fmt.Errorf("dist: dialing coordinator: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// handshake reads the coordinator's welcome and job-start; retry reports
// that the link failed before the job started, so a redial may succeed.
func (w *worker) handshake() (retry bool, err error) {
	typ, p, err := w.coord.recv()
	if err != nil {
		return true, fmt.Errorf("dist: awaiting welcome: %w", err)
	}
	if typ != mWelcome {
		return false, fmt.Errorf("dist: expected welcome, got %s", typeName(typ))
	}
	var wel welcomeMsg
	if err := decode(p, &wel).fin("welcome"); err != nil {
		return false, err
	}
	w.id, w.n = wel.WorkerID, wel.Workers
	w.tr = newTracer(w.id)

	if typ, p, err = w.coord.recv(); err != nil {
		return true, fmt.Errorf("dist: awaiting job start: %w", err)
	}
	if typ != mJobStart {
		return false, fmt.Errorf("dist: expected job-start, got %s", typeName(typ))
	}
	var js jobStartMsg
	if err := decode(p, &js).fin("job-start"); err != nil {
		return false, err
	}
	w.job = js.Job.withDefaults()
	w.traceID = js.TraceID
	w.homes = js.Homes
	w.epoch = js.Epoch
	w.live = js.Live
	w.store.setEpoch(js.Epoch)
	w.alive = make([]bool, w.n)
	for i := range w.alive {
		w.alive[i] = i == w.id || (i < len(js.Peers) && js.Peers[i] != "")
	}
	w.peerAddrs = js.Peers

	app, prt, err := w.cfg.resolve(w.job.App)
	if err != nil {
		return false, fmt.Errorf("dist: resolving app %q: %w", w.job.App.Name, err)
	}
	if prt == nil {
		prt = kv.Partition
	}
	w.app, w.prt = app, prt
	return false, nil
}

// setupPeers establishes the worker mesh: this worker dials every live peer
// with a lower id and accepts connections from peers with higher ids
// through a persistent acceptor, which also admits workers that join the
// cluster later. A live joiner is the highest id, so it dials everyone.
func (w *worker) setupPeers(ln net.Listener) error {
	w.mu.Lock()
	w.peers = make([]*conn, w.n)
	w.coal = make([]*coalescer, w.n)
	// need is who this worker must be linked to before it may run tasks:
	// the peers alive at job start, by id. Counting links instead would let
	// a live joiner — who dials everyone, possibly while we still wait here —
	// stand in for a formation peer that has not dialed yet, and every mark
	// owed to that peer would go nowhere: its ack barrier never clears.
	need := make(map[int]bool)
	for i := 0; i < w.n; i++ {
		if i != w.id && w.alive[i] {
			need[i] = true
		}
	}
	w.mu.Unlock()

	w.wg.Add(1)
	go w.peerAcceptor(ln)

	for j := 0; j < w.id; j++ {
		w.mu.Lock()
		addr := ""
		if j < len(w.peerAddrs) {
			addr = w.peerAddrs[j]
		}
		w.mu.Unlock()
		if addr == "" {
			continue // departed before we arrived
		}
		var c net.Conn
		var err error
		for try := 0; try < 50; try++ {
			c, err = net.Dial("tcp", addr)
			if err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			// The peer's listener is gone: it died (or was killed) while we
			// were meshing. Skip it — the membership frame announcing the
			// death will mark it dead and prune any barrier that still
			// counts it, and death re-execution recovers whatever its store
			// held.
			delete(need, j)
			continue
		}
		cc := newConn(c, fmt.Sprintf("peer%d", j), w.tun, w.onDrop)
		cc.onBulkWrite = w.onBulkWrite
		cc.onBulkTiming = w.onBulkTiming
		cc.send(frame{typ: mPeerHello, payload: encode(&peerHelloMsg{WorkerID: w.id})})
		if !w.registerPeer(j, cc) {
			cc.close()
			return fmt.Errorf("dist: duplicate peer %d", j)
		}
	}

	// Wait for the higher-id live peers to dial in.
	deadline := time.Now().Add(peerMeshTimeout)
	for {
		w.mu.Lock()
		got := 0
		for j := range need {
			if w.peers[j] != nil {
				got++
			}
		}
		w.mu.Unlock()
		if got == len(need) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dist: peer mesh incomplete: %d/%d connected", got, len(need))
		}
		time.Sleep(time.Millisecond)
	}
}

// peerAcceptor admits peer connections for the life of the job — the
// formation mesh's higher-id dialers first, later any worker that joins the
// cluster mid-job. It exits when the listener closes.
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
			cc := newConn(c, "peer?", w.tun, w.onDrop)
			cc.onBulkWrite = w.onBulkWrite
			cc.onBulkTiming = w.onBulkTiming
			typ, p, err := cc.recv()
			if err != nil || typ != mPeerHello {
				cc.close()
				return
			}
			var ph peerHelloMsg
			if err := decode(p, &ph).fin("peer-hello"); err != nil || !w.registerPeer(ph.WorkerID, cc) {
				cc.close()
			}
		}(c)
	}
}

// registerPeer installs one peer link (growing the mesh arrays for a
// joiner), creates its coalescer, and starts its reader. Returns false on
// invalid or duplicate ids.
func (w *worker) registerPeer(id int, cc *conn) bool {
	w.mu.Lock()
	if id < 0 || id == w.id {
		w.mu.Unlock()
		return false
	}
	w.growLocked(id + 1)
	if w.peers[id] != nil {
		w.mu.Unlock()
		return false
	}
	w.peers[id] = cc
	w.coal[id] = newCoalescer(cc, w.led, w.tr, w.traceID, w.job.Compress)
	w.alive[id] = true
	w.mu.Unlock()
	w.wg.Add(1)
	go w.peerReader(id, cc)
	return true
}

// growLocked widens the per-worker arrays to hold n slots. Caller holds w.mu.
func (w *worker) growLocked(n int) {
	if n <= w.n {
		return
	}
	peers := make([]*conn, n)
	copy(peers, w.peers)
	w.peers = peers
	coal := make([]*coalescer, n)
	copy(coal, w.coal)
	w.coal = coal
	alive := make([]bool, n)
	copy(alive, w.alive)
	w.alive = alive
	addrs := make([]string, n)
	copy(addrs, w.peerAddrs)
	w.peerAddrs = addrs
	w.n = n
}

// coalesceFlusher is the coalescers' time trigger: a buffered run batch
// whose oldest entry has waited coalesceDelay ships even if no size or
// marker trigger arrives — bounded latency without sacrificing batching.
func (w *worker) coalesceFlusher() {
	defer w.wg.Done()
	t := time.NewTicker(coalesceDelay)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			coal := append([]*coalescer(nil), w.coal...)
			w.mu.Unlock()
			for _, co := range coal {
				if co != nil {
					co.flushIfStale()
				}
			}
		}
	}
}

// coordLoop dispatches coordinator frames until job end, drain completion,
// death of the coordinator, or our own (expected) kill. With RejoinGrace
// set, a lost coordinator link triggers redial-and-rejoin — the path a
// restarted, journal-resumed coordinator picks its workers back up by.
func (w *worker) coordLoop() error {
	var rejoinUntil time.Time
	for {
		cc := w.coordConn()
		typ, p, err := cc.recv()
		if err != nil {
			w.mu.Lock()
			killed, drained := w.killed, w.drained
			w.mu.Unlock()
			if killed || drained {
				return nil
			}
			if w.tun.RejoinGrace > 0 {
				if rejoinUntil.IsZero() {
					rejoinUntil = time.Now().Add(w.tun.RejoinGrace)
				}
				if w.redialCoord(rejoinUntil) {
					continue
				}
			}
			return fmt.Errorf("dist: lost coordinator: %w", err)
		}
		rejoinUntil = time.Time{}
		switch typ {
		case mBlockPut:
			// Ingest precedes every map task on the FIFO link, so a Ref task
			// never races its own replica.
			if err := w.onBlockPut(p); err != nil {
				return err
			}
		case mMapTask:
			var m mapTaskMsg
			if err := decode(p, &m).fin("map-task"); err != nil {
				return err
			}
			w.execCh <- execItem{mapTask: m}
		case mReduceTask:
			var m reduceTaskMsg
			if err := decode(p, &m).fin("reduce-task"); err != nil {
				return err
			}
			w.execCh <- execItem{reduce: true, redTask: m}
		case mMembership:
			var m membershipMsg
			if err := decode(p, &m).fin("membership"); err != nil {
				return err
			}
			w.handleMembership(m)
		case mDrained:
			w.mu.Lock()
			w.drained = true
			w.mu.Unlock()
			return nil
		case mJobEnd:
			return nil
		default:
			return fmt.Errorf("dist: unexpected %s from coordinator", typeName(typ))
		}
	}
}

// redialCoord tries to re-attach to a restarted coordinator until the
// deadline: dial, announce ourselves with a rejoin, and swap the link in.
// The resumed coordinator's first frame (a membership refresh, or a drained
// notice if the journal says we already left) flows through coordLoop's
// normal dispatch.
func (w *worker) redialCoord(deadline time.Time) bool {
	w.mu.Lock()
	killed := w.killed
	rejoin := rejoinMsg{WorkerID: w.id, ListenAddr: w.lnAddr, Epoch: w.epoch}
	w.mu.Unlock()
	if killed || !time.Now().Before(deadline) {
		return false
	}
	cc, err := w.dialCoord(deadline, frame{typ: mRejoin, payload: encode(&rejoin)})
	if err != nil {
		return false
	}
	w.mu.Lock()
	old := w.coord
	w.coord = cc
	w.mu.Unlock()
	old.close()
	return true
}

// executor runs map and reduce tasks serially; shuffle sends are
// asynchronous (the connection write pumps own the sockets), so task k's
// network transfer overlaps task k+1's kernel — the paper's stage-4
// compute/communication overlap.
func (w *worker) executor() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		case it := <-w.execCh:
			if it.reduce {
				w.runReduce(it.redTask)
			} else {
				w.runMap(it.mapTask)
			}
		}
	}
}

// runMap executes one map attempt: kernel, partition, push runs to their
// home workers, then mark every live peer. The attempt reports done to the
// coordinator only when every live peer has acked its marker — at which
// point its output is committed everywhere it needs to be.
//
// Runs are always built uncompressed here: wire compression is applied once
// per coalesced frame by the coalescer, and the local store holds runs the
// reducer can decode without an inflate pass.
func (w *worker) runMap(m mapTaskMsg) {
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()

	// Resolve the task's input first: embedded bytes for classic jobs, the
	// block store (own disk, or streamed from a holder) for Ref tasks. The
	// acquisition gets its own map/input span tagged with where the bytes
	// came from — the per-split locality evidence in the merged trace.
	t0 := time.Now()
	block, locality, err := w.acquireBlock(m)
	if err != nil {
		w.coordSend(frame{typ: mMapFailed, payload: encode(&taskFailMsg{
			Task: m.Task, Attempt: m.Attempt, Reason: err.Error(),
		})})
		return
	}
	if locality != "" {
		w.tr.recordAt(w.tr.newID(), stageMapInput, t0, time.Now(), m.SpanID, map[string]string{
			"locality": locality,
			"block":    fmt.Sprintf("%d", m.Task),
		})
	}

	// The kernel span parents on the coordinator's sched/assign span for
	// this attempt; everything downstream (partitioning, the shuffle sends)
	// parents on the kernel, forming the causal chain the merged trace
	// draws as flow arrows.
	kernelID, end := w.tr.span(stageMapKernel, m.SpanID)
	chunk := native.MapBlock(w.app, block, w.job.Collector, w.job.UseCombiner)
	end()

	if w.cfg.mapFault != nil && w.cfg.mapFault(m.Task, m.Attempt) {
		// Fail before partitioning: like the sim core, a failed attempt has
		// produced nothing durable and nothing has touched the wire.
		chunk.Release()
		w.coordSend(frame{typ: mMapFailed, payload: encode(&taskFailMsg{
			Task: m.Task, Attempt: m.Attempt, Reason: "injected fault",
		})})
		return
	}

	P := w.job.Partitions
	_, end = w.tr.span(stageMapPartition, kernelID)
	runs, stats := chunk.Partition(w.prt, P, false)
	end()

	// Register the ack barrier and commit our own partitions under one
	// lock, against a consistent homes/alive/epoch snapshot: a death or
	// membership transition processed before this point is reflected in the
	// snapshot; one processed after will prune the barrier (death) or fence
	// the staged runs out at commit time (epoch).
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	epoch := w.epoch
	homes := append([]int(nil), w.homes...)
	settled := append([]bool(nil), w.settled...)
	isSettled := func(p int) bool { return p < len(settled) && settled[p] }
	var livePeers []int
	for j := 0; j < w.n; j++ {
		if j != w.id && w.alive[j] {
			livePeers = append(livePeers, j)
		}
	}
	coal := append([]*coalescer(nil), w.coal...)
	peers := append([]*conn(nil), w.peers...)
	for p, r := range runs {
		if r != nil && homes[p] == w.id && !isSettled(p) {
			w.store.stage(m.Task, m.Attempt, p, r, epoch)
		}
	}
	acc, dup := w.store.commit(m.Task, m.Attempt)
	w.led.StoreAccepted.Add(acc)
	w.led.StoreDupDropped.Add(dup)
	var pd *pendingDone
	if len(livePeers) > 0 {
		pd = &pendingDone{acks: make(map[int]bool, len(livePeers)), stats: stats}
		for _, j := range livePeers {
			pd.acks[j] = true
		}
		w.ackWait[attemptKey{m.Task, m.Attempt}] = pd
	}
	w.mu.Unlock()

	// Push remote partitions through the per-peer coalescers. The send
	// window may block here — that is the backpressure path — but the
	// frames stream out through the pumps while this executor moves on to
	// the next task. Each peer's coalescer flushes before its mark goes
	// out, so on the FIFO connection every run still precedes its marker.
	for p := 0; p < P; p++ {
		r := runs[p]
		if r == nil || homes[p] == w.id || isSettled(p) {
			continue
		}
		if co := coal[homes[p]]; co != nil {
			co.add(m.Task, m.Attempt, p, r, kernelID, epoch)
		}
	}
	mark := encode(&markMsg{Task: m.Task, Attempt: m.Attempt})
	for _, j := range livePeers {
		if coal[j] != nil {
			coal[j].flush()
		}
		if peers[j] != nil {
			peers[j].send(frame{typ: mMark, payload: mark})
		}
	}
	if pd == nil {
		// Single-node cluster (or every peer dead): no barrier to wait on.
		stats.Book(&w.led.Conserv)
		w.coordSend(frame{typ: mMapDone, payload: encode(&mapDoneMsg{Task: m.Task, Attempt: m.Attempt, Stats: stats})})
	}
}

// runReduce merges one home partition's committed runs and applies the
// reduce kernel (or drains merged pairs for reduce-less apps), reporting
// the partition's output to the coordinator. The reduce-side conservation
// counters are booked by the coordinator at acceptance, not here: under
// kills and coordinator restarts a partition can be recomputed, and only
// the first accepted report may count.
func (w *worker) runReduce(rt reduceTaskMsg) {
	_, end := w.tr.span(stageReduce, rt.SpanID)
	// Iterators are built under the lock (the committed-run list must not
	// grow mid-snapshot) but drained outside it: resident runs are immutable
	// once committed, and a concurrent spill of this partition only drops the
	// store's reference — the blob an iterator already holds stays valid.
	//
	// A killed worker's store is already written off as lost: its reduce
	// would report an emptied partition as final, so it reports nothing.
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	iters, closeSpills, spillErr := w.store.partitionIters(rt.Partition)
	w.mu.Unlock()
	defer closeSpills()
	out, recordsIn, groups := native.ReducePartition(w.app, iters)
	end()

	if err := spillErr(); err != nil {
		// A spilled run failed to stream back: this partition's merge is
		// incomplete, so fail the attempt instead of reporting short output.
		w.coordSend(frame{typ: mReduceFailed, payload: encode(&taskFailMsg{
			Task: rt.Partition, Attempt: rt.Attempt, Reason: err.Error(),
		})})
		return
	}

	w.coordSend(frame{typ: mReduceDone, payload: encode(&reduceDoneMsg{
		Partition: rt.Partition, Attempt: rt.Attempt,
		RecordsIn: recordsIn, GroupsIn: groups, Output: kv.Marshal(out),
	})})
}

// peerReader owns the inbound side of one peer link.
func (w *worker) peerReader(j int, cc *conn) {
	defer w.wg.Done()
	for {
		typ, p, err := cc.recv()
		if err != nil {
			cc.close()
			// Fetches waiting on this peer's chunks fail over now rather
			// than waiting out their timeout.
			w.failFetches(j)
			return
		}
		switch typ {
		case mRunBatch:
			w.onRunBatch(p)
		case mMark:
			w.onMark(cc, p)
		case mAck:
			w.onAck(j, p)
		case mHandoff:
			w.onHandoffBatch(p)
		case mHandoffMark:
			w.onHandoffMark(p)
		case mBlockFetch:
			w.onBlockFetch(cc, p)
		case mBlockChunk:
			w.onBlockChunk(p)
		}
	}
}

// onRunBatch stages every run in one coalesced shuffle frame — or, on a
// killed worker, drains the whole frame as lost so the wire ledger still
// balances. Wire accounting is at frame granularity: the payload byte count
// here mirrors exactly what the sender counted at flush.
//
// Staged runs are kv views aliasing the frame's receive buffer — the
// zero-copy path (see readFrame for why that is safe).
func (w *worker) onRunBatch(p []byte) {
	t0 := time.Now()
	var parent uint64
	// The staging span parents on the sender's net/send span id carried in
	// the frame payload — the cross-process edge of the trace (parent stays
	// 0 when decode fails; the span still books the busy time).
	defer func() { w.tr.record(stageNetRecv, t0, time.Now(), parent) }()
	var msg runBatchMsg
	if err := decode(p, &msg).fin("run-batch"); err != nil {
		return
	}
	var entries runEntries
	if err := decode(msg.Body, &entries).fin("run-batch entries"); err != nil {
		return
	}
	parent = msg.SendSpan
	var records int64
	for _, re := range entries {
		records += int64(re.Records)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.killed {
		w.led.netLost(records, int64(len(p)))
		return
	}
	w.led.netRecv(records, int64(len(p)))
	for _, re := range entries {
		run := kv.NewRunView(re.Blob, re.Records, re.RawBytes, false)
		w.store.stage(re.Task, re.Attempt, re.Partition, run, re.Epoch)
	}
}

// onMark commits an attempt's staged runs and acks the sender. A killed
// worker neither commits nor acks — the sender's barrier is released by
// the membership frame announcing its death instead.
func (w *worker) onMark(cc *conn, p []byte) {
	var msg markMsg
	if err := decode(p, &msg).fin("mark"); err != nil {
		return
	}
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	acc, dup := w.store.commit(msg.Task, msg.Attempt)
	w.led.StoreAccepted.Add(acc)
	w.led.StoreDupDropped.Add(dup)
	w.mu.Unlock()
	cc.send(frame{typ: mAck, payload: p})
}

// onHandoffBatch stages part of a re-homed partition arriving from its old
// home. A killed destination drains the frame as net-lost, like any bulk
// frame.
func (w *worker) onHandoffBatch(p []byte) {
	var msg handoffBatchMsg
	if err := decode(p, &msg).fin("handoff"); err != nil {
		return
	}
	var records int64
	for _, he := range msg.Entries {
		records += int64(he.Records)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.killed {
		w.led.netLost(records, int64(len(p)))
		return
	}
	w.led.netRecv(records, int64(len(p)))
	for _, he := range msg.Entries {
		run := kv.NewRunView(he.Blob, he.Records, he.RawBytes, false)
		w.store.stageHandoff(msg.Partition, msg.Epoch, he.Task, run)
	}
}

// onHandoffMark adopts one partition's completed handoff and reports it to
// the coordinator, which is counting adopted partitions to complete the
// membership transition.
func (w *worker) onHandoffMark(p []byte) {
	var msg handoffMarkMsg
	if err := decode(p, &msg).fin("handoff-mark"); err != nil {
		return
	}
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	adopted, dup := w.store.adoptHandoff(msg.Partition, msg.Epoch)
	w.led.handoffIn.Add(adopted)
	w.led.StoreDupDropped.Add(dup)
	w.mu.Unlock()
	w.coordSend(frame{typ: mHandoffDone, payload: encode(&handoffDoneMsg{
		Epoch: msg.Epoch, Partition: msg.Partition,
	})})
}

// onAck releases one peer from an attempt's commit barrier; the last ack
// flushes the attempt's stats and reports map-done.
func (w *worker) onAck(j int, p []byte) {
	var msg markMsg
	if err := decode(p, &msg).fin("mark"); err != nil {
		return
	}
	k := attemptKey{msg.Task, msg.Attempt}
	var done *pendingDone
	w.mu.Lock()
	if pd := w.ackWait[k]; pd != nil {
		delete(pd.acks, j)
		if len(pd.acks) == 0 {
			delete(w.ackWait, k)
			done = pd
		}
	}
	w.mu.Unlock()
	if done != nil {
		done.stats.Book(&w.led.Conserv)
		w.coordSend(frame{typ: mMapDone, payload: encode(&mapDoneMsg{Task: k.task, Attempt: k.attempt, Stats: done.stats})})
	}
}

// handleMembership applies a membership frame — a death, a join, a drain
// or a resumed coordinator's refresh: adopt the new epoch, homes, liveness
// and settled set, release newly dead peers from every commit barrier, then
// hand any partition that moved away from this node to its new home. A
// frame naming this worker Left starts its drain: the coalescers flush
// first, so nothing staged for a peer is still buffered when the handoff
// begins. Newly dead peers are sealed (queued frames are accounted lost;
// already-delivered bytes are still drained by the dying peer) and their
// buffered runs discarded; the worker named in Left is not sealed — its
// link must stay open to carry the handoff it is about to send.
func (w *worker) handleMembership(m membershipMsg) {
	if m.Left == w.id {
		w.mu.Lock()
		coal := append([]*coalescer(nil), w.coal...)
		w.mu.Unlock()
		for _, co := range coal {
			if co != nil {
				co.flush()
			}
		}
	}
	type flushed struct {
		k  attemptKey
		pd *pendingDone
	}
	var done []flushed
	type move struct{ part, dest int }
	var moves []move
	var sealIDs []int
	w.mu.Lock()
	if m.Epoch < w.epoch || len(m.Homes) != len(w.homes) || len(m.Settled) != len(m.Homes) {
		w.mu.Unlock()
		return
	}
	if m.Joined >= 0 {
		w.growLocked(m.Joined + 1)
		if m.JoinedAddr != "" {
			w.peerAddrs[m.Joined] = m.JoinedAddr
		}
	}
	for i := 0; i < w.n && i < len(m.Alive); i++ {
		if i == w.id {
			continue
		}
		if m.Alive[i] && !w.alive[i] && w.peers[i] != nil {
			w.alive[i] = true
		}
		if !m.Alive[i] && w.alive[i] {
			w.alive[i] = false
			if i != m.Left {
				sealIDs = append(sealIDs, i)
			}
			for k, pd := range w.ackWait {
				if pd.acks[i] {
					delete(pd.acks, i)
					if len(pd.acks) == 0 {
						delete(w.ackWait, k)
						done = append(done, flushed{k, pd})
					}
				}
			}
		}
	}
	if m.Joined >= 0 && m.Joined != w.id {
		w.alive[m.Joined] = true
	}
	// A settled partition's accepted output is final: runMap stages and
	// ships nothing for it, or its home would book re-executed runs as
	// accepted records no reduce will ever read.
	w.settled = m.Settled
	prev := w.homes
	w.homes = append([]int(nil), m.Homes...)
	w.epoch = m.Epoch
	w.store.setEpoch(m.Epoch)
	for p := range m.Homes {
		if prev[p] == w.id && m.Homes[p] != w.id {
			moves = append(moves, move{p, m.Homes[p]})
		}
	}
	w.mu.Unlock()
	for _, i := range sealIDs {
		w.mu.Lock()
		pc, co := w.peers[i], w.coal[i]
		w.mu.Unlock()
		if pc != nil {
			pc.seal()
		}
		if co != nil {
			co.close()
		}
	}
	for _, d := range done {
		d.pd.stats.Book(&w.led.Conserv)
		w.coordSend(frame{typ: mMapDone, payload: encode(&mapDoneMsg{Task: d.k.task, Attempt: d.k.attempt, Stats: d.pd.stats})})
	}
	if len(moves) == 0 {
		return
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for _, mv := range moves {
			w.sendHandoff(mv.part, mv.dest, m.Epoch)
		}
	}()
}

// sendHandoff ships one re-homed partition's committed runs to its new
// home: bulk handoff frames sized like coalesced batches, then the handoff
// mark that tells the destination to adopt. The destination may be a joiner
// whose link is still being established, so wait for it briefly.
func (w *worker) sendHandoff(part, dest, epoch int) {
	var pc *conn
	deadline := time.Now().Add(peerMeshTimeout)
	for {
		w.mu.Lock()
		if dest < w.n {
			pc = w.peers[dest]
		}
		killed := w.killed
		w.mu.Unlock()
		if pc != nil || killed || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if pc == nil {
		return
	}
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	runs, records := w.store.takePartition(part)
	w.mu.Unlock()

	msg := handoffBatchMsg{Epoch: epoch, Partition: part}
	var bodyBytes int64
	var recs int64
	flush := func() {
		payload := encode(&msg)
		w.led.netSent(recs, int64(len(payload)))
		w.led.frameBytes(5 + int64(len(payload)))
		pc.send(frame{typ: mHandoff, payload: payload, bulk: true, records: recs, acct: int64(len(payload))})
		msg.Entries, bodyBytes, recs = nil, 0, 0
	}
	for _, cr := range runs {
		run, err := cr.run.Load() // filed runs rematerialize for the wire
		if err != nil {
			// The spill file is unreadable: its records are lost to the
			// handoff, exactly like a disk dying under a classic worker.
			// Book them lost, not handed off, so the handoff ledger balances.
			w.led.StoreLost.Add(int64(cr.run.Records))
			continue
		}
		w.led.handoffOut.Add(int64(run.Records))
		blob := run.Blob()
		msg.Entries = append(msg.Entries, handoffEntry{
			Task: cr.task, Records: run.Records, RawBytes: run.RawBytes, Blob: blob,
		})
		bodyBytes += int64(len(blob))
		recs += int64(run.Records)
		if bodyBytes >= coalesceBytes {
			flush()
		}
		if path := cr.run.Path(); path != "" {
			os.Remove(path) // the partition left this node; scratch goes too
		}
	}
	if len(msg.Entries) > 0 {
		flush()
	}
	pc.send(frame{typ: mHandoffMark, payload: encode(&handoffMarkMsg{
		Epoch: epoch, Partition: part, Runs: len(runs), Records: records,
	})})
}

// kill simulates this worker dying mid-job (loopback fault cells): the
// store's committed records are written off as lost, outbound pumps seal
// (queued frames become net-lost), inbound links switch to drain
// accounting, and the coordinator link drops — which is how the
// coordinator finds out.
func (w *worker) kill() {
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	w.killed = true
	lost := w.store.lostAll()
	w.led.StoreLost.Add(lost)
	w.ackWait = make(map[attemptKey]*pendingDone)
	peers := append([]*conn(nil), w.peers...)
	coal := append([]*coalescer(nil), w.coal...)
	cc := w.coord
	w.mu.Unlock()
	for _, pc := range peers {
		if pc != nil {
			pc.seal()
		}
	}
	// Seal before closing coalescers: a flush blocked on a full send window
	// holds its coalescer's lock until the sealed conn releases it.
	for _, co := range coal {
		if co != nil {
			co.close()
		}
	}
	cc.close()
}
