package dist

import (
	"bytes"
	"net"
	"slices"
	"testing"
	"time"

	"glasswing/internal/apps"
	"glasswing/internal/blockstore"
	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// startedWState is a worker's decision state after its welcome and
// job-start: worker id of a cluster whose peers' listen addresses are
// peers ("" = departed), with the partition homes homes at epoch 0.
func startedWState(t *testing.T, id int, peers []string, homes []int, store *shuffleStore, led *ledger) *wstate {
	t.Helper()
	s := newWState("self", store, led)
	s.step(wevent{kind: weFrame, peer: coordPeer, typ: mWelcome,
		p: encode(&welcomeMsg{WorkerID: id, Workers: len(peers)})})
	s.step(wevent{kind: weFrame, peer: coordPeer, typ: mJobStart,
		p: encode(&jobStartMsg{Job: Job{Partitions: len(homes)}, Peers: peers, Homes: homes})})
	return s
}

// ops lists the effect kinds in fx.
func ops(fx []weffect) (out []int) {
	for _, e := range fx {
		out = append(out, e.op)
	}
	return out
}

func hasOp(fx []weffect, op int) bool {
	for _, e := range fx {
		if e.op == op {
			return true
		}
	}
	return false
}

// TestKilledWorkerReducesNothing: a kill writes the store off as lost. A
// reduce task that starts after it must read nothing and report nothing; a
// report would carry the emptied partition as its final output, and the
// coordinator accepts the first report.
func TestKilledWorkerReducesNothing(t *testing.T) {
	store := newShuffleStore()
	s := startedWState(t, 0, []string{"self"}, []int{0}, store, newLedger(nil))
	store.stage(0, 0, 0, storeRun(t, 3), 0)
	store.commit(0, 0)

	fx := s.step(wevent{kind: weKill})
	if !hasOp(fx, wfxSeal) {
		t.Fatalf("kill did not drop the coordinator link: %v", ops(fx))
	}
	if fx := s.step(wevent{kind: weReduce, part: 0}); len(fx) != 0 {
		t.Fatalf("killed worker's reduce read its store: %v", ops(fx))
	}
	if fx := s.step(wevent{kind: weSend, f: ctlFrame(mReduceDone)}); len(fx) != 0 {
		t.Fatalf("killed worker sent %v", ops(fx))
	}
}

// TestDrainedPartitionReducesNothing: a reduce task queued at a partition's
// home before a drain moved the partition away starts after the handoff
// took its runs. It must read nothing and report nothing: the coordinator
// accepts the first report, and this one would carry the partition emptied.
func TestDrainedPartitionReducesNothing(t *testing.T) {
	store := newShuffleStore()
	s := startedWState(t, 0, []string{"w0", "w1"}, []int{0, 1}, store, newLedger(nil))
	s.step(wevent{kind: weLinkUp, peer: 1})
	store.stage(0, 0, 0, storeRun(t, 3), 0)
	store.commit(0, 0)
	fx := s.step(wevent{kind: weFrame, peer: coordPeer, typ: mMembership, p: encode(&membershipMsg{
		Epoch: 1, Homes: []int{1, 1}, Alive: []bool{false, true}, Settled: []bool{false, false}, Joined: -1, Left: 0,
	})})
	if !hasOp(fx, wfxShip) {
		t.Fatalf("drain did not hand partition 0 off: %v", ops(fx))
	}
	if fx := s.step(wevent{kind: weReduce, part: 0}); len(fx) != 0 {
		t.Fatalf("reduce of a partition handed off read the store: %v", ops(fx))
	}
	if fx := s.step(wevent{kind: weReduce, part: 1}); len(fx) != 0 {
		t.Fatalf("reduce of a partition homed elsewhere read the store: %v", ops(fx))
	}
}

// TestMeshWaitsForFormationPeersByID is the regression test for a hang: the
// mesh wait counted links, so a live joiner dialing in while worker 1 still
// waited for worker 2 made the count and let worker 1 run tasks with no
// link to worker 2 — its marks for 2 went nowhere and their ack barriers
// never cleared. The wait must be for the formation peers themselves.
func TestMeshWaitsForFormationPeersByID(t *testing.T) {
	// Worker 0 departed; 2 has yet to dial in.
	s := startedWState(t, 1, []string{"", "w1", "w2"}, []int{1, 2}, newShuffleStore(), newLedger(nil))
	if fx := s.step(wevent{kind: weFrame, peer: coordPeer, typ: mMapTask, p: encode(&mapTaskMsg{Task: 0})}); len(fx) != 0 {
		t.Fatalf("task ran before the mesh formed: %v", ops(fx))
	}
	if fx := s.step(wevent{kind: weLinkUp, peer: 3}); hasOp(fx, wfxExec) || !hasOp(fx, wfxAccept) {
		t.Fatalf("joiner's link: %v; want it accepted and the task still held, with formation peer 2 not linked", ops(fx))
	}
	if fx := s.step(wevent{kind: weLinkUp, peer: 2}); !hasOp(fx, wfxExec) {
		t.Fatalf("mesh wait did not end once formation peer 2 linked: %v", ops(fx))
	}
}

// TestFormationPeerDiesBeforeDialing: a formation peer that dies before it
// dials in is announced dead by a membership frame, which the forming
// worker reads: the peer leaves the mesh's need set and the held tasks run.
func TestFormationPeerDiesBeforeDialing(t *testing.T) {
	s := startedWState(t, 0, []string{"w0", "w1"}, []int{0, 1}, newShuffleStore(), newLedger(nil))
	s.step(wevent{kind: weFrame, peer: coordPeer, typ: mMapTask, p: encode(&mapTaskMsg{Task: 0})})
	fx := s.step(wevent{kind: weFrame, peer: coordPeer, typ: mMembership, p: encode(&membershipMsg{
		Epoch: 1, Homes: []int{0, 0}, Alive: []bool{true, false}, Settled: []bool{false, false}, Joined: -1, Left: -1,
	})})
	if !hasOp(fx, wfxExec) {
		t.Fatalf("held task not released by the death of the unlinked formation peer: %v", ops(fx))
	}
}

// TestHostilePeerIDsRefused: a peer hello names any id it likes; one outside
// [0, maxWorkers) — or the worker's own — is refused before it sizes
// anything, and a membership frame naming such a joiner is ignored.
func TestHostilePeerIDsRefused(t *testing.T) {
	s := startedWState(t, 0, []string{"w0", "w1"}, []int{0, 1}, newShuffleStore(), newLedger(nil))
	for _, id := range []int{1 << 50, maxWorkers, -1, 0} {
		if fx := s.step(wevent{kind: weLinkUp, peer: id}); len(fx) != 1 || fx[0].op != wfxRefuse {
			t.Fatalf("id %d: %v, want refused", id, ops(fx))
		}
		s.step(wevent{kind: weFrame, peer: coordPeer, typ: mMembership, p: encode(&membershipMsg{
			Epoch: 1, Homes: []int{0, 1}, Alive: []bool{true, true}, Settled: []bool{false, false}, Joined: id, Left: -1,
		})})
		if s.n != 2 || len(s.alive) != 2 || len(s.linked) != 2 {
			t.Fatalf("id %d: width grew to %d", id, s.n)
		}
	}
}

// TestRefusedDialRetriesWhilePeerAlive: an acceptor refuses a second link
// under an id it holds — here from an incarnation a restarted coordinator
// never journaled — until that link ends. The refused dialer dials again
// while the peer is alive and unlinked, and gives up once it is announced
// dead.
func TestRefusedDialRetriesWhilePeerAlive(t *testing.T) {
	acc := startedWState(t, 0, []string{"w0", "w1"}, []int{0, 1}, newShuffleStore(), newLedger(nil))
	acc.step(wevent{kind: weLinkUp, peer: 1})
	if fx := acc.step(wevent{kind: weLinkUp, peer: 1}); len(fx) != 1 || fx[0].op != wfxRefuse {
		t.Fatalf("second link under a held id: %v, want refused", ops(fx))
	}
	acc.step(wevent{kind: weLinkDown, peer: 1})
	if fx := acc.step(wevent{kind: weLinkUp, peer: 1}); !hasOp(fx, wfxAccept) {
		t.Fatalf("link after the held one ended: %v, want accepted", ops(fx))
	}

	dialer := startedWState(t, 1, []string{"w0", "w1"}, []int{0, 1}, newShuffleStore(), newLedger(nil))
	if fx := dialer.step(wevent{kind: weDialFailed, peer: 0, addr: "w0"}); !hasOp(fx, wfxDial) || fx[0].addr != "w0" {
		t.Fatalf("refused dial of an alive peer: %v, want dialed again", ops(fx))
	}
	dialer.step(wevent{kind: weFrame, peer: coordPeer, typ: mMembership, p: encode(&membershipMsg{
		Epoch: 1, Homes: []int{1, 1}, Alive: []bool{false, true}, Settled: []bool{false, false}, Joined: -1, Left: -1,
	})})
	if fx := dialer.step(wevent{kind: weDialFailed, peer: 0, addr: "w0"}); len(fx) != 0 || len(dialer.need) != 0 {
		t.Fatalf("failed dial of a dead peer: %v, need %v; want given up", ops(fx), dialer.need)
	}
}

// TestLinkDeadlines: a formation peer still unlinked when its deadline
// passes, or an alive peer a handoff has waited on as long, ends the worker
// with an error: it closes its coordinator link, and the loop exits with the
// error once that link reports down.
func TestLinkDeadlines(t *testing.T) {
	s := startedWState(t, 0, []string{"w0", "w1"}, []int{0, 1}, newShuffleStore(), newLedger(nil))
	fx := s.step(wevent{kind: weTimeout, peer: coordPeer})
	if len(fx) != 1 || fx[0].op != wfxSeal || fx[0].peer != coordPeer {
		t.Fatalf("mesh deadline: %v, want the coordinator link closed", ops(fx))
	}
	fx = s.step(wevent{kind: weLinkDown, peer: coordPeer})
	if len(fx) != 1 || fx[0].op != wfxExit || fx[0].err == nil || fx[0].err.Error() != "dist: peer mesh incomplete: 0/1 connected" {
		t.Fatalf("after the mesh deadline: %v (%v), want exit with the mesh error", ops(fx), fx)
	}

	// Worker 1 meshed with 0, then a joiner, 2, is announced and takes
	// partition 1 over before its link is up: the handoff waits for it.
	s = startedWState(t, 1, []string{"w0", "w1"}, []int{0, 1}, newShuffleStore(), newLedger(nil))
	s.step(wevent{kind: weLinkUp, peer: 0})
	fx = s.step(wevent{kind: weFrame, peer: coordPeer, typ: mMembership, p: encode(&membershipMsg{
		Epoch: 1, Homes: []int{0, 2}, Alive: []bool{true, true, true}, Settled: []bool{false, false}, Joined: 2, JoinedAddr: "w2", Left: -1,
	})})
	if !hasOp(fx, wfxTimer) || hasOp(fx, wfxShip) {
		t.Fatalf("handoff to an unlinked joiner: %v, want it held under a deadline", ops(fx))
	}
	if fx := s.step(wevent{kind: weTimeout, peer: 0}); len(fx) != 0 {
		t.Fatalf("deadline of a linked peer: %v, want nothing", ops(fx))
	}
	if fx := s.step(wevent{kind: weTimeout, peer: 2}); len(fx) != 1 || fx[0].op != wfxSeal || s.err == nil {
		t.Fatalf("handoff deadline: %v, err %v; want the worker ended", ops(fx), s.err)
	}
}

// TestShortReplicaFailsTheRead: a replica shorter than the block the task
// names is a failed read, not a short map input. Worker 0 holds a truncated
// copy of block 3 and no other holder is listed, so the task's read fails,
// whether the local read is preferred or forced remote.
func TestShortReplicaFailsTheRead(t *testing.T) {
	bs, err := blockstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Put(3, []byte("trunc")); err != nil {
		t.Fatal(err)
	}
	led := newLedger(nil)
	w := &worker{led: led, tr: obs.NewTracer(0, new(obs.SpanBuffer)), bstore: bs, fetchDone: make(chan weffect, 1)}
	w.st = startedWState(t, 0, []string{"w0"}, []int{0}, newShuffleStore(), led)
	for _, local := range []bool{true, false} {
		m := mapTaskMsg{Task: 3, Ref: true, BlockSize: int64(len("truncated")), Holders: []int{0}, AllowLocal: local}
		if data, where, err := w.acquireBlock(m); err == nil {
			t.Errorf("AllowLocal %v: read %q (%s) from a truncated replica, want an error", local, data, where)
		}
	}
	if n := led.readLocalBytes.Value() + led.readRemoteBytes.Value(); n != 0 {
		t.Errorf("failed reads booked %d bytes read", n)
	}
}

// TestShortReplyFailsOver: a holder's reply of the wrong size fails the
// fetch over to the next holder, like a holder that could not read the
// block; the last holder's failure resolves the fetch with an error.
func TestShortReplyFailsOver(t *testing.T) {
	s := startedWState(t, 0, []string{"w0", "w1", "w2"}, []int{0}, newShuffleStore(), newLedger(nil))
	s.step(wevent{kind: weLinkUp, peer: 1})
	s.step(wevent{kind: weLinkUp, peer: 2})
	fx := s.step(wevent{kind: weFetch, fetch: &blockFetch{block: 5, size: 4, holders: []int{0, 1, 2}}})
	if len(fx) != 1 || fx[0].op != wfxSend || fx[0].peer != 1 || fx[0].f.typ() != mBlockFetch {
		t.Fatalf("fetch start: %v, want the fetch sent to worker 1", ops(fx))
	}
	nonce := s.fetching.nonce
	reply := func(j int, data string) []weffect {
		return s.step(wevent{kind: weFrame, peer: j, typ: mBlockData,
			p: encode(&blockDataMsg{ID: 5, Nonce: nonce, OK: true, Data: []byte(data)})})
	}
	if fx := reply(1, "abc"); len(fx) != 1 || fx[0].op != wfxSend || fx[0].peer != 2 || fx[0].f.typ() != mBlockFetch {
		t.Fatalf("short reply: %v, want the fetch sent on to worker 2", ops(fx))
	}
	if fx := reply(1, "abcd"); len(fx) != 0 {
		t.Fatalf("reply from a holder the fetch moved past: %v, want nothing", ops(fx))
	}
	if fx := reply(2, "abcde"); len(fx) != 1 || fx[0].op != wfxFetched || fx[0].err == nil || s.fetching != nil {
		t.Fatalf("long reply from the last holder: %v, want the fetch resolved with an error", ops(fx))
	}
}

// TestAcceptorReplyLeadsTheLink: once do installs an accepted link, any
// goroutine may send on it — the executor a block fetch or a push, the
// coordinator loop a handoff. The acceptor's hello reply must be queued
// first, or the dialer, which wants the hello before anything else, drops
// the link while this side keeps it.
func TestAcceptorReplyLeadsTheLink(t *testing.T) {
	led := newLedger(nil)
	w := &worker{led: led, tr: obs.NewTracer(0, new(obs.SpanBuffer))}
	w.st = startedWState(t, 0, []string{"w0", "w1"}, []int{0, 1}, newShuffleStore(), led)
	near, far := net.Pipe()
	defer far.Close()
	cc := newConn(near, "peer1", Tuning{}, nil)
	defer cc.close()
	// The acceptor has stepped worker 1's hello but not yet performed the
	// effects when the executor sends a block fetch to worker 1.
	fx := w.decide(wevent{kind: weLinkUp, peer: 1, cc: cc,
		f: newFrame(mPeerHello, &peerHelloMsg{WorkerID: 0})})
	w.do(wevent{kind: weFetch, fetch: &blockFetch{block: 0, size: 1, holders: []int{1}}})
	for _, e := range fx {
		w.perform(e)
	}
	for {
		typ, _, err := readFrame(far)
		if err != nil {
			t.Fatal(err)
		}
		if typ == mHeartbeat {
			continue
		}
		if typ != mPeerHello {
			t.Fatalf("first frame on the accepted link is %s, want the hello reply", typeName(typ))
		}
		return
	}
}

// TestMeshDeadlineOverTCP: worker 1 completes its handshake and keeps its
// coordinator link warm, but never dials worker 0. Worker 0 gives up on its
// mesh once the deadline passes, with the error that names it.
func TestMeshDeadlineOverTCP(t *testing.T) {
	defer func(d time.Duration) { peerMeshTimeout = d }(peerMeshTimeout)
	peerMeshTimeout = 300 * time.Millisecond
	o, _ := elasticWC(2, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		serve(ln, o, newLedger(nil), loopHooks{})
		ln.Close()
		close(served)
	}()
	werr := make(chan error, 1)
	go func() {
		_, err := runWorker(workerConfig{coordAddr: ln.Addr().String(), listenAddr: "127.0.0.1:0", led: newLedger(nil), resolve: o.NewApp})
		werr <- err
	}()
	time.Sleep(100 * time.Millisecond)
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	silent := newConn(c, "silent", Tuning{}, nil)
	silent.send(newFrame(mJoin, &helloMsg{ListenAddr: "127.0.0.1:1"}))
	select {
	case err := <-werr:
		if err == nil || err.Error() != "dist: peer mesh incomplete: 0/1 connected" {
			t.Fatalf("worker 0 ended with %v, want the mesh error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker 0 still waiting for its mesh after 10s")
	}
	silent.close()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator still running after both workers left")
	}
}

// tcpCluster serves o on a fresh listener and returns the coordinator's
// address, a function starting one worker listening on listenAddr (hooked
// by onWelcome, if set), and a function waiting for the job's result and
// every worker's.
func tcpCluster(t *testing.T, o Options) (addr string, start func(listenAddr string, onWelcome func()), wait func() *Result) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	led := newLedger(o.Telemetry)
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := serve(ln, o, led, loopHooks{})
		ln.Close()
		done <- outcome{res, err}
	}()
	var workers []chan error
	start = func(listenAddr string, onWelcome func()) {
		errc := make(chan error, 1)
		workers = append(workers, errc)
		go func() {
			cfg := workerConfig{coordAddr: ln.Addr().String(), listenAddr: listenAddr, led: led, resolve: o.NewApp}
			if onWelcome != nil {
				cfg.onWelcome = func(int, func()) { onWelcome() }
			}
			_, err := runWorker(cfg)
			errc <- err
		}()
	}
	wait = func() *Result {
		t.Helper()
		select {
		case out := <-done:
			if out.err != nil {
				t.Fatal(out.err)
			}
			for _, errc := range workers {
				if err := <-errc; err != nil {
					t.Fatalf("worker: %v", err)
				}
			}
			return out.res
		case <-time.After(30 * time.Second):
			t.Fatal("job still running after 30s")
			return nil
		}
	}
	return ln.Addr().String(), start, wait
}

// TestFormationPeerDeathOverTCP: worker 1 of three completes its handshake
// and dies before its listener ever answers or it dials anyone, so worker 0
// waits on a formation peer that will never link. The membership frame
// announcing the death reaches worker 0 mid-formation: 1 leaves its need
// set, and the job completes on the other two.
func TestFormationPeerDeathOverTCP(t *testing.T) {
	tel := obs.NewTelemetry()
	o, want := elasticWC(3, tel)
	addr, start, wait := tcpCluster(t, o)
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close() // an address nothing answers on
	start("127.0.0.1:0", nil)
	time.Sleep(100 * time.Millisecond)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := newConn(c, "doomed", Tuning{}, nil)
	cc.send(newFrame(mJoin, &helloMsg{ListenAddr: dead.Addr().String()}))
	time.Sleep(100 * time.Millisecond)
	start("127.0.0.1:0", nil)
	typ, p, err := cc.recv()
	var wel welcomeMsg
	if err != nil || typ != mWelcome || decode(p, &wel).fin("welcome") != nil || wel.WorkerID != 1 {
		t.Fatalf("doomed worker's welcome: %s, id %d, err %v", typeName(typ), wel.WorkerID, err)
	}
	if typ, _, err := cc.recv(); err != nil || typ != mJobStart {
		t.Fatalf("doomed worker's job start: %s, err %v", typeName(typ), err)
	}
	cc.close()
	res := wait()
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d, want 1", res.WorkersLost)
	}
	checkWire(t, tel.Metrics, true)
	checkStore(t, tel.Metrics)
}

// TestHostilePeerHelloOverTCP: a client of a worker's peer listener claims
// worker ids no cluster could have. Each claim closes only its own
// connection; the job completes with verified output.
func TestHostilePeerHelloOverTCP(t *testing.T) {
	tel := obs.NewTelemetry()
	o, want := elasticWC(2, tel)
	_, start, wait := tcpCluster(t, o)
	closed := make(chan error, 6)
	// The hostile client dials each worker's listener once its welcome is in
	// and the acceptor about to run.
	hostile := func(addr string) func() {
		return func() {
			for _, id := range []int{1 << 50, maxWorkers, -1} {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					closed <- err
					continue
				}
				cc := newConn(c, "hostile", Tuning{}, nil)
				cc.send(newFrame(mPeerHello, &peerHelloMsg{WorkerID: id}))
				go func() {
					_, _, err := cc.recv()
					cc.close()
					closed <- err
				}()
			}
		}
	}
	for range 2 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close() // the worker listens here
		start(addr, hostile(addr))
	}
	res := wait()
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	for range 6 {
		if err := <-closed; err == nil {
			t.Fatal("a hostile peer link was answered instead of closed")
		}
	}
	checkWire(t, tel.Metrics, false)
}

// TestDamagedPeerRunFailsTheReduce: a run batch from a peer whose run bytes
// do not decode — compressed and plain — is staged and committed like any
// other, and the reduce that merges it reports the partition failed to the
// coordinator instead of taking the worker down.
func TestDamagedPeerRunFailsTheReduce(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		led := newLedger(nil)
		w := &worker{led: led, tr: obs.NewTracer(0, new(obs.SpanBuffer)), app: &core.App{Name: "identity"}}
		w.st = newWState("self", newShuffleStore(), led)
		w.st.step(wevent{kind: weFrame, peer: coordPeer, typ: mWelcome, p: encode(&welcomeMsg{WorkerID: 0, Workers: 2})})
		w.st.step(wevent{kind: weFrame, peer: coordPeer, typ: mJobStart, p: encode(&jobStartMsg{
			Job: Job{Partitions: 1, Compress: compressed}, Peers: []string{"w0", "w1"}, Homes: []int{0},
		})})
		w.st.step(wevent{kind: weLinkUp, peer: 1})
		near, far := net.Pipe()
		w.coord = newConn(near, "coord", Tuning{}, nil)

		good := kv.NewRun([]kv.Pair{{Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 40)}}, compressed)
		entries := runEntries{{Task: 0, Records: good.Records, RawBytes: good.RawBytes, Blob: good.Blob()[:len(good.Blob())-2]}}
		// Stepped as peerReader steps them; the mark's ack is not sent.
		w.st.step(wevent{kind: weFrame, peer: 1, typ: mRunBatch, p: encode(&runBatchMsg{Body: encode(&entries)}), runs: entries})
		w.st.step(wevent{kind: weFrame, peer: 1, typ: mMark, p: encode(&markMsg{Task: 0, Attempt: 0})})
		if got := led.StoreAccepted.Value(); got != 1 {
			t.Fatalf("compressed=%v: store accepted %d records, want the damaged run's 1", compressed, got)
		}

		go w.runReduce(reduceTaskMsg{Partition: 0}, new(kv.Merger))
		for {
			typ, p, err := readFrame(far)
			if err != nil {
				t.Fatal(err)
			}
			if typ == mHeartbeat {
				continue
			}
			var msg taskFailMsg
			if typ != mReduceFailed || decode(p, &msg).fin("task-fail") != nil || msg.Task != 0 {
				t.Fatalf("compressed=%v: coordinator got %s, want the partition's reduce failed", compressed, typeName(typ))
			}
			t.Logf("compressed=%v: %s", compressed, msg.Reason)
			break
		}
		w.coord.close()
		far.Close()
	}
}

// TestShipmentFraming: a built attempt ships each peer the runs homed there,
// in partition order, as run-batch frames that close once their entries
// reach coalesceBytes, then the attempt's mark. Each frame is a runBatchMsg
// byte for byte, encoded once into a payload allocated at its length, carries
// its net/send span parented on the attempt's kernel, and is booked sent as
// it is queued.
func TestShipmentFraming(t *testing.T) {
	led := newLedger(nil)
	homes := make([]int, 12)
	for p := range homes {
		homes[p] = p % 2
	}
	s := startedWState(t, 0, []string{"w0", "w1"}, homes, newShuffleStore(), led)
	s.step(wevent{kind: weLinkUp, peer: 1})
	runs := make([]*kv.Run, len(homes))
	for p := range runs {
		runs[p] = kv.NewRun([]kv.Pair{{Key: []byte{byte(p)}, Value: bytes.Repeat([]byte{'v'}, 70<<10)}}, false)
	}
	var sh *shipment
	for _, e := range s.step(wevent{kind: weBuilt, built: &builtMap{task: 3, attempt: 1, runs: runs, span: 77}}) {
		if e.op == wfxShip && e.peer == 1 {
			sh = e.sh
		}
	}
	if sh == nil || sh.typ != mRunBatch || len(sh.runs) != 6 {
		t.Fatalf("shipment to peer 1: %+v, want 6 runs", sh)
	}

	var frames []frame
	sh.stream(led, obs.NewTracer(0, new(obs.SpanBuffer)), 42, func(f frame) { frames = append(frames, f) })
	// Six runs of 70 KiB: four reach 256 KiB, two close the shipment.
	if len(frames) != 3 || frames[2].typ() != mMark {
		t.Fatalf("%d frames, want two run batches and the mark", len(frames))
	}
	var parts []int
	var sent int64
	for i, f := range frames[:2] {
		var m runBatchMsg
		var entries runEntries
		if err := decode(f.payload(), &m).fin("run-batch"); err != nil {
			t.Fatal(err)
		}
		if err := decode(m.Body, &entries).fin("run-batch entries"); err != nil {
			t.Fatal(err)
		}
		if want := encode(&runBatchMsg{TraceID: 42, SendSpan: m.SendSpan, Body: encode(&entries)}); !bytes.Equal(f.payload(), want) {
			t.Fatalf("frame %d is not a runBatchMsg's bytes", i)
		}
		if cap(f.buf) != len(f.buf) {
			t.Fatalf("frame %d: frame of %d bytes allocated %d", i, len(f.buf), cap(f.buf))
		}
		if m.SendSpan == 0 || f.spanID != m.SendSpan || f.spanParent != 77 || !f.bulk {
			t.Fatalf("frame %d: span %x (frame %x, parent %d), bulk %v", i, m.SendSpan, f.spanID, f.spanParent, f.bulk)
		}
		last := entries[len(entries)-1]
		if closed := len(m.Body) >= coalesceBytes && len(m.Body)-last.size() < coalesceBytes; closed != (i == 0) {
			t.Fatalf("frame %d: %d body bytes over %d entries", i, len(m.Body), len(entries))
		}
		var records int64
		for _, e := range entries {
			if e.Task != 3 || e.Attempt != 1 {
				t.Fatalf("entry of task %d attempt %d", e.Task, e.Attempt)
			}
			parts = append(parts, e.Partition)
			records += int64(e.Records)
		}
		if f.records != records || f.acct != int64(len(f.payload())) {
			t.Fatalf("frame %d books %d records, %d bytes; carries %d, %d", i, f.records, f.acct, records, len(f.payload()))
		}
		sent += int64(len(f.payload()))
	}
	if !slices.Equal(parts, []int{1, 3, 5, 7, 9, 11}) {
		t.Fatalf("partitions shipped %v", parts)
	}
	if led.netRecordsSent.Value() != 6 || led.netBytesSent.Value() != sent {
		t.Fatalf("booked %d records, %d bytes sent; want 6, %d", led.netRecordsSent.Value(), led.netBytesSent.Value(), sent)
	}
}
