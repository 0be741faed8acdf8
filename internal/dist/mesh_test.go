package dist

import (
	"net"
	"testing"
	"time"
)

// dialAs links to a worker's peer listener the way worker id would.
func dialAs(t *testing.T, addr string, id int) *conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := newConn(c, "test", Tuning{}, nil)
	cc.send(frame{typ: mPeerHello, payload: encode(&peerHelloMsg{WorkerID: id})})
	return cc
}

// TestMeshWaitsForFormationPeersByID is the regression test for a hang: the
// mesh wait counted links, so a live joiner dialing in while worker 1 still
// waited for worker 2 made the count and let worker 1 run tasks with no
// link to worker 2 — its marks for 2 went nowhere and their ack barriers
// never cleared. The wait must be for the formation peers themselves.
func TestMeshWaitsForFormationPeersByID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	w := &worker{
		id: 1, n: 3,
		alive:     []bool{false, true, true}, // worker 0 departed; 2 has yet to dial in
		peerAddrs: []string{"", "", ""},
		led:       newLedger(nil),
		fetches:   make(map[uint64]*blockFetchWait),
	}
	w.tun = w.tun.withDefaults()
	meshed := make(chan error, 1)
	go func() { meshed <- w.setupPeers(ln) }()

	joiner := dialAs(t, ln.Addr().String(), 3)
	defer joiner.close()
	select {
	case err := <-meshed:
		t.Fatalf("mesh wait ended (err %v) on a joiner's link, with formation peer 2 not linked", err)
	case <-time.After(100 * time.Millisecond):
	}
	peer2 := dialAs(t, ln.Addr().String(), 2)
	defer peer2.close()
	select {
	case err := <-meshed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mesh wait did not end once formation peer 2 linked")
	}
	ln.Close()
	joiner.close()
	peer2.close()
	w.wg.Wait()
}
