package dist

import (
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// tcpPair returns both ends of one real loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	t.Cleanup(func() { a.Close(); acc.c.Close() })
	return a, acc.c
}

func TestHeartbeatTimeoutDeclaresPeerDead(t *testing.T) {
	a, b := tcpPair(t)
	// Side A heartbeats so rarely the peer's timeout always fires first.
	ca := newConn(a, "a", Tuning{heartbeatEvery: time.Hour, heartbeatTimeout: time.Hour}, nil)
	defer ca.close()
	cb := newConn(b, "b", Tuning{heartbeatEvery: time.Hour, heartbeatTimeout: 100 * time.Millisecond}, nil)
	defer cb.close()

	done := make(chan error, 1)
	go func() {
		_, _, err := cb.recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("recv returned a frame from a silent peer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent peer never timed out")
	}
}

// rawFrame is a frame of type typ carrying p as its payload.
func rawFrame(typ byte, p []byte) frame {
	return frame{buf: append(frameBuf(typ, len(p)), p...)}
}

// bulkFrame is a run-batch frame carrying p, booked as records records.
func bulkFrame(p []byte, records int64) frame {
	f := rawFrame(mRunBatch, p)
	f.bulk, f.records, f.acct = true, records, int64(len(p))
	return f
}

func TestSendWindowBackpressure(t *testing.T) {
	a, b := tcpPair(t)
	// Tiny window, receiver not reading: after the window fills (plus
	// whatever the kernel socket buffers swallow), bulk sends must block.
	tun := Tuning{sendWindow: 4 << 10, heartbeatEvery: time.Hour, heartbeatTimeout: time.Hour}
	ca := newConn(a, "a", tun, nil)
	defer ca.close()
	cb := newConn(b, "b", tun, nil)
	defer cb.close()

	f := bulkFrame(make([]byte, 8<<10), 0) // each frame alone overflows the window
	var sent atomic.Int64
	go func() {
		for i := 0; i < 1000; i++ {
			ca.send(f)
			sent.Add(1)
		}
	}()

	// The sender must wedge well short of 1000 frames: the window admits
	// one oversized frame at a time and the peer drains nothing.
	deadline := time.Now().Add(2 * time.Second)
	var stalled int64
	for time.Now().Before(deadline) {
		n := sent.Load()
		time.Sleep(50 * time.Millisecond)
		if n == sent.Load() && n > 0 {
			stalled = n
			break
		}
	}
	if stalled == 0 || stalled >= 1000 {
		t.Fatalf("sender never stalled (sent %d)", sent.Load())
	}

	// A control frame must bypass the wedged window...
	ctrlSent := make(chan struct{})
	go func() {
		ca.send(newFrame(mMark, &markMsg{Task: 9}))
		close(ctrlSent)
	}()
	select {
	case <-ctrlSent:
	case <-time.After(2 * time.Second):
		t.Fatal("control frame blocked behind the bulk window")
	}

	// ...and once the receiver drains, the sender must make progress again.
	go func() {
		for {
			if _, _, err := cb.recv(); err != nil {
				return
			}
		}
	}()
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sent.Load() > stalled {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sender made no progress after receiver drained (stuck at %d)", sent.Load())
}

func TestSealAccountsQueuedFramesAsLost(t *testing.T) {
	a, b := tcpPair(t)
	tun := Tuning{sendWindow: 1 << 30, heartbeatEvery: time.Hour, heartbeatTimeout: time.Hour}
	var lostRecords, lostBytes atomic.Int64
	onDrop := func(f frame) {
		lostRecords.Add(f.records)
		lostBytes.Add(f.acct)
	}
	ca := newConn(a, "a", tun, onDrop)
	defer ca.close()

	// Stall the pump: the receiver reads nothing and the payloads exceed
	// socket buffering, so most frames stay queued.
	f := bulkFrame(make([]byte, 1<<20), 10)
	const frames = 64
	for i := 0; i < frames; i++ {
		ca.send(f)
	}
	ca.seal()
	// Everything still queued at seal time must be accounted lost; at least
	// the frames beyond the socket buffer can't have been written.
	if lostRecords.Load() == 0 {
		t.Fatal("seal with a wedged pump accounted no loss")
	}
	if lostRecords.Load()%10 != 0 {
		t.Fatalf("lost records %d not a multiple of per-frame count", lostRecords.Load())
	}
	if lostBytes.Load() != (lostRecords.Load()/10)*f.acct {
		t.Fatalf("lost bytes %d inconsistent with lost records %d", lostBytes.Load(), lostRecords.Load())
	}

	// sent = written + lost must balance: drain what did reach the wire.
	cb := newConn(b, "b", tun, nil)
	defer cb.close()
	var arrived int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			typ, _, err := cb.recv()
			if err != nil {
				return
			}
			if typ == mRunBatch {
				arrived++
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sealed connection never delivered FIN")
	}
	if got := arrived*10 + lostRecords.Load(); got != frames*10 {
		t.Fatalf("conservation broke: arrived %d + lost %d != sent %d",
			arrived*10, lostRecords.Load(), frames*10)
	}
}

func TestSendAfterCloseDropsWithAccounting(t *testing.T) {
	a, _ := tcpPair(t)
	var lost atomic.Int64
	ca := newConn(a, "a", Tuning{}, func(f frame) { lost.Add(f.records) })
	ca.close()
	ca.send(bulkFrame([]byte("x"), 7))
	if lost.Load() != 7 {
		t.Fatalf("post-close send accounted %d lost records, want 7", lost.Load())
	}
}

func TestShutdownFlushesQueuedFrames(t *testing.T) {
	a, b := tcpPair(t)
	tun := Tuning{heartbeatEvery: time.Hour, heartbeatTimeout: time.Hour}
	ca := newConn(a, "a", tun, nil)
	cb := newConn(b, "b", tun, nil)
	defer cb.close()

	const frames = 50
	for i := 0; i < frames; i++ {
		ca.send(newFrame(mMark, &markMsg{Task: i}))
	}
	go ca.shutdown()

	var got int
	for got < frames {
		typ, _, err := cb.recv()
		if err != nil {
			t.Fatalf("after %d/%d frames: %v", got, frames, err)
		}
		if typ == mMark {
			got++
		}
	}
}
