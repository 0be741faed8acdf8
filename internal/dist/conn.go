package dist

import (
	"bufio"
	"net"
	"sync"
	"time"
)

// frame is one queued outbound message.
type frame struct {
	typ        byte
	payload    []byte
	bulk       bool      // counts against the send window (shuffle data)
	records    int64     // kv records carried, for loss accounting
	acct       int64     // kv encoded bytes carried, for loss accounting
	spanID     uint64    // pre-minted net/send span id (bulk, traced)
	spanParent uint64    // parent span of the net/send span
	enq        time.Time // when the frame entered the queue (bulk only)
}

// conn wraps one TCP connection with the transport policies every link in
// the cluster shares:
//
//   - a write pump: all sends enqueue and return; a single goroutine owns
//     the socket's write side, so shuffle transfers overlap the caller's
//     compute and no two goroutines interleave frames.
//   - a bounded send window: bulk (mRun) frames block the sender while
//     more than Tuning.sendWindow bytes are queued or in flight —
//     backpressure from a slow receiver propagates to the map executor.
//     Control frames bypass the window: acks and membership frames must flow
//     even when a window is wedged, or two workers shuffling into each
//     other could deadlock.
//   - heartbeats: a keep-alive frame every Tuning.heartbeatEvery, and a
//     read deadline of Tuning.heartbeatTimeout — a peer that goes silent
//     past the timeout surfaces as a recv error, which callers treat as
//     death.
//
// Frames are written with a single Write call each, so a connection torn
// down between frames never delivers a truncated frame; a frame that never
// (fully) reached the socket is reported to onDrop for loss accounting.
//
// Teardown comes in two flavors. close() is a hard teardown: the socket
// closes both ways and unwritten frames are dropped. seal() half-closes:
// the write side drains its queue as dropped and sends FIN, but the read
// side stays open — used around a worker death, where frames already on
// the wire must still be drained (and accounted) by whichever side
// survives, so sent == received + lost stays exact.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	name string

	hbTimeout time.Duration

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []frame
	queuedBulk int64 // bytes of bulk frames queued or being written
	window     int64
	writing    bool
	closed     bool
	onDrop     func(f frame)
	// onBulkDone, if set, receives every bulk frame admitted to the queue
	// once its socket write completes (or it drops at teardown). The worker
	// records the frame's net/send span here, from f.enq, so the span covers
	// the frame's whole tenure in the transfer pipeline — queue residence
	// plus the write. That is the interval during which the data is in
	// flight concurrently with whatever the executor computes next, i.e.
	// the overlap the trace must show. The frame carries the span id and
	// parent the coalescer stamped on it.
	onBulkDone func(f *frame)
	// onBulkTiming, if set, receives the split of each successfully written
	// bulk frame's tenure: nanoseconds spent waiting in the queue versus
	// nanoseconds inside the socket write. The net/send span above is their
	// sum; the split tells queue congestion apart from a slow wire.
	onBulkTiming func(queueNs, writeNs int64)
	// clock, if set by enableClock, receives the timestamp exchange of
	// every heartbeat reply this side's reader drains.
	clock *clockEstimator

	done chan struct{}
}

// newConn starts the write pump and heartbeat sender for c. onDrop (may be
// nil) receives every bulk frame that was accepted by send but never
// written to the socket, for loss accounting.
func newConn(c net.Conn, name string, t Tuning, onDrop func(f frame)) *conn {
	t = t.withDefaults()
	cc := &conn{
		c:         c,
		br:        bufio.NewReader(c),
		name:      name,
		hbTimeout: t.heartbeatTimeout,
		window:    t.sendWindow,
		onDrop:    onDrop,
		done:      make(chan struct{}),
	}
	cc.cond = sync.NewCond(&cc.mu)
	go cc.pump()
	go cc.heartbeat(t.heartbeatEvery)
	return cc
}

// send enqueues one frame. Bulk frames block while the window is full
// (unless the connection closes, which unblocks everything). A frame
// offered after close is immediately reported dropped.
func (cc *conn) send(f frame) {
	cc.mu.Lock()
	if f.bulk {
		debit := int64(len(f.payload))
		for !cc.closed && cc.queuedBulk > 0 && cc.queuedBulk+debit > cc.window {
			cc.cond.Wait()
		}
	}
	if cc.closed {
		cc.mu.Unlock()
		cc.drop(f)
		return
	}
	if f.bulk {
		cc.queuedBulk += int64(len(f.payload))
		f.enq = time.Now()
	}
	cc.queue = append(cc.queue, f)
	cc.cond.Broadcast()
	cc.mu.Unlock()
}

func (cc *conn) drop(f frame) {
	if !f.enq.IsZero() && cc.onBulkDone != nil {
		cc.onBulkDone(&f)
	}
	if cc.onDrop != nil && f.bulk {
		cc.onDrop(f)
	}
}

// pump owns the socket's write side, draining the queue in FIFO order.
// On teardown the queue is drained as dropped — by the pump itself on a
// write error, by teardown() otherwise.
func (cc *conn) pump() {
	for {
		cc.mu.Lock()
		for len(cc.queue) == 0 && !cc.closed {
			cc.cond.Wait()
		}
		if cc.closed {
			cc.mu.Unlock()
			return
		}
		f := cc.queue[0]
		cc.queue = cc.queue[1:]
		cc.writing = true
		cc.mu.Unlock()

		var w0 time.Time
		if f.bulk {
			w0 = time.Now()
		}
		err := writeFrame(cc.c, f.typ, f.payload)
		if err == nil {
			if f.bulk && cc.onBulkTiming != nil {
				cc.onBulkTiming(w0.Sub(f.enq).Nanoseconds(), time.Since(w0).Nanoseconds())
			}
			if f.bulk && cc.onBulkDone != nil {
				cc.onBulkDone(&f)
			}
		}

		cc.mu.Lock()
		cc.writing = false
		if f.bulk {
			cc.queuedBulk -= int64(len(f.payload))
		}
		if err != nil {
			if !cc.closed {
				cc.closed = true
				close(cc.done)
			}
			rest := cc.queue
			cc.queue = nil
			cc.queuedBulk = 0
			cc.cond.Broadcast()
			cc.mu.Unlock()
			cc.c.Close()
			cc.drop(f) // conservatively lost: a partial write is discarded by the peer's framing
			for _, r := range rest {
				cc.drop(r)
			}
			return
		}
		cc.cond.Broadcast()
		cc.mu.Unlock()
	}
}

// heartbeat keeps the link warm so the peer's read deadline only fires on
// genuine silence.
func (cc *conn) heartbeat(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-cc.done:
			return
		case <-t.C:
			cc.send(frame{typ: mHeartbeat})
		}
	}
}

// enableClock arms the NTP-style clock exchange on this link: est receives
// every reply's timestamps, and a prober goroutine sends a short burst of
// probes immediately (so even sub-second jobs get samples) and then one per
// `every`. Only one side of a link probes (the coordinator); the other side
// just echoes, which recv does unconditionally.
func (cc *conn) enableClock(est *clockEstimator, every time.Duration) {
	cc.mu.Lock()
	cc.clock = est
	cc.mu.Unlock()
	go cc.probeClock(every)
}

func (cc *conn) probeClock(every time.Duration) {
	probe := func() {
		cc.send(frame{typ: mHeartbeat, payload: encode(&hbMsg{Kind: hbProbe, T1: time.Now().UnixNano()})})
	}
	// An immediate burst: the first samples arrive before bulk traffic can
	// queue behind the probes and inflate the RTT, and the min-RTT filter
	// keeps whichever was cleanest.
	for i := 0; i < 3; i++ {
		probe()
		select {
		case <-cc.done:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-cc.done:
			return
		case <-t.C:
			probe()
		}
	}
}

// recv returns the next non-heartbeat frame. Heartbeats are consumed here:
// a clock probe is answered with a reply carrying our receive/send stamps,
// a reply feeds the link's clock estimator, and a plain (or malformed —
// it's only a keepalive) payload is skipped. Any error — including a read
// deadline expiring after heartbeatTimeout of silence — means the peer is
// gone as far as this link is concerned.
func (cc *conn) recv() (byte, []byte, error) {
	for {
		if cc.hbTimeout > 0 {
			cc.c.SetReadDeadline(time.Now().Add(cc.hbTimeout))
		}
		typ, payload, err := readFrame(cc.br)
		if err != nil {
			return 0, nil, err
		}
		if typ == mHeartbeat {
			cc.handleHeartbeat(payload)
			continue
		}
		return typ, payload, nil
	}
}

func (cc *conn) handleHeartbeat(payload []byte) {
	if len(payload) == 0 {
		return // plain keep-alive
	}
	now := time.Now().UnixNano()
	var hb hbMsg
	if err := decode(payload, &hb).fin("heartbeat"); err != nil {
		return
	}
	switch hb.Kind {
	case hbProbe:
		cc.send(frame{typ: mHeartbeat, payload: encode(&hbMsg{
			Kind: hbReply, T1: hb.T1, T2: now, T3: time.Now().UnixNano(),
		})})
	case hbReply:
		cc.mu.Lock()
		est := cc.clock
		cc.mu.Unlock()
		if est != nil {
			est.sample(hb.T1, hb.T2, hb.T3, now)
		}
	}
}

// flush blocks until every queued frame has been written (or the
// connection closed underneath the queue).
func (cc *conn) flush() {
	cc.mu.Lock()
	for !cc.closed && (len(cc.queue) > 0 || cc.writing) {
		cc.cond.Wait()
	}
	cc.mu.Unlock()
}

// close hard-tears the connection down: both socket directions close,
// blocked senders wake, unwritten frames are dropped. Idempotent.
func (cc *conn) close() { cc.teardown(true) }

// seal closes only the write side: queued frames drop (accounted lost),
// new sends drop, the socket gets FIN — but reads continue, so the peer's
// in-flight frames can still be drained. Idempotent; a later close()
// finishes the job.
func (cc *conn) seal() { cc.teardown(false) }

func (cc *conn) teardown(full bool) {
	cc.mu.Lock()
	if !cc.closed {
		cc.closed = true
		close(cc.done)
	}
	cc.cond.Broadcast()
	if full {
		// Close the socket first so an in-flight pump write errors out
		// instead of blocking teardown behind a peer that stopped reading.
		cc.mu.Unlock()
		cc.c.Close()
		cc.mu.Lock()
	}
	for cc.writing {
		cc.cond.Wait()
	}
	rest := cc.queue
	cc.queue = nil
	cc.queuedBulk = 0
	cc.cond.Broadcast()
	cc.mu.Unlock()
	for _, f := range rest {
		cc.drop(f)
	}
	if !full {
		// Half-close: FIN the write side, leave reads open. A sealed
		// write on a non-TCP conn (tests use net.Pipe) falls back to a
		// full close.
		if cw, ok := cc.c.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		} else {
			cc.c.Close()
		}
	}
}

// shutdown flushes the queue, then seals: the peer reads every frame, then
// EOF, while this side's reader drains the peer's frames to its EOF. Use
// for orderly teardown, where nothing sent either way may go unaccounted.
func (cc *conn) shutdown() {
	cc.flush()
	cc.seal()
}
