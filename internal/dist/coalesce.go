package dist

import (
	"sync"
	"time"

	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// coalescer batches the shuffle runs bound for one peer into large
// mRunBatch frames. Runs are produced one per map chunk per partition —
// cheap to make, expensive to ship alone: each frame costs a header, a
// socket write and send-window bookkeeping. Buffering entries and shipping
// them together pays those costs once per batch.
//
// A buffered batch flushes on three triggers:
//
//   - size: the body crosses the coalesceBytes budget (checked on add);
//   - time: the oldest buffered entry has waited coalesceDelay (a timer
//     armed when the buffer turns non-empty, so a batch never idles while
//     peers starve for data);
//   - barrier: the sender is about to emit the attempt's end-of-attempt
//     marker, which must follow every run of that attempt on the FIFO
//     connection (runMap flushes before each mark).
//
// Wire accounting happens at frame granularity, at flush: netSent counts
// the frame's payload bytes the moment the frame is enqueued, and the
// connection's drop path reports the same figure lost if the frame never
// reaches the socket. Entries buffered in a closed coalescer are discarded
// without ever being counted sent, so sent == recv + lost stays exact
// across worker kills.
type coalescer struct {
	cc      *conn
	led     *ledger
	tr      *obs.Tracer
	traceID uint64

	mu      sync.Mutex
	body    codec // runEntries layout under construction
	records int64
	parent  uint64    // span parent of the batch: first contributing kernel
	oldest  time.Time // enqueue time of the oldest buffered entry
	closed  bool
	timer   *time.Timer // the time trigger
}

const (
	// coalesceBytes flushes a peer's coalescer (and a handoff message)
	// once this many bytes of run entries are buffered.
	coalesceBytes = 256 << 10
	// coalesceDelay bounds how long a buffered run waits for more
	// passengers before its frame ships anyway.
	coalesceDelay = 2 * time.Millisecond
)

func newCoalescer(cc *conn, led *ledger, tr *obs.Tracer, traceID uint64) *coalescer {
	co := &coalescer{cc: cc, led: led, tr: tr, traceID: traceID}
	co.timer = time.AfterFunc(time.Hour, co.flushIfStale)
	co.timer.Stop()
	return co
}

// add buffers one run for shipment, flushing when the body crosses the
// size budget. parent is the map-kernel span that produced the run; the
// batch's net/send span parents on the first contributor (a frame holds
// runs from many kernels but a span holds one parent — first-in is the one
// whose latency the frame's tenure actually extends). Adds to a closed
// coalescer (dying link) are discarded — never counted sent, so no loss
// entry is owed.
func (co *coalescer) add(task, attempt, part int, r *kv.Run, parent uint64, epoch int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed {
		return
	}
	if len(co.body.buf) == 0 {
		co.oldest = time.Now()
		co.parent = parent
		co.timer.Reset(coalesceDelay)
	}
	re := runEntry{
		Task: task, Attempt: attempt, Partition: part,
		Records: r.Records, RawBytes: r.RawBytes, Epoch: epoch, Blob: r.Blob(),
	}
	re.wire(&co.body)
	co.records += int64(r.Records)
	if len(co.body.buf) >= coalesceBytes {
		co.flushLocked()
	}
}

// flush ships whatever is buffered. Called before an attempt's markers go
// out so every run precedes its mark on the connection.
func (co *coalescer) flush() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.flushLocked()
}

// flushIfStale ships the buffer only when its oldest entry has waited at
// least coalesceDelay — the time trigger; a batch flushed and refilled
// since the timer was armed re-armed it.
func (co *coalescer) flushIfStale() {
	co.mu.Lock()
	defer co.mu.Unlock()
	if len(co.body.buf) > 0 && time.Since(co.oldest) >= coalesceDelay {
		co.flushLocked()
	}
}

func (co *coalescer) flushLocked() {
	if co.closed || len(co.body.buf) == 0 {
		return
	}
	// Mint the frame's net/send span id here so it can ride inside the
	// payload: the receiver parents its net/recv staging span on it, which
	// is the cross-process edge of the trace.
	var sendSpan uint64
	if co.tr != nil {
		sendSpan = co.tr.NewID()
	}
	payload := encode(&runBatchMsg{TraceID: co.traceID, SendSpan: sendSpan, Body: co.body.buf})
	records := co.records
	parent := co.parent
	co.body.buf = co.body.buf[:0] // payload holds its own copy of the body
	co.records = 0
	co.parent = 0
	co.led.netSent(records, int64(len(payload)))
	co.led.frameBytes(5 + int64(len(payload))) // wire size incl. frame header
	// send may block on the send window; adds from the executor then block
	// on co.mu, which is the same backpressure they would feel sending
	// directly. A concurrent seal/close of the conn unblocks it.
	co.cc.send(frame{
		typ: mRunBatch, payload: payload, bulk: true,
		records: records, acct: int64(len(payload)),
		spanID: sendSpan, spanParent: parent,
	})
}

// close discards buffered entries and rejects future adds. The discarded
// entries were never counted sent, so the wire ledger balances without a
// matching loss entry.
func (co *coalescer) close() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.closed = true
	co.body = codec{}
	co.records = 0
	co.timer.Stop()
}
