package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"glasswing/internal/kv"
	"glasswing/internal/native"
	"glasswing/internal/obs"
)

// The wire format is deliberately tiny: every frame is
//
//	[4-byte big-endian length][1-byte type][payload]
//
// where length counts the type byte plus the payload. Payloads are encoded
// with uvarints and length-prefixed byte strings (the same primitives as
// kv's stream framing), and every payload type states its field order once,
// in a wire method that both encodes and decodes it. Bulk shuffle data rides
// in mRunBatch frames: a map attempt's runs for one destination batched into
// frames of about coalesceBytes, so the per-frame costs (syscall, header,
// send-window bookkeeping) are paid once per batch instead of once per run.

// maxFrame bounds one frame; a length prefix beyond it means a corrupt or
// hostile stream, not a big transfer (runs are produced per map chunk and
// sit far below this).
const maxFrame = 1 << 28

// Message types. Control frames are small and never window-limited; the
// bulk types (mRunBatch, mHandoff, mBlockPut) are.
const (
	mWelcome      byte = iota + 1 // coord→worker: assigned worker id, cluster size
	mJobStart                     // coord→worker: job spec, peer addrs, partition homes
	mMapTask                      // coord→worker: task, attempt, input block
	mMapDone                      // worker→coord: task, attempt, attempt stats
	mMapFailed                    // worker→coord: task, attempt, reason
	mRunBatch                     // worker→worker: runBatchMsg, one attempt's partition runs (bulk)
	mMark                         // worker→worker: attempt complete, commit staged runs
	mAck                          // worker→worker: mark processed
	mReduceTask                   // coord→worker: partition, attempt
	mReduceDone                   // worker→coord: partition, attempt, output pairs
	mReduceFailed                 // worker→coord: partition, attempt, reason
	mJobEnd                       // coord→worker: job over, shut down
	mHeartbeat                    // both directions: keep-alive / clock probe
	mPeerHello                    // worker→worker on dial: my worker id
	mSpanBatch                    // worker→coord: this node's trace spans, at job end
	mJoin                         // worker→coord: join request (formation or live), listen addr
	mJoinReady                    // worker→coord: live joiner's peer mesh is connected
	mRejoin                       // worker→coord: re-attach to a resumed coordinator
	mMembership                   // coord→worker: every membership change — epoch, homes, liveness, settled set
	mDrained                      // coord→worker: handoff complete, exit cleanly
	mHandoff                      // worker→worker: runBatchMsg, committed runs of one re-homed partition (bulk)
	mHandoffMark                  // worker→worker: one partition's handoff is complete
	mHandoffDone                  // worker→coord: destination committed a handed-off partition
	mBlockPut                     // coord→worker: ingest one input-block replica into the worker's store (bulk)
	mBlockFetch                   // worker→worker: request a read of one stored block
	mBlockData                    // worker→worker: the fetched block, whole
)

func typeName(t byte) string {
	names := [...]string{
		mWelcome: "welcome", mJobStart: "job-start",
		mMapTask: "map-task", mMapDone: "map-done", mMapFailed: "map-failed",
		mRunBatch: "run-batch", mMark: "mark", mAck: "ack",
		mReduceTask: "reduce-task", mReduceDone: "reduce-done", mReduceFailed: "reduce-failed",
		mJobEnd: "job-end", mHeartbeat: "heartbeat",
		mPeerHello: "peer-hello", mSpanBatch: "span-batch",
		mJoin: "join", mJoinReady: "join-ready", mRejoin: "rejoin",
		mMembership: "membership", mDrained: "drained",
		mHandoff: "handoff", mHandoffMark: "handoff-mark", mHandoffDone: "handoff-done",
		mBlockPut: "block-put", mBlockFetch: "block-fetch", mBlockData: "block-data",
	}
	if int(t) < len(names) && names[t] != "" {
		return names[t]
	}
	return fmt.Sprintf("type-%d", t)
}

// frameHeader is the length of a frame's header: its length and type bytes.
const frameHeader = 5

// newFrame lays m out as one frame of type typ, allocated once: the codec's
// size pass gives the payload's length, so the frame is made at its full
// length, its header written first and the payload encoded in place behind
// it.
func newFrame(typ byte, m payload) frame {
	c := codec{size: true}
	m.wire(&c)
	c = codec{buf: frameBuf(typ, c.n)}
	m.wire(&c)
	return frame{buf: c.buf}
}

// ctlFrame is a frame of type typ with no payload.
func ctlFrame(typ byte) frame { return frame{buf: frameBuf(typ, 0)} }

// frameBuf allocates a frame of type typ with room for an n-byte payload and
// writes its header: the payload is appended behind it.
func frameBuf(typ byte, n int) []byte {
	b := make([]byte, frameHeader, frameHeader+n)
	binary.BigEndian.PutUint32(b, uint32(1+n))
	b[4] = typ
	return b
}

// writeFrame emits one frame with a single Write call — header and payload
// were laid out together when the frame was built — so a connection torn
// down between frames never leaves a truncated frame behind: the kill
// accounting in loopback mode relies on whole-frame delivery.
func writeFrame(w io.Writer, f frame) error {
	_, err := w.Write(f.buf)
	return err
}

// readFrame reads one frame, tolerating arbitrary short reads from the
// socket (io.ReadFull reassembles TCP segmentation). Every frame gets a fresh
// buffer that nothing reuses, so the byte fields the decoders return (input
// blocks, run blobs, reduce output) are views into it, valid for as long as
// the frame is referenced.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("dist: implausible frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("dist: truncated frame: %w", err)
	}
	return body[0], body[1:], nil
}

// codec runs one payload layout in either direction. Encoding appends every
// field a wire method names to buf; decoding (dec set) reads the same fields
// back from buf, in the same order, into the same places. The first malformed
// field latches err and every later read is a no-op, so a decode checks err
// once, in fin. Decoded byte fields alias buf — the frame, whose lifetime
// readFrame states — except where a layout copies them (owned). An encode
// with size set writes nothing: n counts the bytes it would append, so a
// payload can be allocated once, at its length.
type codec struct {
	buf  []byte
	dec  bool
	size bool
	n    int
	err  error
}

// payload is anything with a layout: its wire method is the only statement of
// its field order.
type payload interface{ wire(*codec) }

// encode lays m out as bytes that go in no frame: a journal record, an
// app's params.
func encode(m payload) []byte {
	var c codec
	m.wire(&c)
	return c.buf
}

// decode fills m from p through m's layout. The caller checks the result
// with fin, naming the payload.
func decode(p []byte, m payload) codec {
	c := codec{buf: p, dec: true}
	m.wire(&c)
	return c
}

var errCorrupt = errors.New("dist: corrupt payload")

// fin returns the latched decode error, also flagging trailing garbage.
func (c codec) fin(what string) error {
	if c.err != nil {
		return fmt.Errorf("dist: decoding %s: %w", what, c.err)
	}
	if len(c.buf) != 0 {
		return fmt.Errorf("dist: decoding %s: %d trailing bytes", what, len(c.buf))
	}
	return nil
}

func (c *codec) u(v *uint64) {
	if !c.dec {
		// One append per field, not per byte, so a buffer grows at most once
		// per field.
		var tmp [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(tmp[:], *v)
		if c.size {
			c.n += k
		} else {
			c.buf = append(c.buf, tmp[:k]...)
		}
		return
	}
	if c.err != nil {
		return
	}
	x, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.err = errCorrupt
		return
	}
	*v, c.buf = x, c.buf[n:]
}

// i and i64 carry signed integers as the uvarint of their two's complement.
func (c *codec) i(v *int) {
	x := uint64(*v)
	c.u(&x)
	if c.dec {
		*v = int(x)
	}
}

func (c *codec) i64(v *int64) {
	x := uint64(*v)
	c.u(&x)
	if c.dec {
		*v = int64(x)
	}
}

func (c *codec) bool(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	c.u(&x)
	if c.dec {
		*v = x != 0
	}
}

func (c *codec) f64(v *float64) {
	x := math.Float64bits(*v)
	c.u(&x)
	if c.dec {
		*v = math.Float64frombits(x)
	}
}

// bytes carries a length-prefixed byte string; decoding aliases buf.
func (c *codec) bytes(v *[]byte) {
	n := uint64(len(*v))
	c.u(&n)
	if !c.dec {
		if c.size {
			c.n += len(*v)
		} else {
			c.buf = append(c.buf, *v...)
		}
		return
	}
	if c.err == nil && n > uint64(len(c.buf)) {
		c.err = errCorrupt
	}
	if c.err == nil {
		*v, c.buf = c.buf[:n], c.buf[n:]
	}
}

// owned is bytes for a field that outlives its frame: decoding copies.
func (c *codec) owned(v *[]byte) {
	c.bytes(v)
	if c.dec {
		*v = append([]byte(nil), *v...)
	}
}

// marshal carries pairs as the byte string kv.Marshal(pairs), laid out
// straight into buf; the receiver reads it with bytes. Encode only.
func (c *codec) marshal(pairs []kv.Pair) {
	n := uint64(kv.MarshalSize(pairs))
	c.u(&n)
	if c.size {
		c.n += int(n)
	} else {
		c.buf = kv.AppendMarshal(c.buf, pairs)
	}
}

func (c *codec) str(v *string) {
	if !c.dec {
		n := uint64(len(*v))
		c.u(&n)
		if c.size {
			c.n += len(*v)
		} else {
			c.buf = append(c.buf, *v...)
		}
		return
	}
	var b []byte
	c.bytes(&b)
	*v = string(b)
}

// count carries a list length. Decoding latches errCorrupt when it exceeds
// the bytes left: every element takes at least one.
func (c *codec) count(n int) int {
	x := uint64(n)
	c.u(&x)
	if c.dec && c.err == nil && x > uint64(len(c.buf)) {
		c.err = errCorrupt
	}
	if c.err != nil {
		return 0
	}
	return int(x)
}

// list carries a count-prefixed list, each element laid out by elem.
// Decoding grows the list one element at a time, so a count that lies costs
// no more memory than the bytes behind it.
func list[T any](c *codec, v *[]T, elem func(*T)) {
	n := c.count(len(*v))
	if c.dec {
		*v = nil
	}
	for i := 0; i < n && c.err == nil; i++ {
		if c.dec {
			*v = append(*v, *new(T))
		}
		elem(&(*v)[i])
	}
}

// rest carries a list with no count prefix that runs to the end of buf: the
// layout of a body its sender appends to one entry at a time.
func rest[T any](c *codec, v *[]T, elem func(*T)) {
	if !c.dec {
		for i := range *v {
			elem(&(*v)[i])
		}
		return
	}
	*v = nil
	for len(c.buf) > 0 && c.err == nil {
		*v = append(*v, *new(T))
		elem(&(*v)[len(*v)-1])
	}
}

func (c *codec) ints(v *[]int)    { list(c, v, c.i) }
func (c *codec) bools(v *[]bool)  { list(c, v, c.bool) }
func (c *codec) strs(v *[]string) { list(c, v, c.str) }

// job carries what a worker or a resume reads of a job spec — the same
// bytes on the wire's job-start and in the journal's job-start record.
func (c *codec) job(j *Job) {
	c.str(&j.App.Name)
	c.owned(&j.App.Params)
	c.i(&j.Partitions)
	c.bool(&j.UseCombiner)
	c.bool(&j.Compress)
}

// --- message payloads ---

type helloMsg struct {
	ListenAddr string // where this worker accepts peer connections
}

func (m *helloMsg) wire(c *codec) { c.str(&m.ListenAddr) }

type welcomeMsg struct {
	WorkerID int
	Workers  int
}

func (m *welcomeMsg) wire(c *codec) { c.i(&m.WorkerID); c.i(&m.Workers) }

type jobStartMsg struct {
	Job     Job
	TraceID uint64   // job-wide trace id, minted by the coordinator
	Peers   []string // worker id → listen addr ("" = departed/dead, don't dial)
	Homes   []int    // partition → home worker id
	Epoch   int      // membership epoch the homes belong to
	Live    bool     // true when this worker is joining a job already underway
}

func (m *jobStartMsg) wire(c *codec) {
	c.u(&m.TraceID)
	c.job(&m.Job)
	c.strs(&m.Peers)
	c.ints(&m.Homes)
	c.i(&m.Epoch)
	c.bool(&m.Live)
}

type mapTaskMsg struct {
	Task    int
	Attempt int
	// SpanID is the coordinator's sched/assign span for this attempt — the
	// parent of every span the attempt produces on the worker.
	SpanID uint64
	Block  []byte
	// Block-store reference fields. With Ref set the task's input is block
	// <Task> of the distributed store: Block is empty and the worker reads
	// it locally or fetches it from one of Holders (live replica holders,
	// coordinator's view at dispatch). A Ref task may still carry embedded
	// Block bytes — the coordinator's fallback when no holder survives —
	// which the worker accounts as a remote read. AllowLocal false forces a
	// remote fetch even on a holder (the conformance forced-remote axis).
	Ref        bool
	BlockSize  int64
	Holders    []int
	AllowLocal bool
}

func (m *mapTaskMsg) wire(c *codec) {
	c.i(&m.Task)
	c.i(&m.Attempt)
	c.u(&m.SpanID)
	c.bytes(&m.Block)
	c.bool(&m.Ref)
	c.i64(&m.BlockSize)
	c.ints(&m.Holders)
	c.bool(&m.AllowLocal)
}

// attemptStats is the map-side conservation slice of one successful
// attempt, flushed into the shared ledger only when the attempt wins.
type attemptStats = native.MapStats

// mapDoneMsg is also the journal's map-done record, byte for byte: the
// coordinator journals the payload it decoded.
type mapDoneMsg struct {
	Task    int
	Attempt int
	Stats   attemptStats
}

func (m *mapDoneMsg) wire(c *codec) {
	c.i(&m.Task)
	c.i(&m.Attempt)
	c.i64(&m.Stats.RecordsIn)
	c.i64(&m.Stats.PairsOut)
	c.i64(&m.Stats.PartRecords)
	c.i64(&m.Stats.PartRuns)
	c.i64(&m.Stats.PartRaw)
	c.i64(&m.Stats.PartFrame)
	c.i64(&m.Stats.PartStored)
}

type taskFailMsg struct {
	Task    int
	Attempt int
	Reason  string
}

func (m *taskFailMsg) wire(c *codec) { c.i(&m.Task); c.i(&m.Attempt); c.str(&m.Reason) }

// runEntry is one partition's run inside a run-batch or handoff frame. Blob
// is the run's bytes as its map task built them — DEFLATEd when the job
// compresses; the receiver rebuilds the run with kv.RunFromBlob and only
// package kv reads them. A handed-off run has won its commit at its old
// home, so it carries no attempt: the new home re-keys it by (task,
// partition) under the transition's epoch.
type runEntry struct {
	Task      int
	Attempt   int
	Partition int
	Records   int
	RawBytes  int64
	Epoch     int // membership epoch the sender routed under
	Blob      []byte
}

// size is the entry's encoded length.
func (e *runEntry) size() int {
	c := codec{size: true}
	e.wire(&c)
	return c.n
}

func (e *runEntry) wire(c *codec) {
	c.i(&e.Task)
	c.i(&e.Attempt)
	c.i(&e.Partition)
	c.i(&e.Records)
	c.i64(&e.RawBytes)
	c.i(&e.Epoch)
	c.bytes(&e.Blob)
}

// runEntries is a runBatchMsg body: entries back to back with no count
// prefix — shipment.frame writes them in place behind the body's length,
// and the receiver consumes until the body is exhausted.
type runEntries []runEntry

func (l *runEntries) wire(c *codec) { rest(c, (*[]runEntry)(l), func(e *runEntry) { e.wire(c) }) }

// runBatchMsg is both bulk shuffle frames, a run batch and a handoff: runs
// one sender ships one destination, back to back in Body. TraceID and SendSpan
// are the trace context the frame propagates: the receiver parents its
// net/recv staging span on the sender's net/send span. Decoded entry blobs
// alias the payload, which readFrame never reuses, so the runs built on
// them own their bytes.
type runBatchMsg struct {
	TraceID  uint64
	SendSpan uint64 // sender's net/send span id (0 = untraced)
	Body     []byte // runEntries layout
}

func (m *runBatchMsg) wire(c *codec) {
	c.u(&m.TraceID)
	c.u(&m.SendSpan)
	c.bytes(&m.Body)
}

type markMsg struct {
	Task    int
	Attempt int
}

func (m *markMsg) wire(c *codec) { c.i(&m.Task); c.i(&m.Attempt) }

type reduceTaskMsg struct {
	Partition int
	Attempt   int
	// SpanID is the coordinator's sched/reduce span for this partition — the
	// parent of the worker's reduce span.
	SpanID uint64
}

func (m *reduceTaskMsg) wire(c *codec) { c.i(&m.Partition); c.i(&m.Attempt); c.u(&m.SpanID) }

// reduceDoneMsg is also the journal's reduce-done record, byte for byte.
// Output is kv.Marshal of the partition's final pairs, and aliases the
// frame; replay copies it out of the journal image. Pairs is what Output
// decodes to (decodeRecord), aliasing it.
type reduceDoneMsg struct {
	Partition int
	Attempt   int
	RecordsIn int64
	GroupsIn  int64
	Output    []byte
	Pairs     []kv.Pair
}

func (m *reduceDoneMsg) wire(c *codec) {
	m.counts(c)
	c.bytes(&m.Output)
}

// counts carries the fields before Output.
func (m *reduceDoneMsg) counts(c *codec) {
	c.i(&m.Partition)
	c.i(&m.Attempt)
	c.i64(&m.RecordsIn)
	c.i64(&m.GroupsIn)
}

// reduceOutMsg is a reduce-done as its worker sends it: reduceDoneMsg's
// layout, with Output laid out from Pairs straight into the frame, in
// kv.Marshal's bytes and with no blob built first. Encode only: the
// coordinator decodes a reduceDoneMsg.
type reduceOutMsg struct{ reduceDoneMsg }

func (m *reduceOutMsg) wire(c *codec) {
	m.counts(c)
	c.marshal(m.Pairs)
}

type peerHelloMsg struct {
	WorkerID int
}

func (m *peerHelloMsg) wire(c *codec) { c.i(&m.WorkerID) }

// spanBatchMsg ships one node's recorded trace spans to the coordinator at
// job end. Span times are seconds relative to the node's own tracer epoch;
// EpochUnixNano anchors that epoch on the node's wall clock so the
// coordinator can rebase the batch onto its own timeline after subtracting
// the estimated clock offset. Span nodes are implied by Node (one batch per
// node), not serialized per span.
type spanBatchMsg struct {
	TraceID       uint64
	Node          int
	EpochUnixNano int64
	Spans         []obs.Span
}

func (m *spanBatchMsg) wire(c *codec) {
	c.u(&m.TraceID)
	c.i(&m.Node)
	c.i64(&m.EpochUnixNano)
	list(c, &m.Spans, func(s *obs.Span) {
		if c.dec {
			s.Node = m.Node
		}
		c.str(&s.Stage)
		c.f64(&s.Start)
		c.f64(&s.End)
		c.u(&s.ID)
		c.u(&s.Parent)
		// Tags are a count-prefixed key/value list, sorted by key so the
		// bytes do not depend on map order.
		n := c.count(len(s.Tags))
		keys := make([]string, 0, len(s.Tags))
		for k := range s.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for j := 0; j < n && c.err == nil; j++ {
			var k, v string
			if !c.dec {
				k, v = keys[j], s.Tags[keys[j]]
			}
			c.str(&k)
			c.str(&v)
			if c.dec && c.err == nil {
				if s.Tags == nil {
					s.Tags = make(map[string]string, n)
				}
				s.Tags[k] = v
			}
		}
	})
}

// Heartbeat payload kinds. A plain keep-alive carries no payload, and a
// kind of 0 reads as one; probe/reply frames carry
// the NTP-style timestamp exchange the coordinator uses to estimate each
// worker's clock offset: the probe echoes the sender's send time t1, the
// reply adds the receiver's receive time t2 and send time t3, and the
// prober stamps t4 on arrival.
const (
	hbProbe = 1
	hbReply = 2
)

type hbMsg struct {
	Kind       uint64
	T1, T2, T3 int64 // unix nanoseconds; unused fields are zero
}

func (m *hbMsg) wire(c *codec) { c.u(&m.Kind); c.i64(&m.T1); c.i64(&m.T2); c.i64(&m.T3) }

// --- elastic membership payloads ---

// rejoinMsg re-attaches a surviving worker to a coordinator that restarted
// and resumed from its journal. Epoch is the worker's last-seen membership
// epoch; the coordinator refuses the resume if any worker is ahead of the
// journal (a torn membership transition it cannot reconstruct).
type rejoinMsg struct {
	WorkerID   int
	ListenAddr string
	Epoch      int
}

func (m *rejoinMsg) wire(c *codec) { c.i(&m.WorkerID); c.str(&m.ListenAddr); c.i(&m.Epoch) }

// membershipMsg is the one frame every membership change travels as — a
// death, a join, a drain and a resumed coordinator's refresh alike — and
// the wire twin of the journal's membership record: the epoch, the full
// partition→home map, cluster liveness as the coordinator announces it, and
// the partitions whose accepted output settled. Joined/Left name the
// worker a join or drain transition is about (-1 = none). Workers owning a
// partition whose home changed away from them hand its committed runs to
// the new home.
type membershipMsg struct {
	Epoch      int
	Homes      []int
	Alive      []bool
	Settled    []bool // partitions whose accepted output settled: never ship to them again
	Joined     int    // worker id that joined, -1 = none
	JoinedAddr string // joiner's peer listen addr
	Left       int    // worker id being drained, -1 = none
}

func (m *membershipMsg) wire(c *codec) {
	c.i(&m.Epoch)
	c.ints(&m.Homes)
	c.bools(&m.Alive)
	c.bools(&m.Settled)
	c.i(&m.Joined)
	c.str(&m.JoinedAddr)
	c.i(&m.Left)
}

// handoffMsg names one partition's handoff under a membership epoch. As a
// handoff mark it closes the handoff: everything staged for the partition
// is complete and the destination should adopt it. As a handoff done it
// tells the coordinator the new home adopted it; the transition completes
// when every moved partition reports.
type handoffMsg struct {
	Epoch     int
	Partition int
}

func (m *handoffMsg) wire(c *codec) { c.i(&m.Epoch); c.i(&m.Partition) }

// --- block-store payloads ---

// blockPutMsg ingests one input-block replica into a worker's on-disk
// store. The coordinator pushes these on each holder's control connection
// right after JobStart — FIFO framing guarantees every replica is durable
// on its holder before the first MapTask that might reference it arrives.
// Data aliases the frame; the store writes it straight to disk.
type blockPutMsg struct {
	ID   int
	Data []byte
}

func (m *blockPutMsg) wire(c *codec) { c.i(&m.ID); c.bytes(&m.Data) }

// blockFetchMsg asks a peer holding block ID to read it back. Nonce
// correlates the reply with the waiting fetch on the requester.
type blockFetchMsg struct {
	ID    int
	Nonce uint64
}

func (m *blockFetchMsg) wire(c *codec) { c.i(&m.ID); c.u(&m.Nonce) }

// blockDataMsg answers one fetch with the whole block, in one control frame
// so it passes a wedged bulk window. OK false means the holder could not
// read it. Data aliases the frame.
type blockDataMsg struct {
	ID    int
	Nonce uint64
	OK    bool
	Data  []byte
}

func (m *blockDataMsg) wire(c *codec) {
	c.i(&m.ID)
	c.u(&m.Nonce)
	c.bool(&m.OK)
	c.bytes(&m.Data)
}
