package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"glasswing/internal/core"
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
// kv's stream framing). Bulk shuffle data rides in mRunBatch frames: many
// small per-chunk runs coalesced into one large frame per destination, so
// the per-frame costs (syscall, header, send-window bookkeeping, one
// DEFLATE stream when the job compresses) are paid once per batch instead
// of once per run.

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
	mRunBatch                     // worker→worker: coalesced partition runs (bulk)
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
	mHandoff                      // worker→worker: committed runs of one re-homed partition (bulk)
	mHandoffMark                  // worker→worker: one partition's handoff is complete
	mHandoffDone                  // worker→coord: destination committed a handed-off partition
	mBlockPut                     // coord→worker: ingest one input-block replica into the worker's store (bulk)
	mBlockFetch                   // worker→worker: request a streamed read of one stored block
	mBlockChunk                   // worker→worker: one chunk of a fetched block
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
		mBlockPut: "block-put", mBlockFetch: "block-fetch", mBlockChunk: "block-chunk",
	}
	if int(t) < len(names) && names[t] != "" {
		return names[t]
	}
	return fmt.Sprintf("type-%d", t)
}

// writeFrame emits one frame. It performs a single Write call per frame
// (header and payload pre-assembled) so a connection torn down between
// frames never leaves a truncated frame behind — the kill accounting in
// loopback mode relies on whole-frame delivery.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	frame := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(1+len(payload)))
	frame[4] = typ
	copy(frame[5:], payload)
	_, err := w.Write(frame)
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

// enc assembles a payload from uvarints and length-prefixed byte strings.
type enc struct{ buf []byte }

func (e *enc) u(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf = append(e.buf, tmp[:n]...)
}

func (e *enc) i(v int64) { e.u(uint64(v)) }

func (e *enc) bytes(b []byte) {
	e.u(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *enc) str(s string) { e.bytes([]byte(s)) }

func (e *enc) bool(b bool) {
	if b {
		e.u(1)
	} else {
		e.u(0)
	}
}

// ints and bools write count-prefixed lists.
func (e *enc) ints(v []int) {
	e.u(uint64(len(v)))
	for _, x := range v {
		e.i(int64(x))
	}
}

func (e *enc) bools(v []bool) {
	e.u(uint64(len(v)))
	for _, b := range v {
		e.bool(b)
	}
}

// job writes a job spec — the same bytes on the wire's job-start and in the
// journal's job-start record.
func (e *enc) job(j Job) {
	e.str(j.App.Name)
	e.bytes(j.App.Params)
	e.i(int64(j.Partitions))
	e.u(uint64(j.Collector))
	e.bool(j.UseCombiner)
	e.bool(j.Compress)
	e.i(int64(j.MaxAttempts))
}

var errCorrupt = errors.New("dist: corrupt payload")

// dec decodes a payload; the first malformed field latches err and every
// later read returns zero values, so decode paths check err once at the
// end.
type dec struct {
	buf []byte
	err error
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errCorrupt
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *dec) i() int64 { return int64(d.u()) }

func (d *dec) bytes() []byte {
	n := d.u()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.err = errCorrupt
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *dec) str() string { return string(d.bytes()) }

func (d *dec) bool() bool { return d.u() != 0 }

// count reads a list length, latching errCorrupt when it exceeds the bytes
// left: every element takes at least one.
func (d *dec) count() int {
	n := d.u()
	if n > uint64(len(d.buf)) {
		d.err = errCorrupt
		return 0
	}
	return int(n)
}

func (d *dec) ints() []int {
	var v []int
	for n := d.count(); len(v) < n && d.err == nil; {
		v = append(v, int(d.i()))
	}
	return v
}

func (d *dec) bools() []bool {
	var v []bool
	for n := d.count(); len(v) < n && d.err == nil; {
		v = append(v, d.bool())
	}
	return v
}

func (d *dec) job() Job {
	j := Job{App: AppSpec{Name: d.str(), Params: append([]byte(nil), d.bytes()...)}}
	j.Partitions = int(d.i())
	j.Collector = core.CollectorKind(d.u())
	j.UseCombiner = d.bool()
	j.Compress = d.bool()
	j.MaxAttempts = int(d.i())
	return j
}

// fin returns the latched decode error, also flagging trailing garbage.
func (d *dec) fin(what string) error {
	if d.err != nil {
		return fmt.Errorf("dist: decoding %s: %w", what, d.err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("dist: decoding %s: %d trailing bytes", what, len(d.buf))
	}
	return nil
}

// --- message payloads ---

type helloMsg struct {
	ListenAddr string // where this worker accepts peer connections
}

func (m helloMsg) encode() []byte {
	var e enc
	e.str(m.ListenAddr)
	return e.buf
}

func decodeHello(p []byte) (helloMsg, error) {
	d := dec{buf: p}
	m := helloMsg{ListenAddr: d.str()}
	return m, d.fin("hello")
}

type welcomeMsg struct {
	WorkerID int
	Workers  int
}

func (m welcomeMsg) encode() []byte {
	var e enc
	e.i(int64(m.WorkerID))
	e.i(int64(m.Workers))
	return e.buf
}

func decodeWelcome(p []byte) (welcomeMsg, error) {
	d := dec{buf: p}
	m := welcomeMsg{WorkerID: int(d.i()), Workers: int(d.i())}
	return m, d.fin("welcome")
}

type jobStartMsg struct {
	Job     Job
	TraceID uint64   // job-wide trace id, minted by the coordinator
	Peers   []string // worker id → listen addr ("" = departed/dead, don't dial)
	Homes   []int    // partition → home worker id
	Epoch   int      // membership epoch the homes belong to
	Live    bool     // true when this worker is joining a job already underway
}

func (m jobStartMsg) encode() []byte {
	var e enc
	e.u(m.TraceID)
	e.job(m.Job)
	e.u(uint64(len(m.Peers)))
	for _, p := range m.Peers {
		e.str(p)
	}
	e.ints(m.Homes)
	e.i(int64(m.Epoch))
	e.bool(m.Live)
	return e.buf
}

func decodeJobStart(p []byte) (jobStartMsg, error) {
	d := dec{buf: p}
	m := jobStartMsg{TraceID: d.u(), Job: d.job()}
	for n := d.count(); len(m.Peers) < n && d.err == nil; {
		m.Peers = append(m.Peers, d.str())
	}
	m.Homes = d.ints()
	m.Epoch = int(d.i())
	m.Live = d.bool()
	return m, d.fin("job-start")
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
	// it locally or streams it from one of Holders (live replica holders,
	// coordinator's view at dispatch). A Ref task may still carry embedded
	// Block bytes — the coordinator's fallback when no holder survives —
	// which the worker accounts as a remote read. AllowLocal false forces a
	// remote fetch even on a holder (the conformance forced-remote axis).
	Ref        bool
	BlockSize  int64
	Holders    []int
	AllowLocal bool
}

func (m mapTaskMsg) encode() []byte {
	var e enc
	e.i(int64(m.Task))
	e.i(int64(m.Attempt))
	e.u(m.SpanID)
	e.bytes(m.Block)
	e.bool(m.Ref)
	e.i(m.BlockSize)
	e.ints(m.Holders)
	e.bool(m.AllowLocal)
	return e.buf
}

func decodeMapTask(p []byte) (mapTaskMsg, error) {
	d := dec{buf: p}
	m := mapTaskMsg{Task: int(d.i()), Attempt: int(d.i()), SpanID: d.u()}
	m.Block = d.bytes()
	m.Ref = d.bool()
	m.BlockSize = d.i()
	m.Holders = d.ints()
	m.AllowLocal = d.bool()
	return m, d.fin("map-task")
}

// attemptStats is the map-side conservation slice of one successful
// attempt, flushed into the shared ledger only when the attempt wins.
type attemptStats = native.MapStats

type mapDoneMsg struct {
	Task    int
	Attempt int
	Stats   attemptStats
}

func (m mapDoneMsg) encode() []byte {
	var e enc
	e.i(int64(m.Task))
	e.i(int64(m.Attempt))
	e.i(m.Stats.RecordsIn)
	e.i(m.Stats.PairsOut)
	e.i(m.Stats.PartRecords)
	e.i(m.Stats.PartRuns)
	e.i(m.Stats.PartRaw)
	e.i(m.Stats.PartStored)
	return e.buf
}

func decodeMapDone(p []byte) (mapDoneMsg, error) {
	d := dec{buf: p}
	m := mapDoneMsg{Task: int(d.i()), Attempt: int(d.i())}
	m.Stats = attemptStats{
		RecordsIn: d.i(), PairsOut: d.i(),
		PartRecords: d.i(), PartRuns: d.i(), PartRaw: d.i(), PartStored: d.i(),
	}
	return m, d.fin("map-done")
}

type taskFailMsg struct {
	Task    int
	Attempt int
	Reason  string
}

func (m taskFailMsg) encode() []byte {
	var e enc
	e.i(int64(m.Task))
	e.i(int64(m.Attempt))
	e.str(m.Reason)
	return e.buf
}

func decodeTaskFail(p []byte) (taskFailMsg, error) {
	d := dec{buf: p}
	m := taskFailMsg{Task: int(d.i()), Attempt: int(d.i()), Reason: d.str()}
	return m, d.fin("task-fail")
}

// runEntry is one partition's run inside a coalesced shuffle frame. Blob is
// always an uncompressed kv.Run encoding — when the job compresses, the
// whole frame body is DEFLATEd once, so every run in the batch shares one
// compression context instead of paying per-run stream overhead.
type runEntry struct {
	Task      int
	Attempt   int
	Partition int
	Records   int
	RawBytes  int64
	Epoch     int // membership epoch the sender routed under
	Blob      []byte
}

// runBatchMsg is the bulk shuffle frame: the runs one sender has buffered
// for one destination, shipped back to back. The body carries the entries
// with no count prefix — the coalescer appends entries incrementally and
// the decoder consumes until the body is exhausted. TraceID and SendSpan
// are the trace context the frame propagates: the receiver parents its
// net/recv staging span on the sender's net/send span.
type runBatchMsg struct {
	TraceID    uint64
	SendSpan   uint64 // sender's net/send span id (0 = untraced)
	Compressed bool   // body DEFLATEd as one stream on the wire
	Entries    []runEntry
}

// appendRunEntry serializes one entry onto a body under construction.
func appendRunEntry(e *enc, re runEntry) {
	e.i(int64(re.Task))
	e.i(int64(re.Attempt))
	e.i(int64(re.Partition))
	e.i(int64(re.Records))
	e.i(re.RawBytes)
	e.i(int64(re.Epoch))
	e.bytes(re.Blob)
}

func (m runBatchMsg) encode() []byte {
	var body enc
	for _, re := range m.Entries {
		appendRunEntry(&body, re)
	}
	return encodeRunBatchBody(body.buf, m.Compressed, m.TraceID, m.SendSpan)
}

// encodeRunBatchBody wraps an assembled entry body into the frame payload,
// compressing it when asked and prefixing the frame's trace context.
func encodeRunBatchBody(body []byte, compress bool, traceID, sendSpan uint64) []byte {
	if compress {
		body = kv.Deflate(body)
	}
	var e enc
	e.u(traceID)
	e.u(sendSpan)
	e.bool(compress)
	e.bytes(body)
	return e.buf
}

// decodeRunBatch decodes a coalesced shuffle frame. Entry blobs alias the
// payload (or, for a compressed frame, the freshly inflated body) — this is
// the zero-copy receive path: callers wrap blobs in kv.NewRunView and must
// keep them only as long as the backing buffer lives, or Retain the views.
func decodeRunBatch(p []byte) (runBatchMsg, error) {
	d := dec{buf: p}
	var m runBatchMsg
	m.TraceID = d.u()
	m.SendSpan = d.u()
	m.Compressed = d.bool()
	body := d.bytes()
	if err := d.fin("run-batch"); err != nil {
		return m, err
	}
	if m.Compressed {
		var err error
		if body, err = kv.Inflate(body); err != nil {
			return m, fmt.Errorf("dist: inflating run batch: %w", err)
		}
	}
	bd := dec{buf: body}
	for len(bd.buf) > 0 && bd.err == nil {
		re := runEntry{
			Task: int(bd.i()), Attempt: int(bd.i()), Partition: int(bd.i()),
			Records: int(bd.i()), RawBytes: bd.i(), Epoch: int(bd.i()),
		}
		re.Blob = bd.bytes()
		if bd.err == nil {
			m.Entries = append(m.Entries, re)
		}
	}
	if bd.err != nil {
		return m, fmt.Errorf("dist: decoding run-batch entries: %w", bd.err)
	}
	return m, nil
}

type markMsg struct {
	Task    int
	Attempt int
}

func (m markMsg) encode() []byte {
	var e enc
	e.i(int64(m.Task))
	e.i(int64(m.Attempt))
	return e.buf
}

func decodeMark(p []byte) (markMsg, error) {
	d := dec{buf: p}
	m := markMsg{Task: int(d.i()), Attempt: int(d.i())}
	return m, d.fin("mark")
}

type reduceTaskMsg struct {
	Partition int
	Attempt   int
	// SpanID is the coordinator's sched/reduce span for this partition — the
	// parent of the worker's reduce span.
	SpanID uint64
}

func (m reduceTaskMsg) encode() []byte {
	var e enc
	e.i(int64(m.Partition))
	e.i(int64(m.Attempt))
	e.u(m.SpanID)
	return e.buf
}

func decodeReduceTask(p []byte) (reduceTaskMsg, error) {
	d := dec{buf: p}
	m := reduceTaskMsg{Partition: int(d.i()), Attempt: int(d.i()), SpanID: d.u()}
	return m, d.fin("reduce-task")
}

type reduceDoneMsg struct {
	Partition int
	Attempt   int
	RecordsIn int64
	GroupsIn  int64
	Output    []byte // kv.Marshal of the partition's final pairs
}

func (m reduceDoneMsg) encode() []byte {
	var e enc
	e.i(int64(m.Partition))
	e.i(int64(m.Attempt))
	e.i(m.RecordsIn)
	e.i(m.GroupsIn)
	e.bytes(m.Output)
	return e.buf
}

func decodeReduceDone(p []byte) (reduceDoneMsg, error) {
	d := dec{buf: p}
	m := reduceDoneMsg{
		Partition: int(d.i()), Attempt: int(d.i()),
		RecordsIn: d.i(), GroupsIn: d.i(),
	}
	m.Output = d.bytes()
	return m, d.fin("reduce-done")
}

type peerHelloMsg struct {
	WorkerID int
}

func (m peerHelloMsg) encode() []byte {
	var e enc
	e.i(int64(m.WorkerID))
	return e.buf
}

func decodePeerHello(p []byte) (peerHelloMsg, error) {
	d := dec{buf: p}
	m := peerHelloMsg{WorkerID: int(d.i())}
	return m, d.fin("peer-hello")
}

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

func (m spanBatchMsg) encode() []byte {
	var e enc
	e.u(m.TraceID)
	e.i(int64(m.Node))
	e.i(m.EpochUnixNano)
	e.u(uint64(len(m.Spans)))
	for _, s := range m.Spans {
		e.str(s.Stage)
		e.u(math.Float64bits(s.Start))
		e.u(math.Float64bits(s.End))
		e.u(s.ID)
		e.u(s.Parent)
		e.u(uint64(len(s.Tags)))
		keys := make([]string, 0, len(s.Tags))
		for k := range s.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic wire bytes for map-ordered tags
		for _, k := range keys {
			e.str(k)
			e.str(s.Tags[k])
		}
	}
	return e.buf
}

func decodeSpanBatch(p []byte) (spanBatchMsg, error) {
	d := dec{buf: p}
	var m spanBatchMsg
	m.TraceID = d.u()
	m.Node = int(d.i())
	m.EpochUnixNano = d.i()
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		s := obs.Span{Node: m.Node, Stage: d.str()}
		s.Start = math.Float64frombits(d.u())
		s.End = math.Float64frombits(d.u())
		s.ID = d.u()
		s.Parent = d.u()
		for j, nt := 0, d.count(); j < nt && d.err == nil; j++ {
			k := d.str()
			v := d.str()
			if d.err == nil {
				if s.Tags == nil {
					s.Tags = make(map[string]string, nt)
				}
				s.Tags[k] = v
			}
		}
		if d.err == nil {
			m.Spans = append(m.Spans, s)
		}
	}
	return m, d.fin("span-batch")
}

// Heartbeat payload kinds. A plain keep-alive carries no payload (legacy
// frames from older nodes decode as plain too); probe/reply frames carry
// the NTP-style timestamp exchange the coordinator uses to estimate each
// worker's clock offset: the probe echoes the sender's send time t1, the
// reply adds the receiver's receive time t2 and send time t3, and the
// prober stamps t4 on arrival.
const (
	hbPlain = 0
	hbProbe = 1
	hbReply = 2
)

type hbMsg struct {
	Kind       uint64
	T1, T2, T3 int64 // unix nanoseconds; unused fields are zero
}

func (m hbMsg) encode() []byte {
	var e enc
	e.u(m.Kind)
	e.i(m.T1)
	e.i(m.T2)
	e.i(m.T3)
	return e.buf
}

func decodeHB(p []byte) (hbMsg, error) {
	d := dec{buf: p}
	m := hbMsg{Kind: d.u(), T1: d.i(), T2: d.i(), T3: d.i()}
	return m, d.fin("heartbeat")
}

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

func (m rejoinMsg) encode() []byte {
	var e enc
	e.i(int64(m.WorkerID))
	e.str(m.ListenAddr)
	e.i(int64(m.Epoch))
	return e.buf
}

func decodeRejoin(p []byte) (rejoinMsg, error) {
	d := dec{buf: p}
	m := rejoinMsg{WorkerID: int(d.i()), ListenAddr: d.str(), Epoch: int(d.i())}
	return m, d.fin("rejoin")
}

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

func (m membershipMsg) encode() []byte {
	var e enc
	e.i(int64(m.Epoch))
	e.ints(m.Homes)
	e.bools(m.Alive)
	e.bools(m.Settled)
	e.i(int64(m.Joined))
	e.str(m.JoinedAddr)
	e.i(int64(m.Left))
	return e.buf
}

func decodeMembership(p []byte) (membershipMsg, error) {
	d := dec{buf: p}
	m := membershipMsg{Epoch: int(d.i()), Homes: d.ints(), Alive: d.bools(), Settled: d.bools()}
	m.Joined = int(d.i())
	m.JoinedAddr = d.str()
	m.Left = int(d.i())
	return m, d.fin("membership")
}

// handoffEntry is one committed run travelling to a partition's new home.
// Unlike runEntry there is no attempt: these runs already won their commit
// race at the old home; the destination re-keys them by (task, partition)
// under the transition's epoch.
type handoffEntry struct {
	Task     int
	Records  int
	RawBytes int64
	Blob     []byte
}

// handoffBatchMsg is the bulk frame carrying part of one re-homed
// partition's committed runs. Entries are consumed until the body is
// exhausted, mirroring runBatchMsg.
type handoffBatchMsg struct {
	Epoch     int
	Partition int
	Entries   []handoffEntry
}

func (m handoffBatchMsg) encode() []byte {
	var e enc
	e.i(int64(m.Epoch))
	e.i(int64(m.Partition))
	for _, he := range m.Entries {
		e.i(int64(he.Task))
		e.i(int64(he.Records))
		e.i(he.RawBytes)
		e.bytes(he.Blob)
	}
	return e.buf
}

func decodeHandoffBatch(p []byte) (handoffBatchMsg, error) {
	d := dec{buf: p}
	m := handoffBatchMsg{Epoch: int(d.i()), Partition: int(d.i())}
	for len(d.buf) > 0 && d.err == nil {
		he := handoffEntry{Task: int(d.i()), Records: int(d.i()), RawBytes: d.i()}
		he.Blob = d.bytes()
		if d.err == nil {
			m.Entries = append(m.Entries, he)
		}
	}
	if d.err != nil {
		return m, fmt.Errorf("dist: decoding handoff entries: %w", d.err)
	}
	return m, nil
}

// handoffMarkMsg closes one partition's handoff: everything staged for it
// under this epoch is complete and the destination should adopt it.
type handoffMarkMsg struct {
	Epoch     int
	Partition int
	Runs      int
	Records   int64
}

func (m handoffMarkMsg) encode() []byte {
	var e enc
	e.i(int64(m.Epoch))
	e.i(int64(m.Partition))
	e.i(int64(m.Runs))
	e.i(m.Records)
	return e.buf
}

func decodeHandoffMark(p []byte) (handoffMarkMsg, error) {
	d := dec{buf: p}
	m := handoffMarkMsg{
		Epoch: int(d.i()), Partition: int(d.i()),
		Runs: int(d.i()), Records: d.i(),
	}
	return m, d.fin("handoff-mark")
}

// handoffDoneMsg tells the coordinator one re-homed partition has been
// adopted by its new home; the transition completes when every moved
// partition reports.
type handoffDoneMsg struct {
	Epoch     int
	Partition int
}

func (m handoffDoneMsg) encode() []byte {
	var e enc
	e.i(int64(m.Epoch))
	e.i(int64(m.Partition))
	return e.buf
}

func decodeHandoffDone(p []byte) (handoffDoneMsg, error) {
	d := dec{buf: p}
	m := handoffDoneMsg{Epoch: int(d.i()), Partition: int(d.i())}
	return m, d.fin("handoff-done")
}

// --- block-store payloads ---

// blockPutMsg ingests one input-block replica into a worker's on-disk
// store. The coordinator pushes these on each holder's control connection
// right after JobStart — FIFO framing guarantees every replica is durable
// on its holder before the first MapTask that might reference it arrives.
type blockPutMsg struct {
	ID   int
	Data []byte
}

func (m blockPutMsg) encode() []byte {
	var e enc
	e.i(int64(m.ID))
	e.bytes(m.Data)
	return e.buf
}

func decodeBlockPut(p []byte) (blockPutMsg, error) {
	d := dec{buf: p}
	m := blockPutMsg{ID: int(d.i())}
	m.Data = d.bytes() // aliases the payload; the store writes it straight to disk
	return m, d.fin("block-put")
}

// blockFetchMsg asks a peer holding block ID to stream it back. Nonce
// correlates the reply chunks with the waiting fetch on the requester.
type blockFetchMsg struct {
	ID    int
	Nonce uint64
}

func (m blockFetchMsg) encode() []byte {
	var e enc
	e.i(int64(m.ID))
	e.u(m.Nonce)
	return e.buf
}

func decodeBlockFetch(p []byte) (blockFetchMsg, error) {
	d := dec{buf: p}
	m := blockFetchMsg{ID: int(d.i()), Nonce: d.u()}
	return m, d.fin("block-fetch")
}

// blockChunkMsg is one chunk of a streamed block read (blockstore.ReadChunk
// granularity — the serving side never materializes the whole block). Last
// marks the final chunk; OK false aborts the fetch (block not held, or the
// holder's disk failed mid-stream).
type blockChunkMsg struct {
	ID    int
	Nonce uint64
	OK    bool
	Last  bool
	Data  []byte
}

func (m blockChunkMsg) encode() []byte {
	var e enc
	e.i(int64(m.ID))
	e.u(m.Nonce)
	e.bool(m.OK)
	e.bool(m.Last)
	e.bytes(m.Data)
	return e.buf
}

func decodeBlockChunk(p []byte) (blockChunkMsg, error) {
	d := dec{buf: p}
	m := blockChunkMsg{ID: int(d.i()), Nonce: d.u(), OK: d.bool(), Last: d.bool()}
	m.Data = append([]byte(nil), d.bytes()...)
	return m, d.fin("block-chunk")
}
