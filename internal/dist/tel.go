package dist

import (
	"sync"
	"sync/atomic"
	"time"

	"glasswing/internal/obs"
)

// ledger is the dist runtime's conservation and stage-time account, using
// the same conserv_* vocabulary as internal/core's jobCounters and
// internal/native's recorder plus the wire counters this runtime adds. In
// loopback mode one ledger is shared by every node in the process (the
// counters are atomics), matching how conformance reads a single registry;
// a multi-process worker owns a private one.
type ledger struct {
	tel   *obs.Telemetry
	epoch time.Time

	mapRecordsIn atomic.Int64
	mapPairsOut  atomic.Int64
	partRecords  atomic.Int64
	partRuns     atomic.Int64
	partRaw      atomic.Int64
	partStored   atomic.Int64

	storeAccepted   atomic.Int64
	storeDupDropped atomic.Int64
	storeLost       atomic.Int64
	storeSettled    atomic.Int64 // records a final accepted reduce consumed before their store died
	handoffOut      atomic.Int64 // committed records shipped off a re-homed partition
	handoffIn       atomic.Int64 // committed records adopted at a partition's new home

	reduceRecordsIn atomic.Int64
	reduceGroupsIn  atomic.Int64
	outputPairs     atomic.Int64

	netRecordsSent atomic.Int64
	netBytesSent   atomic.Int64
	netRecordsRecv atomic.Int64
	netBytesRecv   atomic.Int64
	netRecordsLost atomic.Int64
	netBytesLost   atomic.Int64

	// Block-store locality: bytes of map input read from the mapper's own
	// store versus streamed from a remote holder (or shipped embedded by
	// the coordinator as a last resort). Their sum is the input volume, so
	// local/(local+remote) is the Fig 3(d) locality hit ratio.
	readLocalBytes  atomic.Int64
	readRemoteBytes atomic.Int64
	// blockIngestBytes counts block replica bytes pushed to this node's
	// store at ingest (replication included), kept apart from the shuffle
	// wire counters so the conservation ledger stays about records.
	blockIngestBytes atomic.Int64

	// Out-of-core reduce: committed shuffle runs evicted to disk when a
	// node's resident intermediate data exceeds Tuning.SpillThreshold.
	// Same conserv_spill_* vocabulary as the native runtime's spill path.
	spillRecords     atomic.Int64
	spillRawBytes    atomic.Int64
	spillStoredBytes atomic.Int64
	spillFiles       atomic.Int64
	spillDisarmed    atomic.Int64 // stores that stopped spilling after a disk error

	mapKernelNs    atomic.Int64
	mapInputNs     atomic.Int64
	mapPartitionNs atomic.Int64
	netSendNs      atomic.Int64
	netRecvNs      atomic.Int64
	spillNs        atomic.Int64
	reduceNs       atomic.Int64

	// net/send split: queue residence vs socket write, summed per bulk
	// frame by the connection write pumps. netSendNs above is the span sum
	// (queue + write); these tell congestion apart from a slow wire.
	netQueueNs atomic.Int64
	netWriteNs atomic.Int64
}

// distFrameBuckets bucket outbound shuffle frame sizes in bytes, from
// lone-run frames up to fully coalesced multi-megabyte batches.
var distFrameBuckets = []float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

// frameBytes records one outbound shuffle frame's wire size.
func (l *ledger) frameBytes(n int64) {
	if l.tel != nil && l.tel.Metrics != nil {
		l.tel.Metrics.Histogram("dist_frame_bytes", distFrameBuckets).Observe(float64(n))
	}
}

// bulkTiming accumulates one written bulk frame's queue/write split, both
// as running totals (the counters -report splits net/send by) and as
// per-frame latency histograms whose estimated quantiles expose the tail.
func (l *ledger) bulkTiming(queueNs, writeNs int64) {
	l.netQueueNs.Add(queueNs)
	l.netWriteNs.Add(writeNs)
	if l.tel != nil && l.tel.Metrics != nil {
		l.tel.Metrics.Histogram("dist_net_queue_seconds", obs.DefTimeBuckets).Observe(float64(queueNs) / 1e9)
		l.tel.Metrics.Histogram("dist_net_write_seconds", obs.DefTimeBuckets).Observe(float64(writeNs) / 1e9)
	}
}

func newLedger(tel *obs.Telemetry) *ledger {
	return &ledger{tel: tel, epoch: time.Now()}
}

// flushAttempt folds one winning map attempt's stats into the ledger.
// Failed and killed attempts flush nothing, so the map-side counters stay
// exact even on retry runs.
func (l *ledger) flushAttempt(s attemptStats) {
	l.mapRecordsIn.Add(s.RecordsIn)
	l.mapPairsOut.Add(s.PairsOut)
	l.partRecords.Add(s.PartRecords)
	l.partRuns.Add(s.PartRuns)
	l.partRaw.Add(s.PartRaw)
	l.partStored.Add(s.PartStored)
}

func (l *ledger) netSent(records, bytes int64) {
	l.netRecordsSent.Add(records)
	l.netBytesSent.Add(bytes)
}

func (l *ledger) netRecv(records, bytes int64) {
	l.netRecordsRecv.Add(records)
	l.netBytesRecv.Add(bytes)
}

func (l *ledger) netLost(records, bytes int64) {
	l.netRecordsLost.Add(records)
	l.netBytesLost.Add(bytes)
}

func (l *ledger) nsAcc(stage string) *atomic.Int64 {
	switch stage {
	case stageMapKernel:
		return &l.mapKernelNs
	case stageMapInput:
		return &l.mapInputNs
	case stageMapPartition:
		return &l.mapPartitionNs
	case stageNetSend:
		return &l.netSendNs
	case stageNetRecv:
		return &l.netRecvNs
	case stageSpill:
		return &l.spillNs
	default:
		return &l.reduceNs
	}
}

// tracer records one node's trace spans against that node's own wall clock
// and mints cluster-unique span ids. Workers ship their tracer's buffer to
// the coordinator in a span-batch at job end; the coordinator rebases every
// batch onto its own epoch (minus the estimated clock offset) and emits one
// merged trace. The ledger reference (nil for the coordinator) feeds the
// per-stage busy accumulators exactly as the old per-ledger spans did.
type tracer struct {
	led   *ledger
	node  int
	epoch time.Time
	ctr   atomic.Uint64
	buf   obs.SpanBuffer
}

// spanIDBits is how many id bits belong to the per-tracer counter; the bits
// above carry the node salt (node+2, so the coordinator's node -1 salts as
// 1 and node 0 as 2 — never 0, which marks "no span").
const spanIDBits = 48

func newTracer(led *ledger, node int) *tracer {
	return &tracer{led: led, node: node, epoch: time.Now()}
}

// newID mints a cluster-unique span id: node salt in the high bits, a
// per-tracer counter below.
func (t *tracer) newID() uint64 {
	return uint64(t.node+2)<<spanIDBits | (t.ctr.Add(1) & (1<<spanIDBits - 1))
}

// span starts one unit of stage work with a fresh id; the returned func
// ends and records it. The id is returned up front so it can parent child
// spans (or cross the wire) before the work completes.
func (t *tracer) span(stage string, parent uint64) (uint64, func()) {
	id := t.newID()
	return id, t.spanWithID(id, stage, parent)
}

// spanWithID starts stage work under a pre-minted id — the net/send path,
// where the coalescer mints the id so it can embed it in the frame payload
// before the connection pump starts the span.
func (t *tracer) spanWithID(id uint64, stage string, parent uint64) func() {
	t0 := time.Now()
	return func() { t.recordAt(id, stage, t0, time.Now(), parent) }
}

// record books a completed interval with a fresh id, returning the id.
func (t *tracer) record(stage string, start, end time.Time, parent uint64) uint64 {
	id := t.newID()
	t.recordAt(id, stage, start, end, parent)
	return id
}

// recordTagged is record with span tags attached — the per-split locality
// verdict on map/input spans, for one.
func (t *tracer) recordTagged(stage string, start, end time.Time, parent uint64, tags map[string]string) uint64 {
	id := t.newID()
	d := end.Sub(start)
	if t.led != nil {
		t.led.nsAcc(stage).Add(int64(d))
	}
	begin := start.Sub(t.epoch).Seconds()
	t.buf.Span(obs.Span{
		Node: t.node, Stage: stage,
		Start: begin, End: begin + d.Seconds(),
		ID: id, Parent: parent, Tags: tags,
	})
	return id
}

func (t *tracer) recordAt(id uint64, stage string, start, end time.Time, parent uint64) {
	d := end.Sub(start)
	if t.led != nil {
		t.led.nsAcc(stage).Add(int64(d))
	}
	begin := start.Sub(t.epoch).Seconds()
	t.buf.Span(obs.Span{
		Node: t.node, Stage: stage,
		Start: begin, End: begin + d.Seconds(),
		ID: id, Parent: parent,
	})
}

// spans returns the recorded spans.
func (t *tracer) spans() []obs.Span { return t.buf.Spans() }

// clockEstimator holds the NTP-style offset estimate for one remote node,
// fed by heartbeat probe/reply timestamp exchanges. The estimate kept is
// the one observed at minimum round-trip time — the sample least distorted
// by queuing — and its error is bounded by rtt/2.
type clockEstimator struct {
	mu       sync.Mutex
	have     bool
	bestRTT  int64   // nanoseconds
	offsetNs float64 // remote clock minus local clock at min-RTT
}

// sample folds in one exchange: t1 local send, t2 remote receive, t3 remote
// send, t4 local receive (all unix nanoseconds, two different clocks).
func (ce *clockEstimator) sample(t1, t2, t3, t4 int64) {
	rtt := (t4 - t1) - (t3 - t2)
	if rtt < 0 {
		return // timestamps out of order: a clock stepped mid-exchange
	}
	theta := (float64(t2-t1) + float64(t3-t4)) / 2
	ce.mu.Lock()
	if !ce.have || rtt < ce.bestRTT {
		ce.have, ce.bestRTT, ce.offsetNs = true, rtt, theta
	}
	ce.mu.Unlock()
}

// estimate returns the current offset (remote minus local, nanoseconds) and
// the round-trip time it was measured at. ok is false before any sample.
func (ce *clockEstimator) estimate() (offsetNs float64, rttNs int64, ok bool) {
	if ce == nil {
		return 0, 0, false
	}
	ce.mu.Lock()
	defer ce.mu.Unlock()
	return ce.offsetNs, ce.bestRTT, ce.have
}

// stages snapshots per-stage busy totals (stages that never ran are
// omitted), the same shape the native recorder reports.
func (l *ledger) stages() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range []struct {
		name string
		ns   *atomic.Int64
	}{
		{stageMapKernel, &l.mapKernelNs},
		{stageMapInput, &l.mapInputNs},
		{stageMapPartition, &l.mapPartitionNs},
		{stageNetSend, &l.netSendNs},
		{stageNetRecv, &l.netRecvNs},
		{stageSpill, &l.spillNs},
		{stageReduce, &l.reduceNs},
	} {
		if v := s.ns.Load(); v > 0 {
			out[s.name] = time.Duration(v)
		}
	}
	return out
}

// publish pushes the settled counters into the telemetry registry. Call
// once, after every node has quiesced.
func (l *ledger) publish() {
	if l.tel == nil || l.tel.Metrics == nil {
		return
	}
	reg := l.tel.Metrics
	reg.Counter("conserv_map_records_in_total").Add(l.mapRecordsIn.Load())
	reg.Counter("conserv_map_pairs_out_total").Add(l.mapPairsOut.Load())
	reg.Counter("conserv_partition_records_total").Add(l.partRecords.Load())
	reg.Counter("conserv_partition_runs_total").Add(l.partRuns.Load())
	reg.Counter("conserv_partition_raw_bytes_total").Add(l.partRaw.Load())
	reg.Counter("conserv_partition_stored_bytes_total").Add(l.partStored.Load())
	reg.Counter("conserv_store_accepted_records_total").Add(l.storeAccepted.Load())
	reg.Counter("conserv_store_dup_dropped_records_total").Add(l.storeDupDropped.Load())
	reg.Counter("conserv_store_lost_records_total").Add(l.storeLost.Load())
	reg.Counter("conserv_store_settled_records_total").Add(l.storeSettled.Load())
	reg.Counter("conserv_store_handoff_out_records_total").Add(l.handoffOut.Load())
	reg.Counter("conserv_store_handoff_in_records_total").Add(l.handoffIn.Load())
	reg.Counter("conserv_reduce_records_in_total").Add(l.reduceRecordsIn.Load())
	reg.Counter("conserv_reduce_groups_in_total").Add(l.reduceGroupsIn.Load())
	reg.Counter("conserv_output_pairs_total").Add(l.outputPairs.Load())
	reg.Counter("conserv_net_records_sent_total").Add(l.netRecordsSent.Load())
	reg.Counter("conserv_net_bytes_sent_total").Add(l.netBytesSent.Load())
	reg.Counter("conserv_net_records_recv_total").Add(l.netRecordsRecv.Load())
	reg.Counter("conserv_net_bytes_recv_total").Add(l.netBytesRecv.Load())
	reg.Counter("conserv_net_records_lost_total").Add(l.netRecordsLost.Load())
	reg.Counter("conserv_net_bytes_lost_total").Add(l.netBytesLost.Load())
	reg.Counter("dist_shuffle_bytes_total").Add(l.netBytesSent.Load())
	reg.Counter("dist_net_queue_ns_total").Add(l.netQueueNs.Load())
	reg.Counter("dist_net_write_ns_total").Add(l.netWriteNs.Load())
	// Block-store and spill counters only appear on runs that used those
	// subsystems, so metric snapshots of every pre-existing run shape stay
	// byte-identical.
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"dist_read_local_bytes_total", l.readLocalBytes.Load()},
		{"dist_read_remote_bytes_total", l.readRemoteBytes.Load()},
		{"dist_block_ingest_bytes_total", l.blockIngestBytes.Load()},
		{"conserv_spill_records_total", l.spillRecords.Load()},
		{"conserv_spill_raw_bytes_total", l.spillRawBytes.Load()},
		{"conserv_spill_stored_bytes_total", l.spillStoredBytes.Load()},
		{"conserv_spill_files_total", l.spillFiles.Load()},
		{"conserv_spill_disarmed_total", l.spillDisarmed.Load()},
	} {
		if c.v != 0 {
			reg.Counter(c.name).Add(c.v)
		}
	}
}
