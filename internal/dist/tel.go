package dist

import (
	"sync"

	"glasswing/internal/core"
	"glasswing/internal/obs"
)

// ledger is the dist runtime's conservation account: the ledger all three
// runtimes share (core.Conserv) plus the counters only this runtime has,
// named once, in newLedger. All of them live in the job's registry (a
// private one when the job has no Telemetry) and are counted where the
// event happens. In loopback mode one ledger is shared by every node in the
// process, matching how conformance reads a single registry; a
// multi-process worker owns a private one.
type ledger struct {
	tel *obs.Telemetry
	reg *obs.Registry

	core.Conserv

	storeSettled  *obs.Counter // records a final accepted reduce consumed before their store died
	handoffOut    *obs.Counter // committed records shipped off a re-homed partition
	handoffIn     *obs.Counter // committed records adopted at a partition's new home
	spillDisarmed *obs.Counter // stores that stopped spilling after a disk error

	netRecordsSent *obs.Counter
	netBytesSent   *obs.Counter
	netRecordsRecv *obs.Counter
	netBytesRecv   *obs.Counter
	netRecordsLost *obs.Counter
	netBytesLost   *obs.Counter
	shuffleBytes   *obs.Counter // netBytesSent under the name -report and the bench read

	// Block-store locality: bytes of map input read from the mapper's own
	// store versus fetched from a remote holder (or shipped embedded by
	// the coordinator as a last resort). Their sum is the input volume, so
	// local/(local+remote) is the Fig 3(d) locality hit ratio.
	readLocalBytes  *obs.Counter
	readRemoteBytes *obs.Counter
	// blockIngestBytes counts block replica bytes pushed to this node's
	// store at ingest (replication included), kept apart from the shuffle
	// wire counters so the conservation ledger stays about records.
	blockIngestBytes *obs.Counter

	// net/send split: queue residence vs socket write, summed per bulk
	// frame by the connection write pumps — they tell congestion apart from
	// a slow wire.
	netQueueNs *obs.Counter
	netWriteNs *obs.Counter

	// base is the ledger at job start: Result reports this run's growth.
	base struct{ readLocal, readRemote, spillRecords, spillBytes int64 }
}

func newLedger(tel *obs.Telemetry) *ledger {
	var reg *obs.Registry
	if tel != nil {
		reg = tel.Metrics
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := &ledger{
		tel: tel, reg: reg,
		Conserv: core.NewConserv(reg),

		storeSettled:  reg.Counter("conserv_store_settled_records_total"),
		handoffOut:    reg.Counter("conserv_store_handoff_out_records_total"),
		handoffIn:     reg.Counter("conserv_store_handoff_in_records_total"),
		spillDisarmed: reg.Counter("conserv_spill_disarmed_total"),

		netRecordsSent: reg.Counter("conserv_net_records_sent_total"),
		netBytesSent:   reg.Counter("conserv_net_bytes_sent_total"),
		netRecordsRecv: reg.Counter("conserv_net_records_recv_total"),
		netBytesRecv:   reg.Counter("conserv_net_bytes_recv_total"),
		netRecordsLost: reg.Counter("conserv_net_records_lost_total"),
		netBytesLost:   reg.Counter("conserv_net_bytes_lost_total"),
		shuffleBytes:   reg.Counter("dist_shuffle_bytes_total"),

		readLocalBytes:   reg.Counter("dist_read_local_bytes_total"),
		readRemoteBytes:  reg.Counter("dist_read_remote_bytes_total"),
		blockIngestBytes: reg.Counter("dist_block_ingest_bytes_total"),

		netQueueNs: reg.Counter("dist_net_queue_ns_total"),
		netWriteNs: reg.Counter("dist_net_write_ns_total"),
	}
	l.base.readLocal = l.readLocalBytes.Value()
	l.base.readRemote = l.readRemoteBytes.Value()
	l.base.spillRecords = l.SpillRecords.Value()
	l.base.spillBytes = l.SpillStoredBytes.Value()
	return l
}

// fill sets the Result fields read off the ledger to this run's totals —
// loopback only, where one ledger is the whole cluster's.
func (l *ledger) fill(res *Result) {
	res.ReadLocalBytes = l.readLocalBytes.Value() - l.base.readLocal
	res.ReadRemoteBytes = l.readRemoteBytes.Value() - l.base.readRemote
	res.SpillRecords = l.SpillRecords.Value() - l.base.spillRecords
	res.SpillBytes = l.SpillStoredBytes.Value() - l.base.spillBytes
}

// distFrameBuckets bucket outbound shuffle frame sizes in bytes, from
// lone-run frames up to batches past coalesceBytes.
var distFrameBuckets = []float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

// frameBytes records one outbound shuffle frame's wire size.
func (l *ledger) frameBytes(n int64) {
	l.reg.Histogram("dist_frame_bytes", distFrameBuckets).Observe(float64(n))
}

// bulkTiming accumulates one written bulk frame's queue/write split, both
// as running totals (the counters -report splits net/send by) and as
// per-frame latency histograms whose estimated quantiles expose the tail.
func (l *ledger) bulkTiming(queueNs, writeNs int64) {
	l.netQueueNs.Add(queueNs)
	l.netWriteNs.Add(writeNs)
	l.reg.Histogram("dist_net_queue_seconds", obs.DefTimeBuckets).Observe(float64(queueNs) / 1e9)
	l.reg.Histogram("dist_net_write_seconds", obs.DefTimeBuckets).Observe(float64(writeNs) / 1e9)
}

func (l *ledger) netSent(records, bytes int64) {
	l.netRecordsSent.Add(records)
	l.netBytesSent.Add(bytes)
	l.shuffleBytes.Add(bytes)
}

func (l *ledger) netRecv(records, bytes int64) {
	l.netRecordsRecv.Add(records)
	l.netBytesRecv.Add(bytes)
}

func (l *ledger) netLost(records, bytes int64) {
	l.netRecordsLost.Add(records)
	l.netBytesLost.Add(bytes)
}

// dropped books one bulk frame a peer link never delivered: lost on the
// wire, and — for a handoff, whose records a store had accepted — lost to
// the stores too.
func (l *ledger) dropped(f frame) {
	l.netLost(f.records, f.acct)
	if f.typ() == mHandoff {
		l.StoreLost.Add(f.records)
	}
}

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
