// Package dist is the genuinely distributed Glasswing runtime: a
// coordinator and N worker nodes connected over TCP, running the same
// App/collector semantics as internal/core and internal/native but with a
// real wire shuffle — intermediate kv runs stream partition-by-partition to
// their destination workers *while* map execution continues, the paper's
// stage-4 compute/communication overlap made real (§III-A stage 5 pushes
// partitions to destination nodes; §III-B caches them there).
//
// The runtime comes in two deployments sharing every line of protocol code:
//
//   - loopback: coordinator and workers are goroutines in one process,
//     connected through real 127.0.0.1 TCP sockets (RunLoopback). This is
//     what tests, conformance and CI drive — the bytes genuinely cross the
//     kernel's TCP stack.
//   - multi-process: `cmd/distnode -serve` serves a job and `cmd/distnode
//     -join` joins it from other processes or hosts (Serve, Join); the
//     application is resolved by name through the registry in registry.go.
//
// Architecture (one job), by frame type:
//
//	formation  worker ── Join(listen addr) ──▶ coordinator
//	           coordinator ── Welcome(id), JobStart(job, peers, homes) ──▶ worker
//	           worker ── PeerHello(id) ──▶ each lower-id peer ── PeerHello ──▶ worker (the mesh)
//	ingest     coordinator ── BlockPut(block) ──▶ each replica holder  (block store)
//	map        coordinator ── MapTask(task, attempt) ──▶ worker w
//	           w ── BlockFetch ──▶ holder ── BlockData(block) ──▶ w    (remote read, whole)
//	           w ── RunBatch(runs of p) ──▶ home(p)                    (during map!)
//	           w ── Mark(attempt) ──▶ every peer ── Ack ──▶ w          (commit barrier)
//	           w ── MapDone | MapFailed ──▶ coordinator                (after all acks)
//	membership coordinator ── Membership(epoch, homes, alive, settled) ──▶ every worker
//	           old home ── Handoff(runs), HandoffMark ──▶ new home ── HandoffDone ──▶ coordinator
//	           live joiner ── JoinReady ──▶ coordinator           (mesh is up)
//	           coordinator ── Drained ──▶ drain target             (handoff done)
//	           worker ── Rejoin(id, epoch) ──▶ restarted coordinator
//	reduce     coordinator ── ReduceTask(p, attempt) ──▶ home(p)
//	           home(p) ── ReduceDone(output) | ReduceFailed ──▶ coordinator
//	end        coordinator ── JobEnd ──▶ every worker ── SpanBatch ──▶ coordinator
//	any link   Heartbeat (keep-alive; the coordinator's clock probes)
//
// The coordinator is one event loop around coord.step (coordinator.go):
// every worker frame, admission, lost link and the formation deadline is an
// event, scheduled churn fires inside step as progress crosses its
// threshold, and step queues the frames to send instead of sending them. Before any frame
// announces a change, the coordinator has journaled it (journal.go: job
// start, block-store namespace, membership epochs, map-done, reduce-done),
// so a restarted coordinator replays the journal and the workers rejoin it.
//
// A worker is its decision state, wstate (wstate.go), stepped one event at a
// time under one lock in worker.do, around goroutines that do I/O: one
// reads the coordinator link (formation included), one reader per peer
// link, the acceptor and the dials that make links, the executor that maps,
// pushes and reduces, one per outbound handoff, one per block fetch it
// serves, the coalescers' timers and the link deadlines' timers.
//
// Fault tolerance mirrors the semantics of internal/core's taskScheduler:
// failed attempts are requeued up to MaxAttempts; a worker death (detected
// by connection loss or heartbeat timeout) requeues its in-flight tasks,
// reassigns its home partitions to survivors and re-executes every resolved
// map task — the destination-push shuffle means a dead node loses a slice
// of *every* task's output, so unlike Hadoop's mapper-local story the
// recovery set is all resolved tasks; destination-side first-marker-wins
// dedup discards the re-delivered output partitions that survived.
//
// Every node times its work with an obs.Tracer, the one the native runtime
// uses too: the coordinator's sched/* spans, each worker's map, spill and
// reduce spans and the wire stage (net/send and net/recv spans on the
// worker's node track), each with a node-salted id and the id of the span
// that caused it, which the merged Chrome trace draws as cross-process
// arrows. The conserv_net_* counters let internal/conformance prove
// records sent == received + lost even across a worker kill. The pipeline
// boundaries count into core.Conserv, the conservation ledger the simulator
// and internal/native use too; tel.go adds the counters only this runtime has.
package dist

import (
	"log/slog"
	"time"

	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// Options configures one distributed job from the coordinator's side. The
// loopback runner shares this type; fields marked loopback-only are ignored
// by the multi-process Serve entry point.
type Options struct {
	Job     Job
	Workers int
	Tuning  Tuning
	// Blocks are the map input splits; one map task per block.
	Blocks [][]byte
	// Telemetry receives the coordinator-side counters; in loopback mode the
	// workers share it too (spans, conserv_* ledger).
	Telemetry *obs.Telemetry
	// TraceID identifies the job's distributed trace. 0 mints one from the
	// wall clock; a resident service passes the id it already handed the
	// client so the job's spans correlate with its journal.
	TraceID uint64
	// Journal, if set, receives structured scheduling events (map retries,
	// worker deaths, membership changes) — callers attach job/tenant/trace
	// context up front via slog.With.
	Journal *slog.Logger

	// NewApp resolves the job's application (loopback-only; multi-process
	// workers use the registry). The resolver's partitioner return value
	// overrides the default hash partitioner.
	NewApp Resolver
	// MapFault injects attempt failures after the map kernel but before any
	// shuffle effect (loopback-only).
	MapFault func(task, attempt int) bool
	// KillWorker, when >= 0, kills that worker once KillAfterMapDone map
	// tasks have resolved (loopback-only; folded into Elastic internally).
	KillWorker       int
	KillAfterMapDone int

	// Elastic schedules membership churn — joins, drains, kills and
	// coordinator restarts — against scheduler progress. Joins, kills and
	// restarts need the loopback runner's hooks; drains work anywhere.
	Elastic []ElasticEvent
	// Blockstore selects how map input reaches workers. "" ships each block
	// embedded in its map-task frame (the classic path). "local" ingests
	// every block into Replication worker disks up front and schedules each
	// task on a replica holder — the Fig 3(d) move-compute-to-data mode;
	// non-holders (steals, retries) fetch the block from a holder. "remote"
	// ingests identically but pins every task away from its replicas, the
	// locality-off baseline the conformance suite diffs against.
	Blockstore string
	// Replication is block-store replica count (0 = default 3, clamped to
	// the cluster width; "remote" further clamps to width-1 so a non-holder
	// always exists).
	Replication int

	// JournalPath enables the checkpoint journal: an append-only, fsynced
	// record of task resolutions, partition homes, shuffle commit marks and
	// membership epochs, written write-ahead of every broadcast.
	JournalPath string
	// Resume replays JournalPath instead of forming a fresh cluster: the
	// coordinator validates the journal against this job, collects rejoins
	// from every journaled-live worker, and picks the job back up.
	Resume bool
}

// resolver is the job's app resolver: NewApp, else the registry.
func (o *Options) resolver() Resolver {
	if o.NewApp != nil {
		return o.NewApp
	}
	return RegistryResolver
}

// AppSpec identifies the job's application on the wire so multi-process
// workers can reconstruct the kernels locally (code never crosses the
// network; both sides run the same binary). Params is an opaque
// registry-defined payload — TeraSort ships its sampled range boundaries,
// KMeans its center spec.
type AppSpec struct {
	Name   string
	Params []byte
}

// Job is the wire-level job description the coordinator broadcasts in
// JobStart.
type Job struct {
	App         AppSpec
	Partitions  int // total reduce partitions across the cluster
	Collector   core.CollectorKind
	UseCombiner bool
	// Compress stores intermediate runs DEFLATE-compressed, as in the
	// native runtime: a run is compressed once, where its map task builds
	// it, and is stored, spilled, shipped and handed off as those bytes.
	Compress bool
	// MaxAttempts bounds failed executions per task (0 = default 4).
	MaxAttempts int
}

// MaxPartitions bounds Job.Partitions. Every map task sizes per-partition
// slices by it and the coordinator per-partition state, so a job asking for
// more is refused before anything is sized.
const MaxPartitions = 1 << 16

func (j Job) withDefaults() Job {
	if j.Partitions <= 0 {
		j.Partitions = 4
	}
	if j.MaxAttempts <= 0 {
		j.MaxAttempts = 4
	}
	return j
}

// Tuning holds the knobs shared by coordinator and workers. The transport
// ones are unexported: nothing outside this package's tests has needed a
// value other than the default.
type Tuning struct {
	// sendWindow bounds the bytes of shuffle data queued on one
	// connection's write pump; a sender whose window is full blocks until
	// the pump drains — backpressure from a slow receiver propagates to
	// the map executor (0 = default 4 MiB).
	sendWindow int64
	// heartbeatEvery is the keep-alive send interval (0 = default 1s).
	heartbeatEvery time.Duration
	// heartbeatTimeout declares a peer dead after this long without any
	// inbound frame (0 = default 10s).
	heartbeatTimeout time.Duration

	// RejoinGrace is how long a worker that loses its coordinator link
	// keeps redialing before declaring the job lost (0 = don't redial).
	// With a grace window, a coordinator that restarts and resumes from
	// its journal picks its workers back up instead of stranding them.
	RejoinGrace time.Duration
	// SpillThreshold caps a worker's resident intermediate shuffle data:
	// once committed runs exceed this many encoded bytes, whole partitions
	// are evicted to sorted on-disk run files and the reduce path k-way
	// merges them back streamingly — the out-of-core mode that lets a
	// dataset far larger than RAM complete (0 = never spill, the
	// everything-resident behavior every earlier test pins).
	SpillThreshold int64
	// WorkDir is where a worker puts its block-store replicas and spill
	// files ("" = the OS temp dir). Each worker creates (and removes) a
	// unique subdirectory, so loopback workers sharing one WorkDir don't
	// collide.
	WorkDir string
}

func (t Tuning) withDefaults() Tuning {
	if t.sendWindow <= 0 {
		t.sendWindow = 4 << 20
	}
	if t.heartbeatEvery <= 0 {
		t.heartbeatEvery = time.Second
	}
	if t.heartbeatTimeout <= 0 {
		t.heartbeatTimeout = 10 * time.Second
	}
	return t
}

// Result reports one distributed run.
type Result struct {
	App     string
	Workers int

	MapElapsed    time.Duration
	ReduceElapsed time.Duration
	Total         time.Duration

	InputBytes        int64
	IntermediatePairs int64
	OutputPairs       int

	// MapRetries counts requeued failed attempts, WorkersLost dead
	// workers, MapRecoveries resolved map tasks re-executed after a death
	// — the dist analogs of core.JobStats.
	MapRetries    int
	WorkersLost   int
	MapRecoveries int

	// WorkersJoined counts workers admitted after job start,
	// WorkersDrained graceful departures whose partitions were handed off,
	// and Resumed reports whether this result came from a coordinator that
	// restarted and picked the job back up from its checkpoint journal.
	WorkersJoined  int
	WorkersDrained int
	Resumed        bool

	// Block-store locality and out-of-core spill totals (loopback runs
	// read them off the shared ledger; multi-process workers report theirs
	// in their own metrics snapshots).
	ReadLocalBytes  int64
	ReadRemoteBytes int64
	SpillRecords    int64
	SpillBytes      int64

	// TraceID is the job's distributed trace id (minted by the coordinator
	// unless Options.TraceID pinned one).
	TraceID uint64
	// ClockOffsets and ClockRTTs report, per worker id, the estimated clock
	// offset (worker clock minus coordinator clock, seconds) and the
	// round-trip time the minimum-RTT sample was taken at — the offset's
	// error bound is RTT/2. Workers with no completed probe exchange are
	// absent.
	ClockOffsets map[int]float64
	ClockRTTs    map[int]float64

	state *jobState // the job's final journaled state; outputs key-sorted per partition
}

// Output returns the final pairs in partition order; within a partition
// keys are sorted, so a range partitioner yields totally ordered output.
func (r *Result) Output() []kv.Pair {
	var out []kv.Pair
	if r.state != nil {
		for _, rd := range r.state.reduced {
			out = append(out, rd.pairs...)
		}
	}
	return out
}
