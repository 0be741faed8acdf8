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
// Architecture (one job):
//
//	coordinator ── MapTask(block) ──▶ worker w
//	worker w ── Run(partition p) ──▶ worker home(p)     (during map!)
//	worker w ── Mark(attempt) ──▶ every peer            (attempt complete)
//	peer ── Ack ──▶ worker w                            (commit barrier)
//	worker w ── MapDone ──▶ coordinator                 (after all acks)
//	coordinator ── StartReduce/ReduceTask(p) ──▶ home(p)
//	home(p) ── ReduceDone(output) ──▶ coordinator
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
// Every transfer is instrumented through internal/obs (net/send and
// net/recv spans on the worker's node track, conserv_net_* counters), so
// Chrome traces show the wire stage and internal/conformance can prove
// records sent == received + lost even across a worker kill. The pipeline
// boundaries count into core.Conserv, the conservation ledger the simulator
// and internal/native use too; tel.go adds the counters only this runtime has.
package dist

import (
	"time"

	"glasswing/internal/core"
	"glasswing/internal/kv"
)

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
	// Compress DEFLATEs each coalesced shuffle frame once on the wire.
	// Runs themselves stay uncompressed at both ends — cheap to build, and
	// the receiver decodes them as zero-copy views into the frame buffer —
	// so the compression context is per frame, amortized across every run
	// the frame carries.
	Compress bool
	// MaxAttempts bounds failed executions per task (0 = default 4).
	MaxAttempts int
}

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

// Stage names for the dist runtime's spans. The map/reduce vocabulary is
// shared with the sim and native runtimes so all three export onto the same
// Chrome-trace tracks; net/send and net/recv are the wire stage this
// runtime adds.
const (
	stageMapKernel    = "map/kernel"
	stageMapInput     = "map/input"
	stageMapPartition = "map/partition"
	stageNetSend      = "net/send"
	stageNetRecv      = "net/recv"
	stageSpill        = "spill"
	stageReduce       = "reduce"
	// Coordinator-side scheduling spans (node -1 in the merged trace): the
	// tenure of one map attempt / reduce partition from dispatch to its
	// done report — the root of each task's causal chain.
	stageSchedAssign = "sched/assign"
	stageSchedReduce = "sched/reduce"
)
