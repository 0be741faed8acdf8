// Package core implements Glasswing, the paper's contribution: a MapReduce
// framework structured as a light-weight library that scales horizontally by
// distributing coarse-grained work over cluster nodes and vertically by
// exploiting fine-grained parallelism on OpenCL compute devices.
//
// The framework has three phases (§III): a map phase and a reduce phase,
// each an instantiation of the 5-stage Glasswing pipeline
// (Input → Stage → Kernel → Retrieve → Output), and a merge phase that
// manages intermediate data concurrently with the map phase. The pipeline
// overlaps disk access, host<->device memory transfers, computation and
// inter-node communication; single/double/triple buffering controls how far
// stages within the input and output groups may run ahead of each other.
package core

import (
	"fmt"

	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// CollectorKind selects the mechanism map kernels use to collect and store
// their output key/value pairs (§III-F).
type CollectorKind int

const (
	// HashTable stores each key's contents once and chains its values; it
	// is the only collector that supports a combiner.
	HashTable CollectorKind = iota
	// BufferPool is the simple shared output pool: each emit is a single
	// atomic bump allocation. Cheap in the kernel, expensive to partition
	// (each key/value occurrence is decoded individually, §IV-B1).
	BufferPool
)

func (c CollectorKind) String() string {
	if c == HashTable {
		return "hash table"
	}
	return "buffer pool"
}

// CostModel expresses an application kernel's work in device ops (see
// package hw for the unit). The engine accumulates these while executing
// the real kernel body and charges the result to the simulated device.
type CostModel struct {
	// OpsPerRecord is charged per map record or per reduce key.
	OpsPerRecord float64
	// OpsPerByte is charged per byte of input the kernel touches.
	OpsPerByte float64
	// OpsPerValue is charged per reduce/combine input value.
	OpsPerValue float64
	// OpsPerEmit is the non-atomic cost of producing one output pair
	// (the atomic part is owned by the collector).
	OpsPerEmit float64
	// OpsPerBatch is charged once per kernel launch, independent of batch
	// size: the fixed launch/dispatch overhead that batch-oriented kernels
	// amortize over many records (the per-launch constant the Xeon Phi
	// vectorized-map work eliminates from the per-record path).
	OpsPerBatch float64
}

// App is a Glasswing application: the map/reduce/combine kernels plus their
// cost models and the input record format. The paper's Glasswing OpenCL API
// corresponds to the kernel functions; its Configuration API corresponds to
// Config.
type App struct {
	Name string

	// Parse splits one raw input block into records (the input format).
	Parse func(block []byte) []kv.Pair
	// ParseCostPerByte is the host-side cost of Parse in ops/byte,
	// charged in the pipeline's Input stage.
	ParseCostPerByte float64

	// MapBatch is the map kernel: one call consumes a slab of records — a
	// whole chunk, or one simulated thread's range of it — and appends
	// what it emits to a kv.Sink: the chunk's columnar batch, the native
	// combining table, or a simulated collector. No per-record dispatch,
	// no per-emit allocation.
	MapBatch MapBatchFunc
	MapCost  CostModel

	// Combine, if non-nil, is the application-specific combiner: a local
	// reduce over the results of one map chunk. Only supported with the
	// HashTable collector (§III-F). The simulated engines combine through
	// it; the real runtimes (internal/native, and internal/dist through
	// it) fold through Fold instead, and refuse a combiner job whose app
	// has no Fold.
	//
	// The contract is the one reduce has always held it to, since reduce
	// consumes combiner output from many chunks: Combine may be applied to
	// its own output, any number of times. Combine normally emits one pair
	// under the key it was given; other keys, no pair or several pairs are
	// legal and are passed on as they are. (KM still runs combiner-off in
	// the conformance matrix: reduce then adds per-chunk partial sums, which
	// associates differently from the reference's one pass over every
	// value and differently again under another runtime's chunking.)
	Combine     ReduceBatchFunc
	CombineCost CostModel
	// Fold is Combine in place, one value at a time: it folds v into acc, a
	// fixed-width accumulator. A real runtime keeps one accumulator per
	// distinct key of a chunk, as wide as the key's first value and zeroed,
	// and folds every value into it in emission order, the first one
	// included; the accumulator is then the key's one combined value. So
	// Fold over a key's values must give byte for byte what one Combine
	// over the same list gives — for a left-to-right Combine that starts
	// from zero, the same additions in the same order, which keeps KMeans'
	// float sums bit-identical. Fold must not keep acc or v.
	Fold func(acc, v []byte)
	// ReduceIsFold declares that ReduceBatch is Fold too: over any key
	// group it emits exactly one pair, the key and an accumulator as wide
	// as the group's first value, zeroed, with Fold applied to every value
	// in Merge's order, the first one included — byte for byte. The real
	// runtimes then reduce by folding each group as it leaves the merge,
	// without collecting its values (kv.Merger.FoldGroup); the simulated
	// engines call ReduceBatch either way. It is a property of the
	// kernels, and only an app with a Fold sets it: WordCount's and
	// PageviewCount's count sum is such a reduce; KMeans', which divides
	// the sums, is not.
	ReduceIsFold bool

	// ReduceBatch is the reduce kernel: it appends the output pairs of one
	// key group to a batch. If nil, reduction is skipped entirely: the
	// framework writes each merged, sorted partition directly (TeraSort,
	// §IV-A1).
	ReduceBatch ReduceBatchFunc
	ReduceCost  CostModel
}

// Config carries the job parameters of the paper's Configuration API.
type Config struct {
	// Input names the files to process.
	Input []string
	// OutputPath prefixes the output partition files.
	OutputPath string
	// OutputReplication is the DFS replication of job output (TeraSort
	// uses 1, everything else the DFS default).
	OutputReplication int

	// Device selects the compute device on every node: 0 is the CPU,
	// 1 the first accelerator.
	Device int
	// DevicePerNode, if non-empty, overrides Device per node (index i is
	// node i's device). It enables heterogeneous clusters where only some
	// nodes carry accelerators — the scheduling setting of Shirahata et
	// al. that the paper cites in §II.
	DevicePerNode []int
	// BalanceByDevice weights the coordinator's split assignment by each
	// node's device peak throughput instead of splitting evenly, so a
	// GPU node receives proportionally more input in a mixed cluster.
	BalanceByDevice bool
	// Buffering is the pipeline buffering level: 1 (single), 2 (double)
	// or 3 (triple) buffers per pipeline group (§III-D).
	Buffering int
	// MapThreads and ReduceThreads are the kernel global sizes (0 = a
	// sensible default for the device). These are the paper's predominant
	// tuning variables (§I).
	MapThreads    int
	ReduceThreads int

	// PartitionThreads is N: host threads speeding up the map pipeline's
	// partitioning stage (§III-A, Fig 4a).
	PartitionThreads int
	// PartitionsPerNode is P: intermediate partitions per node. More
	// partitions mean cheaper key comparisons, parallel merging and
	// parallel flushing (§IV-B3, Fig 4b).
	PartitionsPerNode int
	// CacheThreshold is the aggregate in-memory intermediate cache size
	// (bytes) above which partitions are merged and flushed to disk.
	CacheThreshold int64
	// MaxSpillFiles caps the number of on-disk run files per partition;
	// beyond it the continuous multi-way merger compacts them (§III-B).
	MaxSpillFiles int
	// MergeThreads is the number of merger/flusher threads (the paper's
	// experiments set it equal to P; 0 keeps that default).
	MergeThreads int

	// Collector picks the kernel output mechanism.
	Collector CollectorKind
	// UseCombiner runs App.Combine over each chunk's hash table (see
	// App.Combine for what the runtimes rely on).
	UseCombiner bool
	// Compress stores intermediate runs DEFLATE-compressed (§III-B).
	Compress bool

	// ConcurrentKeys is the number of intermediate keys one reduce kernel
	// launch processes in parallel (§III-C, Fig 5).
	ConcurrentKeys int
	// KeysPerThread makes each reduce kernel thread process several keys
	// sequentially, amortizing thread-creation overhead (§III-C).
	KeysPerThread int
	// ThreadsPerKey processes a single key with multiple threads
	// (parallel per-key reduction for compute-heavy reducers).
	ThreadsPerKey int
	// MaxValuesPerLaunch bounds one kernel invocation; longer value lists
	// carry state across launches in per-key scratch buffers (§III-C).
	MaxValuesPerLaunch int

	// Partitioner overrides hash partitioning (TeraSort installs a
	// sampled range partitioner to achieve total order).
	Partitioner func(key []byte, n int) int

	// Overlap enables pipeline overlap. It defaults to true; the
	// sequential mode exists as an ablation of the paper's central claim.
	NoOverlap bool
	// PullShuffle switches intermediate data delivery from Glasswing's
	// push to a Hadoop-style reducer-side pull (ablation, §IV-A1).
	PullShuffle bool

	// FaultInjector, if set, is consulted after every map kernel
	// execution: returning true fails the task attempt. The framework
	// then applies the standard MapReduce recovery the paper describes
	// as a bookkeeping-only addition (§III-E): the attempt's partial
	// output is discarded (nothing has been partitioned or pushed yet —
	// durability starts at the partitioning stage) and the split is
	// rescheduled on the same node. Time already spent reading and
	// computing the failed attempt stays charged, as it would in
	// reality.
	FaultInjector func(file string, split, attempt int) bool
	// ReduceFaultInjector, if set, is consulted when a reduce task
	// finishes processing its partition: returning true fails the attempt.
	// The partial output is discarded and the partition requeues through
	// the reduce-side scheduler, bounded by MaxTaskAttempts — the reduce
	// half of §III-E's "like Hadoop's" fault tolerance.
	ReduceFaultInjector func(part, attempt int) bool
	// MaxTaskAttempts bounds injected failures per task — map split or
	// reduce partition — (default 4, Hadoop's mapred.map.max.attempts);
	// exceeding it fails the job.
	MaxTaskAttempts int
	// NodeFailures schedules whole-node deaths: at each entry's time
	// (seconds after the map phase begins) the node stops mid-job, its local
	// intermediate store becomes unreachable, completed map tasks whose
	// output lived only there re-execute on surviving nodes, and the
	// schedulers stop assigning it work. Failures that would fire after
	// the map phase, target an already-dead node, or would kill the last
	// live node are skipped. Incompatible with PullShuffle.
	NodeFailures []NodeFailure
	// SpeculativeSlowdown enables speculative execution: an attempt
	// running longer than SpeculativeSlowdown x the median completed
	// attempt time gets a backup copy on an idle node and the first
	// finisher wins. 0 disables it (the paper runs Hadoop both ways and
	// disables it on the stable DAS cluster, §IV-A).
	SpeculativeSlowdown float64

	// Trace records a per-stage activity timeline in Result.Trace,
	// visualizing the pipeline overlap (Trace.Render draws a Gantt chart).
	Trace bool
	// Metrics, if set, receives the job's counters and gauges: the
	// fault-tolerance activity behind Result.Stats, the headline timings,
	// and per-stage busy time. A registry may be shared across runs —
	// counters accumulate, and Result.Stats still reports only this run's
	// activity. Nil runs with a private registry.
	Metrics *obs.Registry

	// StaticScheduling pins every split to its affinity-assigned node
	// instead of the default dynamic hand-out with work stealing
	// (ablation; see the straggler experiment).
	StaticScheduling bool
}

// withDefaults fills zero fields with the defaults used throughout the
// paper's evaluation.
func (c Config) withDefaults() Config {
	if c.OutputPath == "" {
		c.OutputPath = "out"
	}
	if c.Buffering == 0 {
		c.Buffering = 2
	}
	if c.Buffering < 1 || c.Buffering > 3 {
		panic(fmt.Sprintf("core: buffering level %d out of range [1,3]", c.Buffering))
	}
	if c.PartitionThreads == 0 {
		c.PartitionThreads = 8
	}
	if c.PartitionsPerNode == 0 {
		c.PartitionsPerNode = 8
	}
	if c.MergeThreads == 0 {
		c.MergeThreads = c.PartitionsPerNode
	}
	if c.CacheThreshold == 0 {
		c.CacheThreshold = 64 << 20
	}
	if c.MaxSpillFiles == 0 {
		c.MaxSpillFiles = 8
	}
	if c.ConcurrentKeys == 0 {
		c.ConcurrentKeys = 4096
	}
	if c.KeysPerThread == 0 {
		c.KeysPerThread = 4
	}
	if c.ThreadsPerKey == 0 {
		c.ThreadsPerKey = 1
	}
	if c.MaxValuesPerLaunch == 0 {
		c.MaxValuesPerLaunch = 1 << 16
	}
	if c.Partitioner == nil {
		c.Partitioner = kv.Partition
	}
	if c.MaxTaskAttempts == 0 {
		c.MaxTaskAttempts = 4
	}
	return c
}
