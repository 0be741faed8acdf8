// Package glasswing is a from-scratch reproduction of Glasswing, the
// MapReduce framework of "Scaling MapReduce Vertically and Horizontally"
// (El-Helw, Hofman, Bal — SC 2014).
//
// Glasswing scales horizontally by distributing coarse-grained work across
// cluster nodes and vertically by exploiting fine-grained parallelism on
// OpenCL compute devices. Its core is a 5-stage pipeline
// (Input → Stage → Kernel → Retrieve → Output) that overlaps disk access,
// host<->device transfers, computation and inter-node communication, plus
// an intermediate-data manager that caches, spills and continuously merges
// partitions concurrently with the map phase.
//
// Because no OpenCL runtime, GPUs, or 16-node InfiniBand cluster are
// available here, the framework runs on a deterministic simulated cluster:
// applications process real data and produce verifiable output, while the
// time every stage takes is charged against calibrated hardware models
// (CPU pools, GPUs, Xeon Phi, disks, NICs, PCIe links). See DESIGN.md for
// the substitution map and EXPERIMENTS.md for the regenerated evaluation.
//
// # Quick start
//
//	cluster := glasswing.NewCluster(glasswing.ClusterConfig{Nodes: 4})
//	cluster.LoadText("input", corpus)
//	result, err := cluster.Run(glasswing.WordCountApp(), glasswing.Config{
//		Input:       []string{"input"},
//		Collector:   glasswing.HashTable,
//		UseCombiner: true,
//	})
//
// The returned Result carries the job's virtual execution time, the
// per-stage pipeline breakdowns, and the output key/value pairs.
package glasswing

import (
	"fmt"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/hw"
	"glasswing/internal/sim"
)

// Re-exported core types: the paper's Configuration and OpenCL APIs.
type (
	// App bundles an application's kernels, cost models and input format.
	App = core.App
	// Config carries the job parameters (device, buffering level,
	// partitioner threads N, partitions per node P, collector, ...).
	Config = core.Config
	// CostModel expresses kernel work in device ops.
	CostModel = core.CostModel
	// Result reports a finished job.
	Result = core.Result
	// StageTimes is a per-stage pipeline busy-time breakdown.
	StageTimes = core.StageTimes
	// CollectorKind selects the map-output collection mechanism.
	CollectorKind = core.CollectorKind
	// JobStats breaks down a job's fault-tolerance activity (§III-E):
	// injected map/reduce retries, nodes lost, map re-executions after a
	// node death, and speculative-execution wins.
	JobStats = core.JobStats
	// NodeFailure schedules a whole-node death At seconds after the map
	// phase begins (Config.NodeFailures).
	NodeFailure = core.NodeFailure
)

// SeededFaults derives deterministic map and reduce fault injectors from a
// seed: each (task, attempt) pair fails with probability pMap / pReduce,
// decided by a pure hash, so one seed reproduces the exact same failure
// schedule on every run. Plug the results into Config.FaultInjector and
// Config.ReduceFaultInjector.
func SeededFaults(seed int64, pMap, pReduce float64) (mapInj func(file string, split, attempt int) bool, reduceInj func(part, attempt int) bool) {
	return core.SeededFaults(seed, pMap, pReduce)
}

// Collector mechanisms (§III-F of the paper).
const (
	// HashTable stores each key once with chained values and supports a
	// combiner.
	HashTable = core.HashTable
	// BufferPool is the simple shared output pool: one atomic per emit.
	BufferPool = core.BufferPool
)

// FSKind selects the file system substrate.
type FSKind int

const (
	// HDFS is the simulated Hadoop distributed file system with 3-way
	// replication and locality-aware reads, accessed through a modeled
	// libhdfs/JNI bridge (the paper's comparison setup).
	HDFS FSKind = iota
	// LocalFS keeps every file fully replicated on every node's local
	// disk (the layout of the paper's GPMR comparison).
	LocalFS
)

// ClusterConfig describes the simulated cluster to build.
type ClusterConfig struct {
	// Nodes is the number of worker nodes (default 1).
	Nodes int
	// GPU attaches an NVidia GTX480 to every node (DAS-4 Type-1 layout).
	GPU bool
	// Type2 uses DAS-4 Type-2 nodes (dual 6-core Xeon; K20m when GPU).
	Type2 bool
	// FS selects the file system (default HDFS).
	FS FSKind
	// BlockSize is the DFS block / split size (default 256 KiB).
	BlockSize int64
	// SlowDown divides every hardware rate by this factor, letting small
	// datasets stand in for the paper's GB-scale ones (default 1).
	SlowDown float64
}

// Cluster is a simulated cluster plus its file system, ready to run jobs.
type Cluster struct {
	Env   *sim.Env
	HW    *hw.Cluster
	FS    dfs.Preloader
	specs ClusterConfig
}

// NewCluster builds a simulated cluster.
func NewCluster(cc ClusterConfig) *Cluster {
	if cc.Nodes <= 0 {
		cc.Nodes = 1
	}
	if cc.BlockSize <= 0 {
		cc.BlockSize = 256 << 10
	}
	env := sim.NewEnv()
	spec := hw.Type1(cc.GPU)
	if cc.Type2 {
		spec = hw.Type2(cc.GPU)
	}
	if cc.SlowDown > 1 {
		spec = spec.Slowed(cc.SlowDown)
	}
	cluster := hw.NewCluster(env, cc.Nodes, spec)
	var fs dfs.Preloader
	if cc.FS == LocalFS {
		fs = dfs.NewLocal(cluster, cc.BlockSize)
	} else {
		d := dfs.New(cluster, cc.BlockSize, 3)
		d.JNI = dfs.DefaultJNI
		fs = d
	}
	return &Cluster{Env: env, HW: cluster, FS: fs, specs: cc}
}

// LoadText stores a text dataset with line-aligned splits (experiment
// setup; costs no virtual time).
func (c *Cluster) LoadText(name string, data []byte) {
	c.FS.PreloadBlocks(name, dfs.SplitLines(data, c.specs.BlockSize), 0)
}

// LoadRecords stores a binary dataset of fixed-size records with
// record-aligned splits.
func (c *Cluster) LoadRecords(name string, data []byte, recordSize int64) {
	c.FS.PreloadBlocks(name, dfs.SplitFixed(data, c.specs.BlockSize, recordSize), 0)
}

// Run executes app under cfg on this cluster and returns the result. The
// virtual clock keeps advancing across successive Run calls (iterative
// algorithms simply call Run again).
func (c *Cluster) Run(app *App, cfg Config) (*Result, error) {
	return core.Run(&core.Runtime{Cluster: c.HW, FS: c.FS}, app, cfg)
}

// RunWithBroadcast is Run preceded by a broadcast of auxiliary data from
// node 0 to all nodes (the DistributedCache analog KM uses for its
// centers).
func (c *Cluster) RunWithBroadcast(app *App, cfg Config, bytes int64) (*Result, error) {
	rt := &core.Runtime{
		Cluster: c.HW,
		FS:      c.FS,
		Prelude: func(p *sim.Proc, cl *hw.Cluster) { cl.Broadcast(p, cl.Nodes[0], bytes) },
	}
	return core.Run(rt, app, cfg)
}

// The five applications of the paper's evaluation, ready to run.

// WordCountApp returns the WC application (word frequencies; hash-table
// collector plus combiner is the tuned configuration).
func WordCountApp() *App { return apps.WordCount() }

// PageviewCountApp returns the PVC application (URL frequencies over web
// server logs; I/O-bound, sparse keys).
func PageviewCountApp() *App { return apps.PageviewCount() }

// TeraSortApp returns the TS application. Pair it with a partitioner from
// TeraSortPartitioner for totally ordered output.
func TeraSortApp() *App { return apps.TeraSort() }

// TeraSortPartitioner samples the input (every sampleEvery-th record) and
// returns the range partitioner that gives TeraSort total order.
func TeraSortPartitioner(data []byte, sampleEvery int) func(key []byte, n int) int {
	return apps.TeraPartitioner(data, sampleEvery)
}

// KMeansSpec re-exports the K-Means configuration.
type KMeansSpec = apps.KMeansSpec

// KMeansApp returns one K-Means iteration over spec.
func KMeansApp(spec KMeansSpec) *App { return apps.KMeans(spec) }

// MatMulSpec re-exports the Matrix Multiply configuration.
type MatMulSpec = apps.MMSpec

// MatMulApp returns the tiled matrix multiplication application.
func MatMulApp(spec MatMulSpec) *App { return apps.MatMul(spec) }

// Summary formats the headline metrics of a result.
func Summary(r *Result) string {
	return fmt.Sprintf(
		"%s on %d node(s): job %.2fs (map %.2fs, merge delay %.2fs, reduce %.2fs), %d output pairs, %s intermediate",
		r.App, r.Nodes, r.JobTime, r.MapElapsed, r.MergeDelay, r.ReduceElapsed,
		r.OutputPairs, byteSize(r.IntermediateBytes))
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
