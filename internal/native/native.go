// Package native executes Glasswing applications on the real host: the same
// 5-stage pipeline structure and the same App/collector semantics as the
// simulated engine in internal/core, but built from goroutines and channels,
// processing data with genuine parallelism and measuring wall-clock time.
//
// internal/core exists to reproduce the paper's cluster/GPU evaluation on
// simulated hardware; this package is the runtime a downstream user points
// at real bytes. The "compute device" is the host CPU (the paper's CPU
// driver with unified memory — Stage and Retrieve are no-ops), the "cluster"
// is one process, and the intermediate-data manager spills to real temporary
// files when the cache threshold is exceeded.
package native

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// Config tunes the native pipeline. The names mirror the paper's
// Configuration API where they apply to a single-host run.
type Config struct {
	// KernelWorkers is the map kernel worker pool size (0 = GOMAXPROCS),
	// the analog of the OpenCL global size on the CPU device.
	KernelWorkers int
	// PartitionThreads is N: concurrent partitioner workers.
	PartitionThreads int
	// Partitions is P: intermediate partitions (reduce parallelism).
	Partitions int
	// Buffering bounds how many chunks may be in flight between stages
	// (1-3, the paper's buffering levels; default 2).
	Buffering int
	// Collector picks the kernel output mechanism.
	Collector core.CollectorKind
	// UseCombiner aggregates each chunk's hash table with App.Combine.
	UseCombiner bool
	// Compress stores intermediate runs DEFLATE-compressed.
	Compress bool
	// CacheThreshold is the in-memory intermediate cache bound in bytes;
	// above it, partitions spill to temporary files (0 = never spill).
	CacheThreshold int64
	// SpillDir receives spill files (default os.TempDir()).
	SpillDir string
	// Partitioner overrides hash partitioning.
	Partitioner func(key []byte, n int) int
	// Telemetry, if set, receives wall-clock stage spans (map/kernel,
	// map/partition, spill, reduce) plus allocation and spill
	// counters. Nil keeps the hot path free of span and memory-stat
	// overhead; the cheap per-stage busy totals in Result.Stages are
	// collected either way.
	Telemetry *obs.Telemetry
}

func (c Config) withDefaults() Config {
	if c.KernelWorkers <= 0 {
		c.KernelWorkers = runtime.GOMAXPROCS(0)
	}
	if c.PartitionThreads <= 0 {
		c.PartitionThreads = max(1, runtime.GOMAXPROCS(0)/2)
	}
	if c.Partitions <= 0 {
		c.Partitions = max(1, runtime.GOMAXPROCS(0))
	}
	if c.Buffering <= 0 {
		c.Buffering = 2
	}
	if c.Buffering > 3 {
		c.Buffering = 3
	}
	if c.Partitioner == nil {
		c.Partitioner = kv.Partition
	}
	return c
}

// Result reports a native run with wall-clock phase times.
type Result struct {
	App        string
	MapElapsed time.Duration
	// MergeDelay is the gap between the end of the map phase and the start
	// of reduce. Nothing runs in it — each partition's only merge is its
	// reducer's — so it is ~0; callers that sum the three phases keep it.
	MergeDelay    time.Duration
	ReduceElapsed time.Duration
	Total         time.Duration

	// InputBytes and Pairs summarize the data volume.
	InputBytes        int64
	IntermediatePairs int
	OutputPairs       int
	SpillFiles        int
	// SpillBytes is the on-disk spill volume (after compression, if any).
	SpillBytes int64

	// Stages is the per-stage wall-clock busy time, summed across workers
	// (so a stage served by several goroutines can exceed the phase
	// elapsed time). Stages that never ran are absent.
	Stages map[string]time.Duration

	outputs [][]kv.Pair // per partition, key-sorted
}

// Output returns the final pairs in partition order; within a partition
// keys are sorted, so a range partitioner yields totally ordered output.
func (r *Result) Output() []kv.Pair {
	var out []kv.Pair
	for _, part := range r.outputs {
		out = append(out, part...)
	}
	return out
}

// Run executes app over the input blocks and returns the result. Blocks
// are the unit of map-chunk parallelism (split files on record boundaries;
// package dfs's SplitLines/SplitFixed do this for text and fixed records).
func Run(app *core.App, blocks [][]byte, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if app.MapBatch == nil || app.Parse == nil {
		return nil, fmt.Errorf("native: app %q needs Parse and MapBatch", app.Name)
	}
	if cfg.UseCombiner && (app.Combine == nil || cfg.Collector != core.HashTable) {
		return nil, fmt.Errorf("native: combiner requires App.Combine and the hash-table collector")
	}
	res := &Result{App: app.Name}
	for _, b := range blocks {
		res.InputBytes += int64(len(b))
	}
	start := time.Now()
	rec := newRecorder(cfg.Telemetry)

	store := newPartitionStore(cfg)
	store.rec = rec
	defer store.cleanup()

	// ---- Map phase: chunk pipeline with bounded in-flight buffers. ----
	// A chunk's output travels on pooled state from the kernel worker that
	// collected it to the partition worker that serializes it into runs.
	chunkCh := make(chan []byte, cfg.Buffering)
	partCh := make(chan *Chunk, cfg.Buffering)

	var mapWG sync.WaitGroup
	for w := 0; w < cfg.KernelWorkers; w++ {
		mapWG.Add(1)
		go func() {
			defer mapWG.Done()
			for block := range chunkCh {
				end := rec.start(stageMapKernel)
				c := MapBlock(app, block, cfg.Collector, cfg.UseCombiner)
				end()
				partCh <- c
			}
		}()
	}

	var partWG sync.WaitGroup
	for w := 0; w < cfg.PartitionThreads; w++ {
		partWG.Add(1)
		go func() {
			defer partWG.Done()
			for c := range partCh {
				// After a failure, keep draining partCh so map workers
				// blocked on send can finish; otherwise the pipeline
				// deadlocks and the error never surfaces.
				if store.err() != nil {
					c.Release()
					continue
				}
				end := rec.start(stageMapPartition)
				runs, st := c.Partition(cfg.Partitioner, cfg.Partitions, cfg.Compress)
				for g, run := range runs {
					if run == nil {
						continue
					}
					if err := store.add(g, run); err != nil {
						store.fail(err)
						break
					}
				}
				end()
				rec.mapStats(st)
			}
		}()
	}

	for _, b := range blocks {
		chunkCh <- b
	}
	close(chunkCh)
	mapWG.Wait()
	close(partCh)
	partWG.Wait()
	if err := store.err(); err != nil {
		return nil, err
	}
	res.MapElapsed = time.Since(start)
	res.IntermediatePairs = int(rec.mapPairsOut.Load())

	res.SpillFiles = store.spillCount()
	res.SpillBytes = rec.spillBytes.Load()

	// ---- Reduce phase: partitions in parallel, each k-way merging its
	// resident and filed runs — the only merge a partition gets. ----
	reduceStart := time.Now()
	res.MergeDelay = reduceStart.Sub(start) - res.MapElapsed
	res.outputs = make([][]kv.Pair, cfg.Partitions)
	var redWG sync.WaitGroup
	redErr := make(chan error, cfg.Partitions)
	sem := make(chan struct{}, cfg.KernelWorkers)
	for g := 0; g < cfg.Partitions; g++ {
		g := g
		redWG.Add(1)
		go func() {
			defer redWG.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			end := rec.start(stageReduce)
			defer end()
			iters, files, err := store.iterators(g)
			if err != nil {
				redErr <- err
				return
			}
			out, records, groups := ReducePartition(app, iters)
			if err := closeFiles(files); err != nil {
				// A spill file failed mid-stream: the merge ended early, so
				// out is short. Fail the job rather than return it.
				redErr <- err
				return
			}
			rec.reduceRecordsIn.Add(records)
			rec.reduceGroupsIn.Add(groups)
			rec.outputPairs.Add(int64(len(out)))
			res.outputs[g] = out
		}()
	}
	redWG.Wait()
	select {
	case err := <-redErr:
		return nil, err
	default:
	}
	res.ReduceElapsed = time.Since(reduceStart)
	res.Total = time.Since(start)
	for _, part := range res.outputs {
		res.OutputPairs += len(part)
	}
	res.Stages = rec.stages()
	rec.publish(res)
	return res, nil
}
